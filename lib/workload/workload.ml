open Rlist_model

type profile =
  | Uniform
  | Typing
  | Hotspot
  | Append_log
  | Churn

let all_profiles = [ Uniform; Typing; Hotspot; Append_log; Churn ]

let profile_name = function
  | Uniform -> "uniform"
  | Typing -> "typing"
  | Hotspot -> "hotspot"
  | Append_log -> "append-log"
  | Churn -> "churn"

let profile_of_name name =
  List.find_opt (fun p -> profile_name p = name) all_profiles

let random_char rng = Char.chr (Char.code 'a' + Random.State.int rng 26)

(* A geometrically distributed position biased towards the front. *)
let geometric rng ~bound =
  if bound = 0 then 0
  else begin
    let rec go p = if p >= bound || Random.State.bool rng then p else go (p + 1)
    in
    go 0
  end

let uniform_intent rng ~delete_fraction ~doc_length =
  if doc_length > 0 && Random.State.float rng 1.0 < delete_fraction then
    Intent.Delete (Random.State.int rng doc_length)
  else Intent.Insert (random_char rng, Random.State.int rng (doc_length + 1))

let intent_generator profile ~nclients ~rng =
  match profile with
  | Uniform ->
    fun ~client:_ ~doc_length ->
      uniform_intent rng ~delete_fraction:0.3 ~doc_length
  | Typing ->
    (* Per-client cursor; clamped to the (shared) document each time
       since remote edits move text underneath the cursor. *)
    let cursors = Array.make (nclients + 1) 0 in
    fun ~client ~doc_length ->
      let cursor = min cursors.(client) doc_length in
      let roll = Random.State.float rng 1.0 in
      if roll < 0.75 || doc_length = 0 then begin
        (* type a character at the cursor *)
        cursors.(client) <- cursor + 1;
        Intent.Insert (random_char rng, cursor)
      end
      else if roll < 0.90 && cursor > 0 then begin
        (* backspace *)
        cursors.(client) <- cursor - 1;
        Intent.Delete (cursor - 1)
      end
      else begin
        (* jump the cursor somewhere else and type *)
        let target = Random.State.int rng (doc_length + 1) in
        cursors.(client) <- target + 1;
        Intent.Insert (random_char rng, target)
      end
  | Hotspot ->
    fun ~client:_ ~doc_length ->
      if doc_length > 0 && Random.State.float rng 1.0 < 0.35 then
        Intent.Delete (geometric rng ~bound:(doc_length - 1))
      else Intent.Insert (random_char rng, geometric rng ~bound:doc_length)
  | Append_log ->
    fun ~client:_ ~doc_length -> Intent.Insert (random_char rng, doc_length)
  | Churn ->
    fun ~client:_ ~doc_length ->
      uniform_intent rng ~delete_fraction:0.5 ~doc_length

let params profile ~updates =
  let base = { Rlist_sim.Schedule.default_params with updates } in
  match profile with
  | Uniform -> base
  | Typing ->
    (* Interactive typing: messages flow promptly, light conflicts. *)
    { base with read_fraction = 0.05; deliver_bias = 0.7 }
  | Hotspot ->
    (* Keep many operations in flight to maximize concurrency. *)
    { base with read_fraction = 0.05; deliver_bias = 0.35 }
  | Append_log -> { base with read_fraction = 0.0; deliver_bias = 0.6 }
  | Churn -> { base with delete_fraction = 0.5 }

(* The timed counterpart: channel utilization instead of deliver_bias.
   [run_timed] keeps each channel FIFO by pushing an arrival to
   [max last (now + latency)] — a Lindley recursion, so every s2c
   channel is a single-server queue whose arrival rate is the whole
   system's operation rate ([nclients / think]) and whose service time
   is the latency draw.  Stability therefore demands
   [latency * nclients / think < 1]; the profile picks the
   utilization, i.e. how hard it leans on concurrency, and the latency
   is derived.  An over-unity utilization would grow the in-flight
   window (and with it the transform lattice) linearly with the
   horizon — the exact failure mode a long soak exists to rule out. *)
let timed_params profile ~nclients ~updates =
  let think = 120.0 in
  let utilization =
    match profile with
    | Uniform -> 0.4
    | Typing -> 0.15 (* prompt network, light conflicts *)
    | Hotspot -> 0.8 (* slow network: maximal (stable) concurrency *)
    | Append_log -> 0.4
    | Churn -> 0.4
  in
  let latency = utilization *. think /. Float.of_int (max 1 nclients) in
  {
    Rlist_sim.Schedule.default_timed_params with
    t_updates = updates;
    t_think_time = think;
    t_mean_latency = latency;
  }
