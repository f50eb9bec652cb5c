(* See recorded.mli. *)

open Rlist_model
module Recorder = Rlist_obs.Recorder
module Workload = Rlist_workload.Workload

type spec = {
  protocol : string;
  profile : Workload.profile;
  nclients : int;
  updates : int;
  seed : int;
  faults : Rlist_net.Faults.spec;
  shim : bool;
  rto : int;
  batching : bool;
  fastpath : bool;
  gc : Rlist_gc.policy option;
}

let default ~protocol =
  {
    protocol;
    profile = Workload.Uniform;
    nclients = 4;
    updates = 100;
    seed = 1;
    faults = Rlist_net.Faults.none;
    shim = true;
    rto = 12;
    batching = false;
    fastpath = false;
    gc = None;
  }

type outcome = {
  o_protocol : string;
  o_events : int;
  o_converged : bool;
  o_finals : (string * string) list;
  o_ots : int;
  o_metadata : int;
  o_convergence : Rlist_spec.Check.result;
  o_weak : Rlist_spec.Check.result;
  o_strong : Rlist_spec.Check.result;
  o_stats : (string * int) list;
  o_net : Rlist_net.Stats.t;
}

(* The CSS append fast path is an engine-scoped record: one fresh
   record per run, handed to the engine's constructor, so the
   counters cover exactly this run and nothing leaks across runs (or,
   under the sharded server, across domains). *)
let publish obs net fp =
  match obs with
  | None -> ()
  | Some obs ->
    let m = obs.Rlist_obs.Obs.metrics in
    Rlist_net.Stats.publish (Rlist_net.Transport.stats net) m;
    List.iter
      (fun (name, v) ->
        Rlist_obs.Metrics.add (Rlist_obs.Metrics.counter m name) v)
      (Rlist_ot.Fastpath.fields fp)

let engine spec =
  match Protocols.find spec.protocol with
  | Some p -> Protocols.engine p
  | None ->
    invalid_arg
      (Printf.sprintf "Recorded.run: unknown protocol %S" spec.protocol)

let wire spec =
  Rlist_net.Transport.config ~shim:spec.shim ~rto:spec.rto
    ~faults:spec.faults ~seed:spec.seed ()

(* The constructors are the one authority on what they accept. *)
let check spec =
  let (module E) = engine spec in
  ignore (E.create ~net:(wire spec) ~nclients:spec.nclients ())

(* The one summary of a finished run, whatever drove it: the three
   verdicts on its trace plus its counters. *)
let summarize ~name ~events ~converged ~finals ~ots ~metadata ~trace ~stats
    ~net =
  {
    o_protocol = name;
    o_events = events;
    o_converged = converged;
    o_finals = List.map (fun (r, doc) -> r, Document.to_string doc) finals;
    o_ots = ots;
    o_metadata = metadata;
    o_convergence = Rlist_spec.Convergence.check trace;
    o_weak = Rlist_spec.Weak_spec.check trace;
    o_strong = Rlist_spec.Strong_spec.check trace;
    o_stats = stats;
    o_net = net;
  }

let run ?obs ?recorder spec =
  let (module E) = engine spec in
  let net = wire spec in
  let fp = Rlist_ot.Fastpath.create ~enabled:spec.fastpath () in
  let t =
    E.create ~net ~batching:spec.batching ?gc:spec.gc ~fastpath:fp
      ~nclients:spec.nclients ()
  in
  (match obs with Some o -> E.attach_obs t o | None -> ());
  (match recorder with Some r -> E.attach_recorder t r | None -> ());
  let rng = Random.State.make [| spec.seed |] in
  let intent =
    Workload.intent_generator spec.profile ~nclients:spec.nclients ~rng
  in
  let params = Workload.params spec.profile ~updates:spec.updates in
  let events = E.run_random ~intent t ~rng ~params in
  publish obs net fp;
  let net_stats = Rlist_net.Transport.stats net in
  summarize ~name:E.name ~events ~converged:(E.converged t)
    ~finals:(E.documents t) ~ots:(E.total_ot_count t)
    ~metadata:(E.total_metadata_size t) ~trace:(E.trace t)
    ~stats:(Rlist_net.Stats.fields net_stats @ Rlist_ot.Fastpath.fields fp)
    ~net:net_stats

let replay_schedule ?obs ?batching ?fastpath
    (module P : Rlist_sim.Protocol_intf.PROTOCOL) ~initial ~nclients events =
  let module E = Rlist_sim.Engine.Make (P) in
  let t = E.create ~initial ?batching ?fastpath ~nclients () in
  Option.iter (E.attach_obs t) obs;
  E.run t events;
  let clients =
    List.init nclients (fun i ->
        "c" ^ string_of_int (i + 1), E.client_document t (i + 1))
  in
  summarize ~name:P.name ~events:(List.length events)
    ~converged:(E.converged t)
    ~finals:
      (if P.server_is_replica then ("server", E.server_document t) :: clients
       else clients)
    ~ots:(E.total_ot_count t) ~metadata:(E.total_metadata_size t)
    ~trace:(E.trace t) ~stats:[] ~net:(Rlist_net.Stats.create ())

let pp_outcome ppf o =
  let check = Rlist_spec.Check.pp in
  Format.fprintf ppf "@[<v>protocol:    %s@,events:      %d@,converged:   %b@,"
    o.o_protocol o.o_events o.o_converged;
  (match o.o_finals with
  | (_, doc) :: _ -> Format.fprintf ppf "final:       %S@," doc
  | [] -> ());
  Format.fprintf ppf
    "OT calls:    %d@,metadata:    %d@,convergence: %a@,weak spec:   %a@,\
     strong spec: %a@]"
    o.o_ots o.o_metadata check o.o_convergence check o.o_weak check
    o.o_strong

(* The soak gate: strong-spec violations are a theorem for the OT
   protocols (Thm 8.1), so a run "fails" on convergence or the weak
   spec only. *)
let passed o =
  let sat = Rlist_spec.Check.is_satisfied in
  o.o_converged && sat o.o_convergence && sat o.o_weak

(* --- header / digest ---------------------------------------------- *)

let header_of ?(capacity = Recorder.default_capacity) spec =
  [
    "version", "1";
    "protocol", spec.protocol;
    "profile", Workload.profile_name spec.profile;
    "nclients", string_of_int spec.nclients;
    "updates", string_of_int spec.updates;
    "seed", string_of_int spec.seed;
    "faults", Rlist_net.Faults.to_string spec.faults;
    "shim", string_of_bool spec.shim;
    "rto", string_of_int spec.rto;
    "batching", string_of_bool spec.batching;
    "fastpath", string_of_bool spec.fastpath;
    "capacity", string_of_int capacity;
  ]
  @ match spec.gc with
    | None -> []
    | Some p -> [ "gc", Rlist_gc.to_string p ]

let spec_of_header header =
  let find key = List.assoc_opt key header in
  let int key default =
    match find key with
    | Some v -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "recording header: bad %s %S" key v))
    | None -> Ok default
  in
  let bool key default =
    match find key with
    | Some "true" -> Ok true
    | Some "false" -> Ok false
    | Some v -> Error (Printf.sprintf "recording header: bad %s %S" key v)
    | None -> Ok default
  in
  let ( let* ) = Result.bind in
  let* protocol =
    match find "protocol" with
    | Some p when List.mem_assoc p Protocols.all -> Ok p
    | Some p -> Error (Printf.sprintf "recording header: unknown protocol %S" p)
    | None -> Error "recording header: no protocol"
  in
  let* profile =
    match find "profile" with
    | None -> Ok Workload.Uniform
    | Some name -> (
      match Workload.profile_of_name name with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "recording header: unknown profile %S" name))
  in
  let* faults =
    match find "faults" with
    | None -> Ok Rlist_net.Faults.none
    | Some s -> (
      match Rlist_net.Faults.of_string s with
      | Ok f -> Ok f
      | Error msg -> Error ("recording header: " ^ msg))
  in
  let* gc =
    match find "gc" with
    | None -> Ok None
    | Some s -> (
      match Rlist_gc.of_string s with
      | Ok p -> Ok (Some p)
      | Error msg -> Error ("recording header: " ^ msg))
  in
  let* nclients = int "nclients" 4 in
  let* updates = int "updates" 100 in
  let* seed = int "seed" 1 in
  let* rto = int "rto" 12 in
  let* shim = bool "shim" true in
  let* batching = bool "batching" false in
  let* fastpath = bool "fastpath" false in
  Ok
    {
      protocol;
      profile;
      nclients;
      updates;
      seed;
      faults;
      shim;
      rto;
      batching;
      fastpath;
      gc;
    }

let digest_of outcome =
  let sat r = string_of_bool (Rlist_spec.Check.is_satisfied r) in
  [
    "protocol", outcome.o_protocol;
    "events", string_of_int outcome.o_events;
    "converged", string_of_bool outcome.o_converged;
    "convergence", sat outcome.o_convergence;
    "weak", sat outcome.o_weak;
    "strong", sat outcome.o_strong;
    "ots", string_of_int outcome.o_ots;
    "metadata", string_of_int outcome.o_metadata;
  ]
  @ List.map (fun (r, doc) -> "final." ^ r, doc) outcome.o_finals
  @ List.map (fun (k, v) -> "net." ^ k, string_of_int v) outcome.o_stats

(* --- record / replay ---------------------------------------------- *)

let record ?obs ?(capacity = Recorder.default_capacity) spec =
  let recorder = Recorder.create ~capacity () in
  let outcome = run ?obs ~recorder spec in
  outcome, recorder

let save ~spec ?(capacity = Recorder.default_capacity) result recorder path =
  let digest =
    match result with
    | Ok outcome -> digest_of outcome
    | Error msg -> [ "aborted", msg ]
  in
  Recorder.dump ~header:(header_of ~capacity spec) ~digest recorder path

type verdict = {
  v_spec : spec;
  v_outcome : outcome;
  v_total_expected : int;
  v_total_got : int;
  v_mismatches : (string * string * string) list;
  v_divergence : (int * string * string) option;
  v_ok : bool;
}

let compare_decisions expected got =
  (* Align on the shorter suffix: a wrapped recording retains only its
     tail, and both lists are oldest-first. *)
  let le = List.length expected and lg = List.length got in
  let expected =
    if lg < le then
      List.filteri (fun i _ -> i >= le - lg) expected
    else expected
  in
  let got =
    if le < lg then List.filteri (fun i _ -> i >= lg - le) got else got
  in
  let rec go i = function
    | [], [] -> None
    | e :: es, g :: gs ->
      let se = Recorder.decision_to_string e in
      let sg = Recorder.decision_to_string g in
      if String.equal se sg then go (i + 1) (es, gs) else Some (i, se, sg)
    | e :: _, [] -> Some (i, Recorder.decision_to_string e, "<none>")
    | [], g :: _ -> Some (i, "<none>", Recorder.decision_to_string g)
  in
  go 0 (expected, got)

let verify ?obs spec (recording : Recorder.recording) =
  let capacity =
    match List.assoc_opt "capacity" recording.Recorder.header with
    | Some v -> Option.value (int_of_string_opt v) ~default:Recorder.default_capacity
    | None -> Recorder.default_capacity
  in
  let outcome, recorder = record ?obs ~capacity spec in
  let fresh = digest_of outcome in
  let mismatches =
    List.filter_map
      (fun (k, expected) ->
        match List.assoc_opt k fresh with
        | Some got when String.equal got expected -> None
        | Some got -> Some (k, expected, got)
        | None -> Some (k, expected, "<absent>"))
      recording.Recorder.digest
    @ List.filter_map
        (fun (k, got) ->
          if List.mem_assoc k recording.Recorder.digest then None
          else Some (k, "<absent>", got))
        fresh
  in
  let divergence =
    compare_decisions recording.Recorder.r_window (Recorder.window recorder)
  in
  let total_got = Recorder.total recorder in
  {
    v_spec = spec;
    v_outcome = outcome;
    v_total_expected = recording.Recorder.r_total;
    v_total_got = total_got;
    v_mismatches = mismatches;
    v_divergence = divergence;
    v_ok =
      mismatches = [] && Option.is_none divergence
      && total_got = recording.Recorder.r_total;
  }

(* --- schedule extraction (shrinker handoff) ----------------------- *)

let schedule_of_recording (recording : Recorder.recording) =
  if recording.Recorder.r_total > List.length recording.Recorder.r_window then
    Error
      "recording wrapped: the ring discarded early decisions, so the full \
       schedule cannot be reconstructed (re-record with a larger capacity)"
  else
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | d :: rest -> (
        match d with
        | Recorder.Generate { client; intent } -> (
          match
            Rlist_sim.Schedule_text.intent_of_tokens
              (String.split_on_char ' ' intent)
          with
          | Some i -> go (Rlist_sim.Schedule.Generate (client, i) :: acc) rest
          | None ->
            Error (Printf.sprintf "unparseable recorded intent %S" intent))
        | Recorder.Deliver_to_server i ->
          go (Rlist_sim.Schedule.Deliver_to_server i :: acc) rest
        | Recorder.Deliver_to_client i ->
          go (Rlist_sim.Schedule.Deliver_to_client i :: acc) rest
        | Recorder.Deliver_peer _ ->
          Error
            "peer-to-peer recording: schedule extraction only supports the \
             client/server engine"
        | Recorder.Flush _ | Recorder.Transmit _ | Recorder.Retransmit _
        | Recorder.Ack _ | Recorder.Tick _ | Recorder.Gc _ ->
          go acc rest)
    in
    go [] recording.Recorder.r_window
