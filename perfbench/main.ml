(* The replicated-list benchmark.  See perfbench/README.md.

   main.exe --workload NAME --seed N --seconds S --trace 0|1

   Prints one line per metric and, as the last line, a JSON object
   {"correct", "attempted", "failed", "metrics"}.  Exits 1 when an
   output is wrong, 2 on a usage error. *)

module Vec = Probe.Vec
module Css = Workloads.Make (Probe.Traced (Jupiter_css.Protocol))
module Pruned = Workloads.Make (Probe.Traced (Jupiter_css.Pruned_protocol))
module Cscw = Workloads.Make (Jupiter_cscw.Protocol)

(* Process CPU seconds ([Unix.times] reads getrusage, to the
   microsecond). *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- machine speed -------------------------------------------------------- *)

(* The machine this was sized on is a shared virtual machine.  For
   stretches of a few seconds a neighbour on the same core slows this
   process by up to 35 %, and how much of a run falls in such stretches
   differs from run to run by more than any bound a timing may have.
   So after every timing window the benchmark times a fixed reference:
   a dependent walk along one cycle through a 256 KiB buffer, started
   after a walk through an 8 MiB one has pushed it out of the cache.
   Both buffers lie outside the OCaml heap and are built once, before
   the program's start is taken.  The reference allocates nothing, runs
   no code of the repository and begins from a cache state of its own
   making, so neither a change to the system nor its heap or GC settings
   moves it.  Timings are reported at the speed where one timed walk
   takes [reference_nominal_s], each scaled by the walk's median time
   on its own clock; README.md gives the evidence that it tracks. *)
type cycle = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

(* Sattolo's shuffle: one cycle through all [n] slots. *)
let cycle n : cycle =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n in
  for i = 0 to n - 1 do a.{i} <- i done;
  let rng = Random.State.make [| n |] in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng i in
    let t = a.{i} in
    a.{i} <- a.{j};
    a.{j} <- t
  done;
  a

let reference_small = cycle (1 lsl 15)
let reference_flush = cycle (1 lsl 20)
let reference_nominal_s = 0.002

let walk (a : cycle) steps =
  let p = ref 0 in
  for _ = 1 to steps do p := Bigarray.Array1.unsafe_get a !p done;
  ignore (Sys.opaque_identity !p)

(* Wall and CPU seconds of one timed walk.  The flush takes one step
   per 64-byte line of its buffer, which touches most of its 8 MiB. *)
let reference () =
  walk reference_flush (Bigarray.Array1.dim reference_flush / 8);
  let w0 = Probe.now_ns () and c0 = cpu_s () in
  walk reference_small 300_000;
  let c = cpu_s () -. c0 in
  (float_of_int (Probe.now_ns () - w0) /. 1e9, c)

let program_start = cpu_s ()

(* Set-up is repeated this many times and its median reported. *)
let setups = 9

(* The traced run's layer self times must cover at least this share of
   its wall time; the rest is benchmark code between engine calls. *)
let coverage_tolerance_pct = 10.0

(* Timings are taken per window of consecutive episodes holding at
   least this many apply samples, so each window's p99 has twenty
   samples beyond it; the median over the windows is reported. *)
let window_samples = 2_000

(* Spans written to perfbench-out/ at the end of a traced run. *)
let max_written_spans = 100_000

type workload = Typing_burst | Soak_gc | Hotspot_lossy

let workload_names =
  [
    "typing-burst", Typing_burst;
    "soak-gc", Soak_gc;
    "hotspot-lossy", Hotspot_lossy;
  ]

(* A workload ready to run: [run k] runs episode [k] on its own input,
   derived from the seed and [k].  The first [det_episodes] episodes are
   the deterministic part every count and lag comes from. *)
type session = {
  det_episodes : int;
  episode_updates : int;
  run : int -> Workloads.outcome;
  cscw_batching : bool option;  (* compare with CSCW (Thm. 7.1)? *)
}

(* Episode sizes.  Unpruned CSS cost grows faster than linearly with
   the history, so typing-burst and hotspot-lossy episodes stay short
   and a run averages over many of them; see README.md. *)
let typing_rounds = 2
let typing_det = 4
let hotspot_updates = 100
let hotspot_det = 160
let soak_chunks = 8
let soak_chunk = 1_000
let soak_det = 2

let episode_rng seed k = Random.State.make [| seed; k |]

let session workload seed =
  match workload with
  | Typing_burst ->
    let len = typing_rounds * Workloads.nclients * Workloads.burst in
    let run k =
      let rng = episode_rng seed k in
      Css.typing_episode
        (String.init len (fun _ -> Char.chr (97 + Random.State.int rng 26)))
    in
    { det_episodes = typing_det; episode_updates = len; run;
      cscw_batching = Some true }
  | Hotspot_lossy ->
    let run k =
      Css.hotspot_episode ~updates:hotspot_updates
        ~seed:(Random.State.bits (episode_rng seed k))
    in
    { det_episodes = hotspot_det; episode_updates = hotspot_updates; run;
      cscw_batching = Some false }
  | Soak_gc ->
    let run k =
      Pruned.soak_episode ~chunks:soak_chunks ~chunk:soak_chunk
        ~seed:(Random.State.bits (episode_rng seed k))
    in
    { det_episodes = soak_det; episode_updates = soak_chunks * soak_chunk;
      run; cscw_batching = None }

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a.(Array.length a / 2)

(* --- accumulated results ------------------------------------------------ *)

type acc = {
  mutable attempted : int;
  mutable failed : int;
  mutable errors : string list;
  (* untraced timing: the open window and the closed ones *)
  mutable win_updates : int;
  mutable win_cpu : float;
  mutable windows : (float * float * float) list;  (* ops/s, p50, p99 *)
  mutable apply_samples : int;
  mutable reference : (float * float) list;  (* wall and CPU s per walk *)
  (* traced run: CPU seconds of each input's untraced and traced run *)
  pair_cpu : (int, bool * float) Hashtbl.t;
  mutable overheads : float list;
  mutable traced_updates : int;
  mutable traced_wall_ns : int;
  (* the deterministic part: the first run of each of the first episodes *)
  mutable det_updates : int;
  mutable det_counters : (string * int) list option;
  mutable det_calls : int;
  mutable det_msgs : int;
  det_lags : int Vec.t;
  mutable rt_minor : float;
  mutable rt_promoted : float;
  mutable rt_major : int;
  (* documents and logged schedules of inputs to check again *)
  references : (int, string list * Rlist_sim.Schedule.t) Hashtbl.t;
}

let fail acc msg = acc.errors <- msg :: acc.errors

let close_window acc =
  let st = Probe.st in
  let applies = Vec.to_array st.apply_ns in
  Array.sort Int.compare applies;
  let us q = float_of_int (Probe.percentile applies q) /. 1e3 in
  acc.windows <-
    (float_of_int acc.win_updates /. acc.win_cpu, us 0.5, us 0.99)
    :: acc.windows;
  acc.apply_samples <- acc.apply_samples + Array.length applies;
  acc.reference <- reference () :: acc.reference;
  acc.win_updates <- 0;
  acc.win_cpu <- 0.0;
  Vec.clear st.apply_ns

let run_episode acc session ~k ~trace ~traced ~det ~log =
  let st = Probe.st in
  st.tracing <- traced;
  st.log_schedule <- log && Option.is_some session.cscw_batching;
  st.schedule <- [];
  Vec.clear st.lags;
  let gen0 = st.generated and int0 = st.integrated in
  let calls0 = st.receive_calls and msgs0 = st.receive_msgs in
  let gc0 = Gc.quick_stat () in
  let wall0 = Probe.now_ns () and cpu0 = cpu_s () in
  let result = try Ok (session.run k) with e -> Error (Printexc.to_string e) in
  let cpu = cpu_s () -. cpu0 and wall = Probe.now_ns () - wall0 in
  let gc1 = Gc.quick_stat () in
  st.tracing <- false;
  let updates = st.generated - gen0 in
  let integrated = st.integrated - int0 in
  acc.attempted <- acc.attempted + updates;
  if not trace then begin
    acc.win_updates <- acc.win_updates + integrated;
    acc.win_cpu <- acc.win_cpu +. cpu;
    if Vec.length st.apply_ns >= window_samples then close_window acc
  end
  else begin
    Vec.clear st.apply_ns;
    if traced then begin
      acc.traced_updates <- acc.traced_updates + integrated;
      acc.traced_wall_ns <- acc.traced_wall_ns + wall
    end;
    (* the two runs of one input, traced against untraced *)
    match Hashtbl.find_opt acc.pair_cpu k with
    | None -> Hashtbl.replace acc.pair_cpu k (traced, cpu)
    | Some (first_traced, first_cpu) ->
      Hashtbl.remove acc.pair_cpu k;
      let traced_cpu, untraced_cpu =
        if first_traced then (first_cpu, cpu) else (cpu, first_cpu)
      in
      acc.overheads <- ((traced_cpu /. untraced_cpu) -. 1.0) :: acc.overheads
  end;
  match result with
  | Error msg ->
    (* an aborted episode fails every update it was to make *)
    let missing = max 0 (session.episode_updates - updates) in
    acc.attempted <- acc.attempted + missing;
    acc.failed <- acc.failed + updates + missing;
    fail acc (Printf.sprintf "episode %d aborted: %s" k msg)
  | Ok outcome ->
    if updates <> integrated then
      fail acc
        (Printf.sprintf "episode %d: %d of %d updates not integrated everywhere"
           k (updates - integrated) updates);
    (* a diverged episode fails every update it made *)
    if Workloads.converged outcome.docs then
      acc.failed <- acc.failed + (updates - integrated)
    else begin
      acc.failed <- acc.failed + updates;
      fail acc (Printf.sprintf "episode %d: replicas diverged" k)
    end;
    (match Hashtbl.find_opt acc.references k with
    | Some (docs, _) ->
      if not (List.equal String.equal docs outcome.docs) then
        fail acc (Printf.sprintf "episode %d: a rerun of its input differs" k)
    | None ->
      Hashtbl.replace acc.references k (outcome.docs, List.rev st.schedule));
    if det then begin
      acc.det_updates <- acc.det_updates + updates;
      acc.det_counters <-
        Some
          (match acc.det_counters with
          | None -> outcome.counters
          | Some c -> Workloads.merge c outcome.counters);
      acc.det_calls <- acc.det_calls + (st.receive_calls - calls0);
      acc.det_msgs <- acc.det_msgs + (st.receive_msgs - msgs0);
      Array.iter (Vec.push acc.det_lags) (Vec.to_array st.lags);
      acc.rt_minor <- acc.rt_minor +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
      acc.rt_promoted <-
        acc.rt_promoted +. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words);
      acc.rt_major <-
        acc.rt_major + (gc1.Gc.major_collections - gc0.Gc.major_collections)
    end

(* Which episode step [i] of the loop runs, whether traced, and whether
   it is a deterministic-part run.  The traced run runs every input
   twice in a row, once traced and once not, alternating which goes
   first; the deterministic part is always the untraced run. *)
let plan session ~trace i =
  if not trace then (i, false, i < session.det_episodes)
  else begin
    let k = i / 2 in
    let traced = (i mod 2 = 1) <> (k mod 2 = 1) in
    (k, traced, k < session.det_episodes && not traced)
  end

(* --- output ----------------------------------------------------------- *)

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let report ~correct ~attempted ~failed metrics =
  List.iter
    (fun (name, v, unit) -> Printf.printf "%-28s %16.4f %s\n" name v unit)
    metrics;
  let fields =
    List.map
      (fun (name, v, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v)
          unit)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", " fields)

let write_spans ~workload_name spans self =
  let dir = "perfbench-out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Printf.sprintf "%s/%s.spans.jsonl" dir workload_name in
  let oc = open_out path in
  Array.iteri
    (fun i (s : Probe.span) ->
      if i < max_written_spans then
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"layer\": %S, \"name\": %S, \
           \"start_ns\": %d, \"dur_ns\": %d, \"self_ns\": %d, \"ops\": [%s]}\n"
          i s.parent (Probe.layer s.kind) (Probe.kind_name s.kind) s.start
          (s.stop - s.start) self.(i)
          (String.concat ", "
             (List.map
                (fun id -> Printf.sprintf "%S" (Rlist_model.Op_id.to_string id))
                s.ops)))
    spans;
  close_out oc;
  path

let per_op n d = if d = 0 then 0.0 else float_of_int n /. float_of_int d

let end_to_end acc ~setup_s =
  let lags = Vec.to_array acc.det_lags in
  Array.sort Int.compare lags;
  if acc.windows = [] || Array.length lags = 0 then begin
    fail acc "no timing window completed";
    []
  end
  else begin
    let tick q = float_of_int (Probe.percentile lags q) in
    let of_windows f = median (List.map f acc.windows) in
    let rate = of_windows (fun (r, _, _) -> r) in
    let p50 = of_windows (fun (_, p, _) -> p) in
    let p99 = of_windows (fun (_, _, p) -> p) in
    (* above 1 when this run's machine was slower than the nominal speed *)
    let wall_slow = median (List.map fst acc.reference) /. reference_nominal_s in
    let cpu_slow = median (List.map snd acc.reference) /. reference_nominal_s in
    Printf.printf "samples: %d apply in %d windows, %d lags\n"
      acc.apply_samples (List.length acc.windows) (Array.length lags);
    Printf.printf
      "reference walk: %.4f x nominal (wall), %.4f x nominal (CPU); as \
       measured: %.1f ops/s, apply p50 %.2f us, p99 %.2f us, setup %.4f s\n"
      wall_slow cpu_slow rate p50 p99 setup_s;
    let heap = (Gc.quick_stat ()).Gc.top_heap_words in
    [
      "ops_per_s", rate *. cpu_slow, "1/s";
      "apply_p50_us", p50 /. wall_slow, "us";
      "apply_p99_us", p99 /. wall_slow, "us";
      "lag_p50_ticks", tick 0.5, "ticks";
      "lag_p99_ticks", tick 0.99, "ticks";
      "peak_heap_mb", float_of_int (heap * (Sys.word_size / 8)) /. 1e6, "MB";
      ( "integrated_frac",
        float_of_int (acc.attempted - acc.failed) /. float_of_int acc.attempted,
        "frac" );
      "setup_s", setup_s /. cpu_slow, "s";
    ]
  end

let per_layer acc ~workload_name =
  let spans = Vec.to_array Probe.st.spans in
  let self = Probe.self_times spans in
  let sum pred =
    let total = ref 0 in
    Array.iteri
      (fun i (s : Probe.span) -> if pred s.kind then total := !total + self.(i))
      spans;
    !total
  in
  let generate = sum (function Probe.Generate -> true | _ -> false) in
  let server =
    sum (function
      | Probe.Server_receive | Probe.Server_receive_batch -> true
      | _ -> false)
  in
  let client =
    sum (function
      | Probe.Client_receive | Probe.Client_receive_batch -> true
      | _ -> false)
  in
  let sim = sum (fun k -> String.equal (Probe.layer k) "sim") in
  let core = generate + server + client in
  let us_per_op ns =
    float_of_int ns /. 1e3 /. float_of_int (max 1 acc.traced_updates)
  in
  let coverage =
    100.0 *. float_of_int (sim + core) /. float_of_int (max 1 acc.traced_wall_ns)
  in
  if coverage < 100.0 -. coverage_tolerance_pct then
    fail acc
      (Printf.sprintf "layer self times cover only %.1f%% of the traced run"
         coverage);
  let path = write_spans ~workload_name spans self in
  let share = 100.0 *. float_of_int core /. float_of_int (max 1 (sim + core)) in
  Printf.printf
    "spans: %d (first %d in %s); dominant layer: %s (%.1f%% of self time)\n"
    (Array.length spans)
    (min (Array.length spans) max_written_spans)
    path
    (if share >= 50.0 then "core" else "sim")
    (Float.max share (100.0 -. share));
  let d = acc.det_updates in
  let c name =
    match acc.det_counters with
    | None -> 0
    | Some cs -> Option.value (List.assoc_opt name cs) ~default:0
  in
  let count name = float_of_int (c name) in
  let rate name = per_op (c name) d in
  [
    "core.server_us_per_op", us_per_op server, "us/op";
    "core.client_us_per_op", us_per_op client, "us/op";
    "core.generate_us_per_op", us_per_op generate, "us/op";
    ( "core.metadata_peak",
      float_of_int (max (c "peak.metadata") (c "last.gc.meta_peak")),
      "count" );
    "ot.append_hits_per_op", rate "ot.fastpath.append_hits", "count/op";
    "ot.context_hits_per_op", rate "ot.fastpath.context_hits", "count/op";
    "ot.generic_squares_per_op", rate "ot.fastpath.generic_squares", "count/op";
    "ot.xforms_per_op", rate "ot.transforms", "count/op";
    "sim.self_us_per_op", us_per_op sim, "us/op";
    "sim.receive_calls_per_op", per_op acc.det_calls d, "count/op";
    "sim.batch_len_mean", per_op acc.det_msgs acc.det_calls, "msgs";
    "net.transmissions_per_op", rate "net.transmissions", "count/op";
    "net.retransmits_per_op", rate "net.retransmits", "count/op";
    "net.acks_per_op", rate "net.acks_sent", "count/op";
    "net.dup_dropped", count "net.dup_dropped", "count";
    "gc.cycles", count "gc.cycles", "count";
    "gc.reclaimed_states", count "gc.reclaimed_states", "count";
    "gc.heartbeats", count "gc.heartbeats", "count";
    "gc.skipped_heartbeats", count "gc.skipped_heartbeats", "count";
    "gc.snapshots", count "gc.snapshots", "count";
    "gc.snapshot_bytes", count "last.gc.last_snapshot_bytes", "bytes";
    "gc.dedup_keys_peak", count "peak.dedup_keys", "count";
    "obs.decisions_per_op", rate "obs.decisions", "count/op";
    "doc.final_length", count "last.doc_length", "chars";
    "rt.minor_words_per_op", acc.rt_minor /. float_of_int (max 1 d), "words/op";
    ( "rt.promoted_words_per_op",
      acc.rt_promoted /. float_of_int (max 1 d),
      "words/op" );
    "rt.major_collections", float_of_int acc.rt_major, "count";
    ( "trace.overhead_pct",
      (if acc.overheads = [] then 0.0 else 100.0 *. median acc.overheads),
      "%" );
    "trace.coverage_pct", coverage, "%";
  ]

(* --- main ------------------------------------------------------------- *)

let usage () =
  prerr_endline
    "usage: main.exe --workload typing-burst|soak-gc|hotspot-lossy --seed N \
     --seconds S --trace 0|1";
  exit 2

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_arg r v =
    match int_of_string_opt v with Some n -> r := Some n | None -> usage ()
  in
  let rec go = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      (match List.assoc_opt v workload_names with
      | Some w -> workload := Some (v, w)
      | None -> usage ());
      go rest
    | "--seed" :: v :: rest ->
      int_arg seed v;
      go rest
    | "--seconds" :: v :: rest ->
      int_arg seconds v;
      go rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := Some (String.equal v "1");
      go rest
    | _ -> usage ()
  in
  go (List.tl (Array.to_list Sys.argv));
  match !workload, !seed, !seconds, !trace with
  | Some w, Some seed, Some seconds, Some trace when seconds >= 1 ->
    (w, seed, seconds, trace)
  | _ -> usage ()

let () =
  let (workload_name, workload), seed, seconds, trace = parse_args () in
  let before_setup = cpu_s () in
  (* The warm-up input is the same for every seed, so set-up does the
     same work in every run; no timed episode uses it. *)
  let warm_up = (session workload 0).run in
  let session = session workload seed in
  (* One set-up: generate the warm-up input, create its engine and run
     it, in CPU seconds.  The apply samples it leaves are dropped. *)
  let set_up () =
    let samples = Vec.length Probe.st.apply_ns in
    Probe.st.log_schedule <- false;
    let t0 = cpu_s () in
    (match warm_up (-1) with
    | _ -> ()
    | exception e ->
      Printf.printf "error: warm-up episode aborted: %s\n"
        (Printexc.to_string e);
      report ~correct:false ~attempted:session.episode_updates
        ~failed:session.episode_updates [];
      exit 1);
    let d = cpu_s () -. t0 in
    Vec.truncate Probe.st.apply_ns samples;
    d
  in
  let durations = ref [ set_up () ] in
  let acc =
    {
      attempted = 0; failed = 0; errors = [];
      win_updates = 0; win_cpu = 0.0; windows = []; apply_samples = 0;
      reference = [];
      pair_cpu = Hashtbl.create 16; overheads = []; traced_updates = 0;
      traced_wall_ns = 0;
      det_updates = 0; det_counters = None; det_calls = 0; det_msgs = 0;
      det_lags = Vec.create 0;
      rt_minor = 0.0; rt_promoted = 0.0; rt_major = 0;
      references = Hashtbl.create 64;
    }
  in
  let det_steps = session.det_episodes * if trace then 2 else 1 in
  let start = Probe.now_ns () in
  let deadline = start + (seconds * 1_000_000_000) in
  let i = ref 0 in
  while (!i < det_steps || Probe.now_ns () < deadline) && acc.errors = [] do
    (* The untraced run repeats the set-up at even intervals, between
       episodes, so a few seconds of load from a neighbour on a shared
       machine slow at most one of them. *)
    let n = List.length !durations in
    if (not trace) && n < setups
       && Probe.now_ns () - start >= n * seconds * 1_000_000_000 / setups
    then durations := set_up () :: !durations;
    let k, traced, det = plan session ~trace !i in
    let first_of_input = (not trace) || !i mod 2 = 0 in
    run_episode acc session ~k ~trace ~traced ~det
      ~log:(first_of_input && k < session.det_episodes);
    (* keep only what a later check reads: the traced run's second run
       of an input, and the CSCW comparison of the deterministic part *)
    if k >= session.det_episodes && not (trace && first_of_input) then
      Hashtbl.remove acc.references k;
    incr i
  done;
  let metrics =
    if trace then per_layer acc ~workload_name
    else begin
      Printf.printf "set-ups (CPU s): %s\n"
        (String.concat " "
           (List.rev_map (Printf.sprintf "%.4f") !durations));
      end_to_end acc
        ~setup_s:(before_setup -. program_start +. median !durations)
    end
  in
  (* Thm. 7.1: CSCW reaches the same documents on the same schedule. *)
  (match session.cscw_batching with
  | None -> ()
  | Some batching ->
    Hashtbl.iter
      (fun k (docs, schedule) ->
        if k < session.det_episodes then
          match Cscw.replay ~batching schedule with
          | cscw when List.equal String.equal docs cscw -> ()
          | _ -> fail acc (Printf.sprintf "episode %d: CSCW reaches other documents" k)
          | exception e ->
            fail acc
              (Printf.sprintf "episode %d: CSCW cannot replay its schedule: %s" k
                 (Printexc.to_string e)))
      acc.references);
  Printf.printf "%s seed %d: %d episode runs, %d updates, %s\n" workload_name
    seed !i acc.attempted
    (if trace then "traced" else "untraced");
  List.iter (fun e -> Printf.printf "error: %s\n" e) (List.rev acc.errors);
  let correct = acc.errors = [] in
  report ~correct ~attempted:(max 1 acc.attempted) ~failed:acc.failed metrics;
  exit (if correct then 0 else 1)
