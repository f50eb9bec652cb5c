(* The bench's measuring tools: the CPU clock and the estimator every
   timed C-section row goes through ([measure]), a small wrapper around
   bechamel for the micro-benchmarks ([run]: OLS-fit the monotonic
   clock against the run count, one plain-text line per test, raw
   estimates returned for post-processing), and the BENCH_*.json
   writer. *)

open Bechamel
open Toolkit
module Json = Rlist_obs.Json

(* --- clocks ----------------------------------------------------------- *)

(* The observability histograms want wall-clock nanoseconds from the
   same monotonic source bechamel samples. *)
let now_ns () = Monotonic_clock.get ()

(* Point the metrics-layer timers at the real clock (the library's
   dependency-free default is a CPU-time fallback). *)
let install_metrics_clock () = Rlist_obs.Metrics.set_clock now_ns

(* Process CPU seconds, user plus system: every C-section timing reads
   this clock, since a neighbour's burst on a shared machine bends wall
   time but not the CPU time this process is charged. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* --- the timing estimator --------------------------------------------- *)

(* Timed rounds per leg. *)
let reps ~smoke = if smoke then 3 else 7

type spread = { median : float; q1 : float; q3 : float; n : int }

let spread xs =
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  let p = Rlist_obs.Metrics.interpolate sorted in
  { median = p 50.0; q1 = p 25.0; q3 = p 75.0; n = Array.length xs }

(* A leg builds one fresh run and returns its drive, the only timed
   part, and a [finish] that checks and reads the run afterwards. *)
type 'a leg = unit -> (unit -> unit) * (unit -> 'a)

(* [measure ~reps legs] runs one untimed round of every leg (the
   warm-up, which pays for heap growth), then [reps] rounds that
   interleave the legs, so each leg gets a shot at every quiet window.
   Each timed drive starts from a compacted heap.  Per leg: the
   warm-up's [finish] result, the CPU-time spread, and the per-round
   times (round [r] of every leg ran back to back, so ratios of them
   pair up). *)
let measure ~reps legs =
  let run leg =
    let drive, finish = leg () in
    Gc.compact ();
    let t0 = cpu_s () in
    drive ();
    let dt = cpu_s () -. t0 in
    dt, finish ()
  in
  let legs = Array.of_list legs in
  let results = Array.map (fun leg -> snd (run leg)) legs in
  let times = Array.map (fun _ -> Array.make reps 0.0) legs in
  for r = 0 to reps - 1 do
    Array.iteri (fun i leg -> times.(i).(r) <- fst (run leg)) legs
  done;
  List.init (Array.length legs) (fun i -> results.(i), times.(i))

(* The timing fields of a row, in CPU seconds. *)
let timing_fields times =
  let s = spread times in
  Json.
    [ "cpu_s", Fixed (6, s.median); "cpu_s_q1", Fixed (6, s.q1);
      "cpu_s_q3", Fixed (6, s.q3); "reps", Int s.n ]

let ns_per_run results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some ols -> (
    match Analyze.OLS.estimates ols with
    | Some (est :: _) -> est
    | Some [] | None -> nan)

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns < 1e3 then Printf.sprintf "%8.1f ns" ns
  else if ns < 1e6 then Printf.sprintf "%8.2f us" (ns /. 1e3)
  else if ns < 1e9 then Printf.sprintf "%8.2f ms" (ns /. 1e6)
  else Printf.sprintf "%8.2f s " (ns /. 1e9)

(* [run tests] benchmarks the given bechamel tests and prints
   "name: time/run" lines, returning the raw estimates.  Test names are
   prefixed with "bench/" (the group name) in the result table. *)
let run ?(quota = 0.5) ?(quiet = false) tests =
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~stabilize:false ()
  in
  let grouped = Test.make_grouped ~name:"bench" tests in
  let raw = Benchmark.all cfg instances grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols (Instance.monotonic_clock) raw in
  if not quiet then
    Hashtbl.iter
      (fun name ols_result ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) ->
          Printf.printf "  %-42s %s/op\n" name (pretty_ns est)
        | Some [] | None -> Printf.printf "  %-42s (no estimate)\n" name)
      results;
  results

(* --- machine-readable output ------------------------------------------ *)

(* Write a BENCH_*.json file: the benchmark name (and, when given, the
   unit every row is measured in), then each named section as an array
   of one-line rows, in order.  The envelope breaks lines between rows;
   names and rows print through [Json]. *)
let write_sections ~path ~benchmark ?unit sections =
  let oc = open_out path in
  let str s = Json.to_string (Json.Str s) in
  let last i l = i = List.length l - 1 in
  let field key v = Printf.fprintf oc "  %s: %s,\n" (str key) (str v) in
  output_string oc "{\n";
  field "benchmark" benchmark;
  Option.iter (field "unit") unit;
  List.iteri
    (fun si (name, rows) ->
      Printf.fprintf oc "  %s: [\n" (str name);
      List.iteri
        (fun i row ->
          Printf.fprintf oc "    %s%s\n" (Json.to_string row)
            (if last i rows then "" else ","))
        rows;
      Printf.fprintf oc "  ]%s\n" (if last si sections then "" else ","))
    sections;
  output_string oc "}\n";
  close_out oc
