(* A small wrapper around bechamel: run each test, OLS-fit the
   monotonic clock against the run count, and print one line per test.
   Plain-text output so the harness works in pipes and CI logs.

   [run] also returns the raw estimates so callers (the document
   scaling family, the JSON emitter) can post-process them. *)

open Bechamel
open Toolkit
module Json = Rlist_obs.Json

(* --- monotonic wall clock --------------------------------------------- *)

(* [Sys.time] measures CPU seconds; the C-section timings and the
   observability histograms both want wall-clock nanoseconds from the
   same monotonic source bechamel samples. *)
let now_ns () = Monotonic_clock.get ()

let now_s () = now_ns () /. 1e9

(* Point the metrics-layer timers at the real clock (the library's
   dependency-free default is a CPU-time fallback). *)
let install_metrics_clock () = Rlist_obs.Metrics.set_clock now_ns

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
