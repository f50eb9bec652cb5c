(* The benchmark harness: regenerates every paper figure (F-sections),
   measures every quantitative claim (C-sections), and micro-benchmarks
   the protocols with bechamel (C4).  EXPERIMENTS.md records a
   reference run of this executable.

   Run with: dune exec bench/main.exe
   Pass --quick to skip the (slower) bechamel micro-benchmarks.
   Pass --json to also write the document-scaling results to
   BENCH_document.json (machine-readable, tracked across PRs).
   Pass --smoke to run only a ~1-second-quota document-scaling smoke
   bench (the @bench-smoke dune alias).
   Pass --mc to run only the C14 model-checking family (regenerates
   BENCH_mc.json with --json at the full state budget).
   Pass --net to run only the C15 unreliable-network family
   (regenerates BENCH_net.json with --json).
   Pass --batch to run only the C16 batching family
   (regenerates BENCH_batch.json with --json; the smoke bench always
   emits it).
   Pass --trace to run only the C17 flight-recorder family
   (regenerates BENCH_trace.json with --json; carries the < 5%
   recorder-overhead acceptance number and the convergence-lag
   percentiles per loss rate).
   Pass --longrun to run only the C18 continuous-GC soak family
   (regenerates BENCH_longrun.json with --json at the full
   million-op-per-profile horizon — expect it to run for a while). *)

open Rlist_model
open Bechamel

(* Primitive-operation micro-benchmarks. *)
let xform_bench =
  let doc = Document.of_string "abcdefgh" in
  let o1 =
    let id = Rlist_model.Op_id.make ~client:1 ~seq:1 in
    Rlist_ot.Op.make_ins ~id (Element.make ~value:'x' ~id) 3
  in
  let o2 =
    Rlist_ot.Op.make_del
      ~id:(Rlist_model.Op_id.make ~client:2 ~seq:1)
      (Document.nth doc 5) 5
  in
  fun () -> ignore (Rlist_ot.Transform.xform_pair o1 o2)

let weak_check_bench =
  (* Fixed 40-update trace, checked per run. *)
  let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
  let t = E.create ~nclients:4 () in
  let rng = Random.State.make [| 99 |] in
  ignore
    (E.run_random t ~rng
       ~params:{ Rlist_sim.Schedule.default_params with updates = 40 });
  let trace = E.trace t in
  fun () -> ignore (Rlist_spec.Weak_spec.check trace)

let micro_benchmarks () =
  Printf.printf "\n=== C4: bechamel micro-benchmarks ===\n";
  Printf.printf
    "  (one Test.make per measured quantity; times are per operation)\n";
  (* Whole-session runs: one fixed 50-update 4-client session per run,
     per protocol; the css session also with the observability layer
     attached (compare against css/session-50ops-4clients for the
     overhead). *)
  let session name p ~obs =
    let run = Experiments.session p ~obs ~updates:50 in
    Test.make ~name (Staged.stage (fun () -> ignore (run ())))
  in
  ignore
    (Harness.run
       [
         Test.make ~name:"ot/xform_pair" (Staged.stage xform_bench);
         session "css/session-50ops-4clients" (module Jupiter_css.Protocol)
           ~obs:`Bare;
         session "css/session-50ops-metrics" (module Jupiter_css.Protocol)
           ~obs:`Metrics;
         session "css/session-50ops-traced" (module Jupiter_css.Protocol)
           ~obs:`Traced;
         session "cscw/session-50ops-4clients" (module Jupiter_cscw.Protocol)
           ~obs:`Bare;
         session "rga/session-50ops-4clients" (module Jupiter_rga.Protocol)
           ~obs:`Bare;
         Test.make ~name:"spec/weak-check-40ops"
           (Staged.stage weak_check_bench);
       ])

let () =
  let flag f = Array.exists (fun a -> a = f) Sys.argv in
  let quick = flag "--quick" in
  let json = flag "--json" in
  let smoke = flag "--smoke" in
  let json_path = if json then Some "BENCH_document.json" else None in
  let obs_json_path = if json then Some "BENCH_obs.json" else None in
  let mc_json_path = if json then Some "BENCH_mc.json" else None in
  let net_json_path = if json then Some "BENCH_net.json" else None in
  let batch_json_path = if json then Some "BENCH_batch.json" else None in
  let trace_json_path = if json then Some "BENCH_trace.json" else None in
  let longrun_json_path = if json then Some "BENCH_longrun.json" else None in
  Harness.install_metrics_clock ();
  if flag "--mc" then
    Experiments.c14_model_checking ?json_path:mc_json_path ()
  else if flag "--net" then
    Experiments.c15_network ?json_path:net_json_path ()
  else if flag "--batch" then
    Experiments.c16_batching ?json_path:batch_json_path ()
  else if flag "--trace" then
    Experiments.c17_trace ?json_path:trace_json_path ()
  else if flag "--longrun" then
    (* --longrun --smoke runs the same family and gates at CI horizons
       (the longrun CI job uses it to regenerate the artifact). *)
    ignore (Experiments.c18_longrun ?json_path:longrun_json_path ~smoke ())
  else if smoke then begin
    (* Tiny quota, small sizes: catches document-layer regressions and
       crashes in seconds, without a full bench run.  The observability
       counters are deterministic and cheap, so the canary always
       cross-checks them too. *)
    print_endline "document-scaling smoke bench (~1s quota)";
    ignore
      (Experiments.document_scaling ~sizes:[ 100; 1_000 ] ~quota:0.05
         ~replay_ops:500 ~engine_updates:50 ?json_path ());
    Experiments.c13_observability ?json_path:obs_json_path ();
    Experiments.c14_model_checking ?json_path:mc_json_path ~smoke:true ();
    Experiments.c15_network ?json_path:net_json_path ~smoke:true ();
    (* Always emitted in smoke: BENCH_batch.json carries the C16
       batched-vs-unbatched throughput numbers. *)
    Experiments.c16_batching ~json_path:"BENCH_batch.json" ~smoke:true ();
    (* Also always emitted: BENCH_trace.json carries the C17 recorder
       overhead acceptance number and the convergence-lag percentiles. *)
    Experiments.c17_trace ~json_path:"BENCH_trace.json" ~smoke:true ();
    (* And the C18 soak, at CI horizons: the flatness gates and the
       GC-on/GC-off digest equality run on every smoke pass, and the
       emitted BENCH_longrun.json is the artifact the longrun CI job
       uploads. *)
    ignore
      (Experiments.c18_longrun ~json_path:"BENCH_longrun.json" ~smoke:true ())
  end
  else begin
    print_endline
      "Jupiter Protocol Revisited — benchmark & figure-regeneration harness";
    print_endline
      "(paper: Wei, Huang, Lu — PODC'18 / arXiv:1708.04754; see EXPERIMENTS.md)";
    Experiments.figures ();
    Experiments.claims ();
    Experiments.c13_observability ?json_path:obs_json_path ();
    Experiments.c14_model_checking ?json_path:mc_json_path ();
    Experiments.c15_network ?json_path:net_json_path ();
    Experiments.c16_batching ?json_path:batch_json_path ();
    Experiments.c17_trace ?json_path:trace_json_path ();
    (* The full C18 soak (a million ops per profile) dwarfs the rest of
       the harness; regenerate BENCH_longrun.json with --longrun --json
       instead.  The full run still smoke-checks the family. *)
    ignore (Experiments.c18_longrun ?json_path:longrun_json_path ~smoke:true ());
    if not quick then micro_benchmarks ();
    ignore (Experiments.document_scaling ?json_path ())
  end;
  print_endline "\ndone."
