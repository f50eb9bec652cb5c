(* Tests of the benchmark's own machinery: the percentile and self-time
   arithmetic, the transparency of the [Traced] wrapper, and the
   determinism of a workload given its seed. *)

module Bare = Workloads.Make (Jupiter_css.Protocol)
module Wrapped = Workloads.Make (Probe.Traced (Jupiter_css.Protocol))
module Bare_pruned = Workloads.Make (Jupiter_css.Pruned_protocol)
module Wrapped_pruned = Workloads.Make (Probe.Traced (Jupiter_css.Pruned_protocol))

let check_ints = Alcotest.(check int)

(* --- arithmetic ---------------------------------------------------------- *)

let test_percentile () =
  let a = Array.init 10 (fun i -> i + 1) in
  check_ints "p50 of 1..10" 5 (Probe.percentile a 0.5);
  check_ints "p99 of 1..10" 10 (Probe.percentile a 0.99);
  check_ints "p10 of 1..10" 1 (Probe.percentile a 0.1);
  check_ints "p0 is the minimum" 1 (Probe.percentile a 0.0);
  check_ints "p100 is the maximum" 10 (Probe.percentile a 1.0);
  check_ints "one sample" 7 (Probe.percentile [| 7 |] 0.99);
  let b = Array.init 1000 Fun.id in
  check_ints "p99 of 0..999" 989 (Probe.percentile b 0.99);
  Alcotest.check_raises "no samples" (Invalid_argument "percentile: no samples")
    (fun () -> ignore (Probe.percentile [||] 0.5))

let span ?(parent = -1) start stop =
  { Probe.kind = Probe.Create; start; stop; parent; ops = [] }

let test_self_times () =
  (* A parent with overlapping children and one that sticks out past the
     parent's end: the covered part is [10,50] and [90,100]. *)
  let spans =
    [| span 0 100; span ~parent:0 10 30; span ~parent:0 20 50;
       span ~parent:0 90 120; span 200 260; span ~parent:4 210 220;
       span ~parent:5 212 214 |]
  in
  let self = Probe.self_times spans in
  Alcotest.(check (array int)) "self times"
    [| 50; 20; 30; 30; 50; 8; 2 |] self;
  (* Without overlaps, the self times of a tree add up to its roots. *)
  let total = Array.fold_left ( + ) 0 (Array.sub self 4 3) in
  check_ints "self times sum to the root" 60 total

(* --- transparency -------------------------------------------------------- *)

let text = String.init (Workloads.nclients * Workloads.burst) (fun i ->
    Char.chr (97 + (i * 7 mod 26)))

let same what (a : Workloads.outcome) (b : Workloads.outcome) =
  Alcotest.(check (list string)) (what ^ ": documents") a.docs b.docs;
  Alcotest.(check (list (pair string int))) (what ^ ": counters") a.counters
    b.counters

let with_tracing on f =
  Probe.st.tracing <- on;
  Fun.protect ~finally:(fun () -> Probe.st.tracing <- false) f

(* The counters cover [Engine.total_ot_count], every [Fastpath] counter,
   every [Rlist_net.Stats] field and the GC statistics. *)
let test_transparent () =
  let bare = Bare.typing_episode text in
  List.iter
    (fun on ->
      same "typing-burst" bare (with_tracing on (fun () -> Wrapped.typing_episode text)))
    [ false; true ];
  let bare = Bare.hotspot_episode ~updates:40 ~seed:3 in
  List.iter
    (fun on ->
      same "hotspot-lossy" bare
        (with_tracing on (fun () -> Wrapped.hotspot_episode ~updates:40 ~seed:3)))
    [ false; true ];
  let bare = Bare_pruned.soak_episode ~chunks:3 ~chunk:300 ~seed:5 in
  List.iter
    (fun on ->
      same "soak-gc" bare
        (with_tracing on (fun () ->
             Wrapped_pruned.soak_episode ~chunks:3 ~chunk:300 ~seed:5)))
    [ false; true ];
  Alcotest.(check bool) "the GC ran" true
    (List.assoc "gc.cycles" bare.counters > 0)

(* --- what the wrapper counts -------------------------------------------- *)

let lags () = Probe.Vec.to_array Probe.st.lags

let test_integration_counts () =
  Probe.Vec.clear Probe.st.lags;
  let g0 = Probe.st.generated and i0 = Probe.st.integrated in
  let out = Wrapped.hotspot_episode ~updates:40 ~seed:3 in
  check_ints "every update generated" 40 (Probe.st.generated - g0);
  check_ints "every update integrated everywhere" 40 (Probe.st.integrated - i0);
  check_ints "nothing outstanding" 0 (Probe.outstanding ());
  check_ints "one lag per update" 40 (Array.length (lags ()));
  Alcotest.(check bool) "replicas converged" true (Workloads.converged out.docs);
  Alcotest.(check bool) "lags are positive" true
    (Array.for_all (fun l -> l >= 1) (lags ()));
  (* A perfect wire that never waits: every lag is the inclusive 1. *)
  Probe.Vec.clear Probe.st.lags;
  ignore (Wrapped.typing_episode text);
  Alcotest.(check bool) "typing-burst lags read 1" true
    (Array.for_all (fun l -> l = 1) (lags ()))

let test_schedule_replays () =
  Probe.st.log_schedule <- true;
  Probe.st.schedule <- [];
  let out =
    Fun.protect
      ~finally:(fun () -> Probe.st.log_schedule <- false)
      (fun () -> Wrapped.hotspot_episode ~updates:40 ~seed:9)
  in
  let schedule = List.rev Probe.st.schedule in
  Alcotest.(check (list string)) "the logged schedule replays on a perfect wire"
    out.docs (Bare.replay ~batching:false schedule)

(* --- determinism --------------------------------------------------------- *)

let run_hotspot seed =
  Probe.Vec.clear Probe.st.lags;
  let out = Wrapped.hotspot_episode ~updates:40 ~seed in
  (out, lags ())

let test_deterministic () =
  let a, la = run_hotspot 4 and b, lb = run_hotspot 4 in
  same "same seed" a b;
  Alcotest.(check (array int)) "same seed, same lags" la lb;
  let c, _ = run_hotspot 5 in
  Alcotest.(check bool) "another seed, other documents" false
    (List.equal String.equal a.docs c.docs)

let () =
  Alcotest.run "perfbench"
    [
      ( "arithmetic",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "span self time" `Quick test_self_times;
        ] );
      ( "traced",
        [
          Alcotest.test_case "wrapping changes no output" `Quick test_transparent;
          Alcotest.test_case "integration and lag counts" `Quick
            test_integration_counts;
          Alcotest.test_case "logged schedule replays" `Quick
            test_schedule_replays;
          Alcotest.test_case "a seed fixes every output" `Quick
            test_deterministic;
        ] );
    ]
