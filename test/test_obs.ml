(* Tests for the observability layer: the metrics registry's counter /
   histogram / percentile arithmetic, the trace sink, the differential
   check that traced transform counts on figure2 reproduce the paper's
   worked CSS schedule (Figures 2 and 4), and that an engine without a
   trace sink behaves byte-identically to an uninstrumented one. *)

open Rlist_model
module Metrics = Rlist_obs.Metrics
module Obs = Rlist_obs.Obs
module Sink = Rlist_obs.Sink
module Event = Rlist_obs.Event
module Css = Rlist_sim.Engine.Make (Jupiter_css.Protocol)

(* --- metrics arithmetic ------------------------------------------------ *)

let test_counters () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.b" in
  Metrics.incr c;
  Metrics.incr c;
  Metrics.add c 40;
  Alcotest.(check int) "value" 42 (Metrics.counter_value c);
  Alcotest.(check int) "by name" 42 (Metrics.counter_of m "a.b");
  Alcotest.(check int) "untouched name" 0 (Metrics.counter_of m "nope");
  let c' = Metrics.counter m "a.b" in
  Metrics.incr c';
  Alcotest.(check int) "same cell on re-lookup" 43 (Metrics.counter_value c)

let test_gauge () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "g" in
  Metrics.set_gauge g 1.5;
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.0)) "last write wins" 2.5 (Metrics.gauge_value g)

let test_histogram_basics () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  Alcotest.(check int) "empty count" 0 (Metrics.hist_count h);
  Alcotest.(check bool) "empty mean is nan" true
    (Float.is_nan (Metrics.hist_mean h));
  Alcotest.(check bool) "empty percentile is nan" true
    (Float.is_nan (Metrics.percentile h 50.0));
  List.iter (fun v -> Metrics.observe h v) [ 30.0; 10.0; 40.0; 20.0 ];
  Alcotest.(check int) "count" 4 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "sum" 100.0 (Metrics.hist_sum h);
  Alcotest.(check (float 1e-9)) "mean" 25.0 (Metrics.hist_mean h);
  Alcotest.(check (float 1e-9)) "min" 10.0 (Metrics.hist_min h);
  Alcotest.(check (float 1e-9)) "max" 40.0 (Metrics.hist_max h)

let test_percentiles () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "h" in
  List.iter (fun v -> Metrics.observe h v) [ 30.0; 10.0; 40.0; 20.0 ];
  (* Linear interpolation between closest ranks over [0, len-1]:
     rank(p) = p/100 * 3 on the sorted [10;20;30;40]. *)
  Alcotest.(check (float 1e-9)) "p0 = min" 10.0 (Metrics.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100 = max" 40.0 (Metrics.percentile h 100.0);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 25.0
    (Metrics.percentile h 50.0);
  Alcotest.(check (float 1e-9)) "p90 interpolates" 37.0
    (Metrics.percentile h 90.0);
  Alcotest.(check bool) "out of range rejected" true
    (try
       ignore (Metrics.percentile h 101.0);
       false
     with Invalid_argument _ -> true);
  (* Growth across the initial capacity keeps every observation. *)
  let big = Metrics.histogram m "big" in
  for i = 1 to 1000 do
    Metrics.observe big (float_of_int i)
  done;
  Alcotest.(check int) "1000 observations" 1000 (Metrics.hist_count big);
  Alcotest.(check (float 1e-9)) "median of 1..1000" 500.5
    (Metrics.percentile big 50.0)

let test_timer_uses_installed_clock () =
  let m = Metrics.create () in
  let h = Metrics.histogram m "t" in
  (* A deterministic fake clock: every reading advances 7 ns. *)
  let ticks = ref 0.0 in
  Metrics.set_clock (fun () ->
      ticks := !ticks +. 7.0;
      !ticks);
  let result = Metrics.time h (fun () -> "done") in
  (* Restore a counting clock equivalent to the default fallback. *)
  let reset = ref 0.0 in
  Metrics.set_clock (fun () ->
      reset := !reset +. 1.0;
      !reset);
  Alcotest.(check string) "thunk result passes through" "done" result;
  Alcotest.(check int) "one span recorded" 1 (Metrics.hist_count h);
  Alcotest.(check (float 1e-9)) "span is one clock step" 7.0
    (Metrics.hist_max h)

let test_ot_observer_hook () =
  (* The per-space growth observer is the per-instance replacement for
     the old process-global transform tap: after every [add_op] it
     reports the primitive transformation calls that operation caused,
     so a metrics counter plugged in here aggregates exactly this
     space's own [ot_count] — and nothing from any other space. *)
  let m = Metrics.create () in
  let c = Metrics.counter m "ot.primitive_calls" in
  let serials : (Op_id.t, int) Hashtbl.t = Hashtbl.create 8 in
  let key id =
    match Hashtbl.find_opt serials id with
    | Some s -> Jupiter_css.Order_key.Serialized s
    | None -> Jupiter_css.Order_key.Pending id.Op_id.seq
  in
  let space = Jupiter_css.State_space.create ~key_of:key () in
  Jupiter_css.State_space.set_observer space
    (fun ~level:_ ~states:_ ~transitions:_ ~ots -> Metrics.add c ots);
  let o1 = Helpers.ins ~client:1 ~seq:1 'x' 0 in
  let o2 = Helpers.ins ~client:2 ~seq:1 'y' 0 in
  Hashtbl.replace serials o1.Rlist_ot.Op.id 0;
  Hashtbl.replace serials o2.Rlist_ot.Op.id 1;
  let add o =
    ignore
      (Jupiter_css.State_space.add_op space
         (Rlist_ot.Context.with_context o ~ctx:Rlist_ot.Context.empty))
  in
  add o1;
  add o2;
  Alcotest.(check bool) "concurrent pair transforms" true
    (Jupiter_css.State_space.ot_count space > 0);
  Alcotest.(check int) "observer sees exactly the space's OT count"
    (Jupiter_css.State_space.ot_count space)
    (Metrics.counter_value c)

(* --- sink and events --------------------------------------------------- *)

let test_memory_sink () =
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  Alcotest.(check bool) "memory sink traces" true (Obs.tracing obs);
  Obs.emit obs
    (Event.Generate
       { replica = "c1"; op_id = Some "1.1"; intent = "ins"; queue = 0;
         tick = 0 });
  Obs.emit obs
    (Event.Deliver
       { replica = "server"; src = "c1"; op_id = Some "1.1"; transforms = 3;
         queue = 0; tick = 0 });
  Obs.emit obs
    (Event.Deliver
       { replica = "c2"; src = "server"; op_id = Some "1.1"; transforms = 2;
         queue = 0; tick = 0 });
  let events = Sink.events sink in
  Alcotest.(check int) "three events" 3 (List.length events);
  Alcotest.(check int) "kind count" 2 (Obs.count_kind events "deliver");
  Alcotest.(check int) "transform sum" 5 (Obs.sum_deliver_transforms events);
  let contains line needle =
    let n = String.length needle and l = String.length line in
    let rec go i = i + n <= l && (String.sub line i n = needle || go (i + 1)) in
    go 0
  in
  let line = Event.to_jsonl ~seq:0 (List.hd events) in
  Alcotest.(check bool) "jsonl has type tag" true
    (contains line "\"type\": \"generate\"")

let test_null_sink_disabled () =
  let obs = Obs.make () in
  Alcotest.(check bool) "null sink does not trace" false (Obs.tracing obs);
  Obs.emit obs (Event.Span { name = "x"; dur_ns = 1.0 });
  Alcotest.(check int) "nothing recorded" 0 (Sink.count obs.Obs.sink)

(* --- differential: figure2 reproduces the paper's worked schedule ------ *)

let run_figure2_traced () =
  let s = Rlist_sim.Figures.figure2 in
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  let t = Css.create ~initial:s.initial ~nclients:s.nclients () in
  Css.attach_obs t obs;
  let wire name set =
    set (fun ~level ~states ~transitions ~ots:_ ->
        if Obs.tracing obs then
          Obs.emit obs
            (Event.State_space_grow { replica = name; level; states; transitions }))
  in
  wire "server" (Jupiter_css.Protocol.server_set_space_observer (Css.server t));
  for i = 1 to s.nclients do
    wire
      ("c" ^ string_of_int i)
      (Jupiter_css.Protocol.client_set_space_observer (Css.client t i))
  done;
  Css.run t s.schedule;
  t, obs, Sink.events sink

let test_figure2_transform_counts () =
  let t, obs, events = run_figure2_traced () in
  (* The paper's Figure 4 walkthrough: serialized o1 => o2 => o3, the
     server transforms o1 against nothing, o2 against o1's ladder
     (2 primitive calls), o3 against both (4 calls): 6 total.  Every
     client performs the mirror-image work on the two foreign
     operations, so the system performs 24 primitive transformations. *)
  Alcotest.(check int) "server performs 6 transforms" 6
    (Css.server_ot_count t);
  Alcotest.(check int) "system performs 24 transforms" 24
    (Css.total_ot_count t);
  Alcotest.(check int) "traced deliver transforms account for all" 24
    (Obs.sum_deliver_transforms events);
  Alcotest.(check int) "metrics counter agrees" 24
    (Metrics.counter_of obs.Obs.metrics "engine.transforms")

let test_figure2_event_counts () =
  let t, obs, events = run_figure2_traced () in
  ignore t;
  Alcotest.(check int) "3 updates generated" 3
    (Metrics.counter_of obs.Obs.metrics "engine.updates_generated");
  Alcotest.(check int) "3 final reads" 3
    (Metrics.counter_of obs.Obs.metrics "engine.reads_generated");
  Alcotest.(check int) "3 c2s messages" 3
    (Metrics.counter_of obs.Obs.metrics "engine.msgs_c2s_sent");
  Alcotest.(check int) "9 s2c messages (3 ops x 3 clients)" 9
    (Metrics.counter_of obs.Obs.metrics "engine.msgs_s2c_sent");
  Alcotest.(check int) "12 deliveries traced" 12
    (Obs.count_kind events "deliver");
  Alcotest.(check int) "6 generates traced" 6
    (Obs.count_kind events "generate");
  (* Each of the 4 replicas grows its space through levels 1..3. *)
  Alcotest.(check int) "12 state-space growth steps" 12
    (Obs.count_kind events "state_space_grow")

let test_figure2_space_matches_stats () =
  let t, _obs, _events = run_figure2_traced () in
  let space = Jupiter_css.Protocol.server_space (Css.server t) in
  let st = Jupiter_css.Analysis.stats space in
  (* Figure 4: states {0,1,12,13,123,2,3}, no {23}. *)
  Alcotest.(check int) "7 states" 7 st.states;
  Alcotest.(check int) "9 transitions" 9 st.transitions;
  Alcotest.(check int) "depth 3" 3 st.depth;
  Alcotest.(check int)
    "O(1) transition count equals stats" st.transitions
    (Jupiter_css.State_space.num_transitions space)

(* --- the no-op configuration changes nothing --------------------------- *)

let behaviour_fingerprint t =
  List.map
    (fun (r, d) -> Format.asprintf "%a" Replica_id.pp r, Document.to_string d)
    (Css.behavior t)

let test_noop_obs_is_transparent () =
  let run ~instrument =
    let t = Css.create ~nclients:4 () in
    if instrument then Css.attach_obs t (Obs.make ());
    let rng = Random.State.make [| 77 |] in
    let schedule =
      Css.run_random t ~rng
        ~params:{ Rlist_sim.Schedule.default_params with updates = 60 }
    in
    t, schedule
  in
  let plain, sched_plain = run ~instrument:false in
  let instrumented, sched_obs = run ~instrument:true in
  Alcotest.(check int) "same schedule length" (List.length sched_plain)
    (List.length sched_obs);
  Alcotest.(check (list (pair string string)))
    "byte-identical behaviours"
    (behaviour_fingerprint plain)
    (behaviour_fingerprint instrumented);
  Alcotest.(check string) "same final document"
    (Document.to_string (Css.server_document plain))
    (Document.to_string (Css.server_document instrumented));
  Alcotest.(check int) "same transform count" (Css.total_ot_count plain)
    (Css.total_ot_count instrumented);
  (* ...and the metrics were still collected. *)
  match Css.obs instrumented with
  | None -> Alcotest.fail "obs not attached"
  | Some obs ->
    Alcotest.(check int) "updates counted" 60
      (Metrics.counter_of obs.Obs.metrics "engine.updates_generated")

let test_timed_driver_latency_histogram () =
  let obs = Obs.make () in
  let t = Css.create ~nclients:3 () in
  Css.attach_obs t obs;
  let rng = Random.State.make [| 9 |] in
  ignore
    (Css.run_timed t ~rng
       ~params:{ Rlist_sim.Schedule.default_timed_params with t_updates = 20 });
  let m = obs.Obs.metrics in
  match
    Metrics.fold m ~init:None ~f:(fun acc name metric ->
        if name = "engine.virtual_latency" then Some metric else acc)
  with
  | Some (Metrics.Histogram h) ->
    (* one latency sample per scheduled message arrival *)
    Alcotest.(check bool) "latency samples recorded" true
      (Metrics.hist_count h > 0);
    Alcotest.(check bool) "latencies positive" true (Metrics.hist_min h > 0.0)
  | _ -> Alcotest.fail "virtual-latency histogram missing"

(* An injected control message takes the engine's one send path: it is
   counted and traced like any other message, batched or not. *)
let test_injected_heartbeat_observed () =
  let module E = Rlist_sim.Engine.Make (Jupiter_css.Pruned_protocol) in
  List.iter
    (fun batching ->
      let sink = Sink.memory () in
      let obs = Obs.make ~sink () in
      let t = E.create ~batching ~nclients:2 () in
      E.attach_obs t obs;
      E.inject_c2s t 1
        (Jupiter_css.Pruned_protocol.client_heartbeat (E.client t 1));
      ignore (E.quiesce t);
      let mode = if batching then "batched" else "unbatched" in
      Alcotest.(check int)
        (mode ^ ": one c2s message counted") 1
        (Metrics.counter_of obs.Obs.metrics "engine.msgs_c2s_sent");
      Alcotest.(check int)
        (mode ^ ": one c1->server send traced") 1
        (List.length
           (List.filter
              (function
                | Event.Send { src = "c1"; dst = "server"; _ } -> true
                | _ -> false)
              (Sink.events sink))))
    [ false; true ]

(* --- p2p engine -------------------------------------------------------- *)

let test_p2p_counters_consistent () =
  let module E = Rlist_sim.P2p_engine.Make (Jupiter_css.Distributed_protocol) in
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  let t = E.create ~npeers:3 () in
  E.attach_obs t obs;
  let rng = Random.State.make [| 5 |] in
  ignore
    (E.run_random t ~rng
       ~params:{ Rlist_sim.Schedule.default_params with updates = 30 });
  let m = obs.Obs.metrics in
  Alcotest.(check bool) "deliveries happened" true
    (Metrics.counter_of m "p2p.deliveries" > 0);
  Alcotest.(check int) "counted transforms equal the protocols' total"
    (E.total_ot_count t)
    (Metrics.counter_of m "p2p.transforms");
  Alcotest.(check int) "traced deliver transforms match deliveries' share"
    (Obs.sum_deliver_transforms (Sink.events sink))
    (Metrics.counter_of m "p2p.transforms")

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "gauge" `Quick test_gauge;
          Alcotest.test_case "histogram basics" `Quick test_histogram_basics;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "timer" `Quick test_timer_uses_installed_clock;
          Alcotest.test_case "ot primitive-call hook" `Quick
            test_ot_observer_hook;
        ] );
      ( "sink",
        [
          Alcotest.test_case "memory sink" `Quick test_memory_sink;
          Alcotest.test_case "null sink" `Quick test_null_sink_disabled;
        ] );
      ( "figure2 differential",
        [
          Alcotest.test_case "transform counts" `Quick
            test_figure2_transform_counts;
          Alcotest.test_case "event counts" `Quick test_figure2_event_counts;
          Alcotest.test_case "space stats" `Quick
            test_figure2_space_matches_stats;
        ] );
      ( "transparency",
        [
          Alcotest.test_case "no-op obs is transparent" `Quick
            test_noop_obs_is_transparent;
          Alcotest.test_case "timed driver fills latency histogram" `Quick
            test_timed_driver_latency_histogram;
          Alcotest.test_case "injected heartbeat is observed" `Quick
            test_injected_heartbeat_observed;
        ] );
      ( "p2p",
        [
          Alcotest.test_case "p2p counters consistent" `Quick
            test_p2p_counters_consistent;
        ] );
    ]
