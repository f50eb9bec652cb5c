(* Deterministic replay of flight recordings (lib/run + lib/obs).

   The acceptance bar: dumping a faulty chaos soak and re-executing it
   from the recording header reproduces the original run bit for bit —
   same final documents on every replica, same verdicts and network
   counters (the digest), and the same decision stream in the ring.
   Also covered: the recorder's binary dump format round-trips, the
   header encodes the full spec, traces are reproducible event for
   event, the engine schedule extracted from a recording replays on
   perfect channels, and — the batching audit — batched and unbatched
   runs emit the same per-operation event multisets once batch
   membership is unfolded. *)

open Rlist_model
module Recorded = Rlist_run.Recorded
module Recorder = Rlist_obs.Recorder
module Obs = Rlist_obs.Obs
module Sink = Rlist_obs.Sink
module Event = Rlist_obs.Event
module Spans = Rlist_obs.Spans

let chaos =
  match Rlist_net.Faults.of_string "chaos" with
  | Ok f -> f
  | Error msg -> failwith msg

let chaos_spec =
  {
    (Recorded.default ~protocol:"css") with
    Recorded.faults = chaos;
    nclients = 3;
    updates = 60;
    seed = 7;
  }

let verdict_ok what (v : Recorded.verdict) =
  Alcotest.(check (list (triple string string string)))
    (what ^ ": no digest mismatches") [] v.Recorded.v_mismatches;
  (match v.Recorded.v_divergence with
  | None -> ()
  | Some (i, expected, got) ->
    Alcotest.failf "%s: decision %d diverged: expected %S, got %S" what i
      expected got);
  Alcotest.(check int)
    (what ^ ": same decision totals")
    v.Recorded.v_total_expected v.Recorded.v_total_got;
  Alcotest.(check bool) (what ^ ": verdict ok") true v.Recorded.v_ok

let record_and_verify what spec =
  let outcome, recorder = Recorded.record spec in
  let path = Filename.temp_file "jupiter" ".jfr" in
  Recorded.save ~spec (Ok outcome) recorder path;
  let recording = Recorder.load path in
  Sys.remove path;
  let header_spec = Helpers.ok (Recorded.spec_of_header recording.header) in
  let v = Recorded.verify header_spec recording in
  verdict_ok what v;
  Alcotest.(check (list (pair string string)))
    (what ^ ": final documents identical")
    outcome.Recorded.o_finals v.Recorded.v_outcome.Recorded.o_finals;
  outcome, recording

(* The acceptance-criteria run: a chaotic soak, dumped and replayed
   bit-identically. *)
let test_chaos_soak_replays () = ignore (record_and_verify "css" chaos_spec)

let test_batched_replays () =
  ignore
    (record_and_verify "css batched"
       { chaos_spec with Recorded.batching = true; seed = 3 })

(* The GC satellite: a pruning-protocol chaos soak with continuous
   compaction on dumps a recording that replays bit-identically, the
   GC cycle decisions land in the ring, and the span report
   attributes the reclaimed metadata. *)
let gc_policy =
  match Rlist_gc.of_string "ops=16,retain=32,snap=2" with
  | Ok p -> p
  | Error msg -> failwith msg

let gc_spec =
  {
    (Recorded.default ~protocol:"css-pruned") with
    Recorded.faults = chaos;
    nclients = 3;
    updates = 80;
    seed = 11;
    gc = Some gc_policy;
  }

let test_gc_soak_replays () =
  let _, recording = record_and_verify "css-pruned gc" gc_spec in
  let gc_decisions =
    List.filter
      (function Recorder.Gc _ -> true | _ -> false)
      recording.Recorder.r_window
  in
  Alcotest.(check bool)
    "GC cycles landed in the decision ring" true (gc_decisions <> [])

let test_gc_report_attributes_reclaimed () =
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  ignore (Recorded.run ~obs gc_spec);
  let summary = Spans.summarize (Sink.events sink) in
  Alcotest.(check bool)
    "span summary counts GC cycles" true
    (summary.Spans.su_gc_cycles > 0);
  Alcotest.(check bool)
    "span summary attributes reclaimed metadata" true
    (summary.Spans.su_gc_reclaimed > 0)

let test_p2p_replays () =
  ignore
    (record_and_verify "ttf"
       {
         (Recorded.default ~protocol:"ttf") with
         Recorded.faults = chaos;
         nclients = 3;
         updates = 30;
         seed = 2;
       })

let test_header_round_trips () =
  let spec =
    {
      Recorded.protocol = "treedoc";
      profile = Rlist_workload.Workload.Typing;
      nclients = 5;
      updates = 123;
      seed = 99;
      faults = chaos;
      shim = true;
      rto = 20;
      batching = true;
      fastpath = true;
      gc = Some { Rlist_gc.default with Rlist_gc.snapshot_every = 2 };
    }
  in
  match Recorded.spec_of_header (Recorded.header_of spec) with
  | Error msg -> Alcotest.fail msg
  | Ok spec' ->
    Alcotest.(check string)
      "faults survive" spec'.Recorded.protocol spec.Recorded.protocol;
    Alcotest.(check bool)
      "whole spec survives" true
      (Recorded.header_of spec = Recorded.header_of spec')

let test_recording_file_round_trips () =
  let outcome, recorder = Recorded.record chaos_spec in
  let path = Filename.temp_file "jupiter" ".jfr" in
  Recorded.save ~spec:chaos_spec (Ok outcome) recorder path;
  Alcotest.(check bool) "magic detected" true (Recorder.is_recording path);
  let r = Recorder.load path in
  Sys.remove path;
  Alcotest.(check int)
    "all decisions stored"
    (Recorder.total recorder)
    r.Recorder.r_total;
  Alcotest.(check (list string))
    "decision window survives the binary format"
    (List.map Recorder.decision_to_string (Recorder.window recorder))
    (List.map Recorder.decision_to_string r.Recorder.r_window)

(* Same spec, two fresh runs with the tracer on: the JSONL event
   streams must be identical line for line (this is what makes
   `replay --trace` reproducible evidence). *)
let trace_of spec =
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  ignore (Recorded.run ~obs spec);
  List.mapi (fun i e -> Event.to_jsonl ~seq:i e) (Sink.events sink)

let test_traces_reproducible () =
  Alcotest.(check (list string))
    "two runs of one spec emit identical traces" (trace_of chaos_spec)
    (trace_of chaos_spec)

(* The ring wraps: only the newest [capacity] decisions survive, and
   [total] keeps counting. *)
let test_ring_wraps () =
  let r = Recorder.create ~capacity:4 () in
  for i = 1 to 10 do
    Recorder.record r (Recorder.Tick i)
  done;
  Alcotest.(check int) "total counts everything" 10 (Recorder.total r);
  Alcotest.(check bool) "wrapped" true (Recorder.wrapped r);
  Alcotest.(check (list string))
    "window keeps the newest, oldest first"
    [ "tick 7"; "tick 8"; "tick 9"; "tick 10" ]
    (List.map Recorder.decision_to_string (Recorder.window r))

(* Extract the engine schedule from a recording and replay it on
   perfect channels: the feasible prefix the engine executed is a real
   schedule, so the correct protocol must still converge under it. *)
let test_schedule_extraction () =
  let _, recording = record_and_verify "for extraction" chaos_spec in
  match Recorded.schedule_of_recording recording with
  | Error msg -> Alcotest.fail msg
  | Ok schedule ->
    let generates =
      List.length
        (List.filter
           (function Rlist_sim.Schedule.Generate _ -> true | _ -> false)
           schedule)
    in
    Alcotest.(check bool)
      "extracted schedule carries the generates" true
      (generates >= chaos_spec.Recorded.updates);
    let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
    let t = E.create ~nclients:chaos_spec.Recorded.nclients () in
    E.run t schedule;
    ignore (E.quiesce t);
    Alcotest.(check bool)
      "replaying it on perfect channels converges" true (E.converged t)

(* --- the batching audit (attach_obs coverage of batched paths) ------- *)

module Css_engine = Rlist_sim.Engine.Make (Jupiter_css.Protocol)
module Sched = Rlist_sim.Schedule

(* Per-operation event multiset: one (kind, replica-or-channel, op)
   entry per member operation, batch ids unfolded at '+'. *)
let per_op_multiset events =
  List.concat_map
    (fun e ->
      match Event.op_id e with
      | None -> []
      | Some joined ->
        List.map
          (fun op -> Event.kind e, op)
          (String.split_on_char '+' joined))
    events
  |> List.sort compare

let run_mode ~batching =
  let cfg =
    Rlist_net.Transport.config ~faults:Rlist_net.Faults.none ~seed:5 ()
  in
  let t = Css_engine.create ~net:cfg ~batching ~nclients:2 () in
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  Css_engine.attach_obs t obs;
  List.iter (Css_engine.apply_event t)
    [
      Sched.Generate (1, Intent.Insert ('a', 0));
      Sched.Generate (1, Intent.Insert ('b', 1));
      Sched.Generate (2, Intent.Insert ('c', 0));
      Sched.Generate (2, Intent.Insert ('d', 1));
    ];
  ignore (Css_engine.quiesce t);
  Alcotest.(check bool) "mode converges" true (Css_engine.converged t);
  Document.to_string (Css_engine.server_document t), Sink.events sink

let test_batched_events_cover_every_op () =
  let doc_plain, plain = run_mode ~batching:false in
  let doc_batched, batched = run_mode ~batching:true in
  Alcotest.(check string) "same final document" doc_plain doc_batched;
  (* Every operation shows up in the same per-op event multiset
     whether it travelled alone or inside a batch: if a batched code
     path skipped an emission (or dropped the joined op ids), the
     multisets would differ. *)
  Alcotest.(check (list (pair string string)))
    "same per-op generate/send/deliver/apply multiset"
    (per_op_multiset plain) (per_op_multiset batched);
  (* And the span builder agrees: every batched op has a complete
     lifecycle (generated, sent, applied at both replicas). *)
  let summary = Spans.summarize batched in
  Alcotest.(check int) "4 ops spanned" 4 summary.Spans.su_ops;
  Alcotest.(check int) "no incomplete spans" 0 summary.Spans.su_incomplete

(* The protocol registry is the one name table: its keys are unique, a
   recording header accepts exactly them, and every correct protocol
   passes the soak gate under the default spec. *)
let test_registry () =
  let keys = Rlist_run.Protocols.keys in
  Alcotest.(check int)
    "keys are unique" (List.length keys)
    (List.length (List.sort_uniq String.compare keys));
  let accepted p = Result.is_ok (Recorded.spec_of_header [ "protocol", p ]) in
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " accepted") true (accepted k))
    keys;
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " rejected") false (accepted k))
    [ ""; "CSS"; "css "; "p2p"; "nope" ];
  List.iter
    (fun k ->
      if not (String.equal k "naive") then
        Alcotest.(check bool)
          (k ^ " passes the gate") true
          (Recorded.passed (Recorded.run (Recorded.default ~protocol:k))))
    keys

let () =
  Alcotest.run "replay"
    [
      ( "determinism",
        [
          Alcotest.test_case "chaos soak replays bit-identically" `Quick
            test_chaos_soak_replays;
          Alcotest.test_case "batched soak replays" `Quick
            test_batched_replays;
          Alcotest.test_case "gc soak replays bit-identically" `Quick
            test_gc_soak_replays;
          Alcotest.test_case "gc report attributes reclaimed metadata"
            `Quick test_gc_report_attributes_reclaimed;
          Alcotest.test_case "p2p soak replays" `Quick test_p2p_replays;
          Alcotest.test_case "traces reproducible" `Quick
            test_traces_reproducible;
        ] );
      ( "format",
        [
          Alcotest.test_case "header round-trips" `Quick
            test_header_round_trips;
          Alcotest.test_case "recording file round-trips" `Quick
            test_recording_file_round_trips;
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "registry keys" `Quick test_registry;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "schedule extraction replays" `Quick
            test_schedule_extraction;
        ] );
      ( "batching-audit",
        [
          Alcotest.test_case "batched paths cover every op" `Quick
            test_batched_events_cover_every_op;
        ] );
    ]
