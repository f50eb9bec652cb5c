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

(* Recordings made while the append fast path existed carry a
   [fastpath] header key.  [false] reads as if it were absent; [true]
   is refused in one line, since a replay would not reproduce the
   recorded OT counts. *)
let test_fastpath_header () =
  let header = Recorded.header_of chaos_spec in
  let read key_value = Recorded.spec_of_header (header @ key_value) in
  Alcotest.(check bool)
    "fastpath false reads" true
    (Recorded.header_of (Helpers.ok (read [ "fastpath", "false" ])) = header);
  match read [ "fastpath", "true" ] with
  | Ok _ -> Alcotest.fail "fastpath true read"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "one-line header error: %S" msg)
      true
      (String.starts_with ~prefix:"recording header: " msg
      && not (String.contains msg '\n'))

(* Recordings made before the shim sent selective acks carry version
   1 (or no version at all).  With the shim off their wire decisions
   still replay; with it on they are refused in one line, since a
   replay would not reproduce their retransmissions. *)
let test_version1_shim_header () =
  let header = Recorded.header_of chaos_spec in
  let with_version v =
    List.filter_map
      (fun (k, x) ->
        if k <> "version" then Some (k, x)
        else Option.map (fun v -> k, v) v)
      header
  in
  let no_shim h =
    List.map (fun (k, x) -> if k = "shim" then k, "false" else k, x) h
  in
  Alcotest.(check (option string))
    "header_of writes version 2" (Some "2")
    (List.assoc_opt "version" header);
  List.iter
    (fun (what, v) ->
      (match Recorded.spec_of_header (with_version v) with
      | Ok _ -> Alcotest.failf "%s, shim true: read" what
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: one-line header error: %S" what msg)
          true
          (String.starts_with ~prefix:"recording header: " msg
          && Helpers.contains msg "predates selective acks"
          && not (String.contains msg '\n')));
      Alcotest.(check bool)
        (what ^ ", shim false: reads")
        true
        (Result.is_ok (Recorded.spec_of_header (no_shim (with_version v)))))
    [ "version 1", Some "1"; "no version", None ]

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

(* --- the decision log against the boxed ring ------------------------- *)

(* A transcription of the recorder as it was before it kept decisions
   as their bytes: a ring of [capacity] boxed slots, allocated at the
   first decision, and an encoder that writes the window at dump time.
   It is the reference the chunked log must match on [total],
   [wrapped], [window] and every byte of [encode]. *)
module Ring = struct
  type t = {
    capacity : int;
    mutable buf : Recorder.decision option array;
    mutable head : int;
    mutable total : int;
  }

  let create capacity = { capacity; buf = [||]; head = 0; total = 0 }

  let record t d =
    if Array.length t.buf = 0 then t.buf <- Array.make t.capacity None;
    t.buf.(t.head) <- Some d;
    t.head <- (t.head + 1) mod t.capacity;
    t.total <- t.total + 1

  let wrapped t = t.total > t.capacity

  let window t =
    if t.total = 0 then []
    else begin
      let stored = min t.total t.capacity in
      let start = (t.head - stored + t.capacity) mod t.capacity in
      let out = ref [] in
      for i = stored - 1 downto 0 do
        match t.buf.((start + i) mod t.capacity) with
        | Some d -> out := d :: !out
        | None -> ()
      done;
      !out
    end

  let put_varint b n =
    let n = ref n in
    let continue = ref true in
    while !continue do
      let byte = !n land 0x7f in
      n := !n lsr 7;
      if !n = 0 then begin
        Buffer.add_char b (Char.chr byte);
        continue := false
      end
      else Buffer.add_char b (Char.chr (byte lor 0x80))
    done

  let put_string b s =
    put_varint b (String.length s);
    Buffer.add_string b s

  let put_pairs b pairs =
    put_varint b (List.length pairs);
    List.iter
      (fun (k, v) ->
        put_string b k;
        put_string b v)
      pairs

  let put_decision b (d : Recorder.decision) =
    match d with
    | Generate { client; intent } ->
      Buffer.add_char b '\001';
      put_varint b client;
      put_string b (Intent.to_string intent)
    | Deliver_to_server i ->
      Buffer.add_char b '\002';
      put_varint b i
    | Deliver_to_client i ->
      Buffer.add_char b '\003';
      put_varint b i
    | Deliver_peer { src; dst } ->
      Buffer.add_char b '\004';
      put_varint b src;
      put_varint b dst
    | Flush { channel; ops } ->
      Buffer.add_char b '\005';
      put_string b channel;
      put_varint b ops
    | Transmit { channel; seq; outcome } ->
      Buffer.add_char b '\006';
      put_string b channel;
      put_varint b seq;
      (match outcome with
      | Sent -> put_varint b 0
      | Dropped -> put_varint b 1
      | Partition_dropped -> put_varint b 2
      | Duplicated -> put_varint b 3
      | Delayed j ->
        put_varint b 4;
        put_varint b j)
    | Retransmit { channel; seq; attempts } ->
      Buffer.add_char b '\007';
      put_string b channel;
      put_varint b seq;
      put_varint b attempts
    | Ack { channel; seq; dropped } ->
      Buffer.add_char b '\008';
      put_string b channel;
      put_varint b seq;
      put_varint b (if dropped then 1 else 0)
    | Tick n ->
      Buffer.add_char b '\009';
      put_varint b n
    | Gc { cycle; trigger } ->
      Buffer.add_char b '\010';
      put_varint b cycle;
      put_string b trigger

  let encode ~header ~digest t =
    let b = Buffer.create 4096 in
    Buffer.add_string b "JFR1";
    put_pairs b header;
    put_pairs b digest;
    put_varint b t.total;
    let w = window t in
    put_varint b (List.length w);
    List.iter (put_decision b) w;
    Buffer.contents b
end

(* Decisions per chunk of a recorder whose capacity is at least this. *)
let chunk = 4096

(* Random decisions of every constructor: channel strings of several
   shapes (empty, long enough for a two-byte length, every byte value),
   extreme and negative ints in every int field, and intents over all
   256 characters. *)
let random_decision rng : Recorder.decision =
  let channels =
    [|
      "";
      "c2s:0";
      "s2c:2";
      "p2p:1>0";
      String.make 200 'x';
      String.init 256 Char.chr;
    |]
  in
  let int () =
    match Random.State.int rng 8 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> -1
    | 3 -> -(Random.State.bits rng)
    | 4 -> Random.State.int rng 128
    | 5 -> 127 + Random.State.int rng 3
    | 6 -> Random.State.bits rng
    | _ -> Random.State.bits rng lsl 31 lor Random.State.bits rng
  in
  let channel () = channels.(Random.State.int rng (Array.length channels)) in
  match Random.State.int rng 10 with
  | 0 ->
    let intent =
      match Random.State.int rng 4 with
      | 0 -> Intent.Delete (int ())
      | 1 -> Intent.Read
      | _ -> Intent.Insert (Char.chr (Random.State.int rng 256), int ())
    in
    Generate { client = int (); intent }
  | 1 -> Deliver_to_server (int ())
  | 2 -> Deliver_to_client (int ())
  | 3 -> Deliver_peer { src = int (); dst = int () }
  | 4 -> Flush { channel = channel (); ops = int () }
  | 5 ->
    let outcome : Recorder.outcome =
      match Random.State.int rng 5 with
      | 0 -> Sent
      | 1 -> Dropped
      | 2 -> Partition_dropped
      | 3 -> Duplicated
      | _ -> Delayed (int ())
    in
    Transmit { channel = channel (); seq = int (); outcome }
  | 6 ->
    Retransmit { channel = channel (); seq = int (); attempts = int () }
  | 7 ->
    Ack { channel = channel (); seq = int (); dropped = Random.State.bool rng }
  | 8 -> Tick (int ())
  | _ -> Gc { cycle = int (); trigger = channel () }

let decision_t =
  Alcotest.testable
    (fun ppf d -> Format.pp_print_string ppf (Recorder.decision_to_string d))
    ( = )

(* Every intent character and every int extreme round-trips through the
   bytes: one decision per intent byte, then each extreme in each int
   field. *)
let every_field_extreme () : Recorder.decision list =
  let ints = [ min_int; max_int; -1; 0; 127; 128 ] in
  List.init 256 (fun c ->
      Recorder.Generate { client = c; intent = Intent.Insert (Char.chr c, c) })
  @ List.concat_map
      (fun n : Recorder.decision list ->
        [
          Generate { client = n; intent = Intent.Delete n };
          Generate { client = n; intent = Intent.Insert (' ', n) };
          Deliver_to_server n;
          Deliver_to_client n;
          Deliver_peer { src = n; dst = n };
          Flush { channel = "c"; ops = n };
          Transmit { channel = "c"; seq = n; outcome = Delayed n };
          Retransmit { channel = "c"; seq = n; attempts = n };
          Ack { channel = "c"; seq = n; dropped = n < 0 };
          Tick n;
          Gc { cycle = n; trigger = "ops=64" };
        ])
      ints

let test_log_matches_ring () =
  let header = [ "capacity", "x"; "k", "" ] and digest = [ "d", "v" ] in
  List.iter
    (fun capacity ->
      let rng = Random.State.make [| capacity |] in
      let log = Recorder.create ~capacity () and ring = Ring.create capacity in
      (* Compared quietly; a mismatch is then reported field by field. *)
      let checkpoints = ref 0 in
      let check_at n =
        incr checkpoints;
        let window = Recorder.window log
        and bytes = Recorder.encode ~header ~digest log in
        let ring_window = Ring.window ring
        and ring_bytes = Ring.encode ~header ~digest ring in
        if
          not
            (ring.Ring.total = Recorder.total log
            && Ring.wrapped ring = Recorder.wrapped log
            && ring_window = window
            && String.equal ring_bytes bytes)
        then begin
          let what = Printf.sprintf "capacity %d after %d" capacity n in
          Alcotest.(check int) (what ^ ": total") ring.Ring.total
            (Recorder.total log);
          Alcotest.(check bool) (what ^ ": wrapped") (Ring.wrapped ring)
            (Recorder.wrapped log);
          Alcotest.(check (list decision_t))
            (what ^ ": window") ring_window window;
          Alcotest.(check string) (what ^ ": encode") ring_bytes bytes
        end
      in
      (* Checkpoints at both sides of every point where the ring wraps,
         a chunk fills or a chunk leaves the window, plus random ones. *)
      let length = (3 * capacity) + (2 * chunk) + 7 in
      let near_multiple n m =
        let r = ((n mod m) + m) mod m in
        r <= 1 || r = m - 1
      in
      let checkpoint n =
        n <= 10
        || near_multiple n capacity
        || near_multiple n chunk
        || near_multiple (n - capacity) chunk
        || Random.State.int rng 2000 = 0
      in
      check_at 0;
      let extremes = every_field_extreme () in
      let n = ref 0 in
      let push d =
        Recorder.record log d;
        Ring.record ring d;
        incr n;
        if checkpoint !n then check_at !n
      in
      List.iter push extremes;
      while !n < length do
        push (random_decision rng)
      done;
      check_at !n;
      Alcotest.(check bool)
        (Printf.sprintf "capacity %d: %d checkpoints agree, the last wrapped"
           capacity !checkpoints)
        true (Recorder.wrapped log))
    [ 1; 4; chunk - 1; chunk; chunk + 1; (3 * chunk) + 5 ]

(* --- what recording costs the heap ----------------------------------- *)

(* The non-generate decisions of a lossy run, the bulk of any recording
   (hotspot-lossy makes about 40 per operation, one of them a generate). *)
let wire_decision i : Recorder.decision =
  match i mod 4 with
  | 0 -> Transmit { channel = "c2s:1"; seq = i; outcome = Sent }
  | 1 -> Ack { channel = "s2c:0"; seq = i; dropped = false }
  | 2 -> Deliver_to_server (i land 3)
  | _ -> Tick i

(* A recorder keeps its decisions' bytes, not the decisions: 1 000 of
   them reach 944 words (the bytes of the open chunk, which doubles as
   it fills).  The boxed ring reached 274 146: its 2^18 slots alone are
   262 145 words, whatever it holds. *)
let test_retained_words () =
  let r = Recorder.create () in
  for i = 0 to 999 do
    Recorder.record r (wire_decision i)
  done;
  let words = Obj.reachable_words (Obj.repr r) in
  Alcotest.(check bool)
    (Printf.sprintf "%d words reachable from 1 000 decisions <= 4 096" words)
    true (words <= 4096)

(* Recording moves nothing into the major heap but the chunks
   themselves (strings, which the GC never scans, allocated there
   directly) and one queue cell each.  Reading over 100 000 decisions:
   0.00 words promoted per decision (6.00 with the boxed ring: the
   option box and the decision), and 0.00 minor words per recorded,
   already built decision (2.00: the option box). *)
let test_record_allocation () =
  let n = 100_000 in
  let r = Recorder.create () in
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  for i = 0 to n - 1 do
    Recorder.record r (wire_decision i)
  done;
  Gc.minor ();
  let _, after, _ = Gc.counters () in
  let promoted = (after -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f promoted words per decision < 0.1" promoted)
    true (promoted < 0.1);
  let built = Array.init 1000 wire_decision in
  let r = Recorder.create () in
  let before = Gc.minor_words () in
  for i = 0 to n - 1 do
    Recorder.record r built.(i mod 1000)
  done;
  let minor = (Gc.minor_words () -. before) /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per recorded decision < 0.1" minor)
    true (minor < 0.1)

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

(* On a perfect wire (no faults, no shim) every decision the engine
   makes is a schedule event or a tick, so the schedule extracted from
   the recording — through its binary form — is exactly the one the
   run returns. *)
let test_perfect_wire_extraction () =
  let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
  let t = E.create ~nclients:3 () in
  let recorder = Recorder.create () in
  E.attach_recorder t recorder;
  let performed =
    E.run_random t ~rng:(Random.State.make [| 17 |])
      ~params:{ Rlist_sim.Schedule.default_params with updates = 40 }
  in
  let recording =
    Recorder.decode (Recorder.encode ~header:[] ~digest:[] recorder)
  in
  Alcotest.check
    (Alcotest.testable Rlist_sim.Schedule.pp ( = ))
    "extracted schedule = performed schedule" performed
    (Helpers.ok (Recorded.schedule_of_recording recording))

(* A recorded intent that spells no intent is a corrupt recording. *)
let test_bad_intent_corrupt () =
  let r = Recorder.create () in
  Recorder.record r
    (Recorder.Generate { client = 1; intent = Intent.Insert ('a', 0) });
  let data = Recorder.encode ~header:[] ~digest:[] r in
  Alcotest.(check bool)
    "the window ends with the intent text" true
    (String.ends_with ~suffix:"ins a 0" data);
  let bad = String.sub data 0 (String.length data - 7) ^ "inz a 0" in
  match Recorder.decode bad with
  | _ -> Alcotest.fail "inz a 0 decoded"
  | exception Recorder.Corrupt msg ->
    Alcotest.(check string) "reason" "bad intent \"inz a 0\"" msg

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
          Alcotest.test_case "fastpath true refused" `Quick
            test_fastpath_header;
          Alcotest.test_case "shimmed version 1 refused" `Quick
            test_version1_shim_header;
          Alcotest.test_case "recording file round-trips" `Quick
            test_recording_file_round_trips;
          Alcotest.test_case "ring wraps" `Quick test_ring_wraps;
          Alcotest.test_case "log matches the boxed ring" `Quick
            test_log_matches_ring;
          Alcotest.test_case "registry keys" `Quick test_registry;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "retained words" `Quick test_retained_words;
          Alcotest.test_case "record allocates nothing it keeps" `Quick
            test_record_allocation;
        ] );
      ( "extraction",
        [
          Alcotest.test_case "schedule extraction replays" `Quick
            test_schedule_extraction;
          Alcotest.test_case "perfect wire: extraction is the run" `Quick
            test_perfect_wire_extraction;
          Alcotest.test_case "bad intent is Corrupt" `Quick
            test_bad_intent_corrupt;
        ] );
      ( "batching-audit",
        [
          Alcotest.test_case "batched paths cover every op" `Quick
            test_batched_events_cover_every_op;
        ] );
    ]
