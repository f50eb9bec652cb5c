(* The unreliable-channel layer (lib/net): fault parsing, the
   FIFO-exactly-once contract restored by the reliability shim under
   every built-in fault model, the negative control with the shim off,
   and crash / reconnect via the checkpoint API — including the
   protocol-level composition with the CSS snapshot layer. *)

open Rlist_model
module Faults = Rlist_net.Faults
module Stats = Rlist_net.Stats
module Transport = Rlist_net.Transport

(* Field by field, exactly: comparing printed forms would hide a
   printer that rounds. *)
let spec : Faults.spec Alcotest.testable =
  Alcotest.testable Faults.pp (fun a b ->
      Float.equal a.Faults.drop b.Faults.drop
      && Float.equal a.duplicate b.duplicate
      && Float.equal a.reorder b.reorder
      && a.delay = b.delay
      && a.partition_period = b.partition_period
      && a.partition_down = b.partition_down)

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected parse error: %s" e

let err what = function
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: expected an error" what

(* Faults: parsing, presets, the partition clock. *)

let test_presets () =
  List.iter
    (fun (name, s) ->
      Alcotest.(check spec) name s (ok (Faults.of_string name));
      (* Round trip through the field syntax. *)
      Alcotest.(check spec)
        (name ^ " round-trip")
        s
        (ok (Faults.of_string (Faults.to_string s))))
    Faults.presets

let test_field_syntax () =
  let s = ok (Faults.of_string "drop=0.25,dup=0.1,delay=4,partition=60:20") in
  Alcotest.(check (float 1e-9)) "drop" 0.25 s.Faults.drop;
  Alcotest.(check (float 1e-9)) "dup" 0.1 s.Faults.duplicate;
  Alcotest.(check int) "delay" 4 s.Faults.delay;
  Alcotest.(check int) "period" 60 s.Faults.partition_period;
  Alcotest.(check int) "down" 20 s.Faults.partition_down

(* A probability is printed in as many digits as it needs to read
   back exactly; the short ones still print short. *)
let test_exact_probabilities () =
  let s = ok (Faults.of_string "drop=0.49999949,dup=0.123456789") in
  Alcotest.(check string) "printed verbatim" "drop=0.49999949,dup=0.123456789"
    (Faults.to_string s);
  Alcotest.(check spec) "reads back" s (ok (Faults.of_string (Faults.to_string s)));
  let third = { Faults.none with drop = 1.0 /. 3.0; delay = 9 } in
  Alcotest.(check spec) "1/3 and a lone delay read back" third
    (ok (Faults.of_string (Faults.to_string third)))

let gen_spec =
  let open QCheck2.Gen in
  let prob =
    oneof
      [
        return 0.0;
        return 1.0;
        float_bound_inclusive 1.0;
        map (fun n -> float_of_int n /. 1000.0) (int_bound 1000);
      ]
  in
  let* drop = prob and* duplicate = prob and* reorder = prob in
  let* delay = int_range 1 50 in
  let* partition_period, partition_down =
    oneof
      [
        return (0, 0);
        (let* period = int_range 1 500 in
         let* down = int_bound (period - 1) in
         return (period, down));
      ]
  in
  return
    { Faults.drop; duplicate; reorder; delay; partition_period; partition_down }

let prop_round_trip =
  Helpers.qtest ~count:500 "of_string (to_string s) = Ok s" gen_spec (fun s ->
      match Faults.of_string (Faults.to_string s) with
      | Ok s' -> Alcotest.equal spec s s'
      | Error e -> QCheck2.Test.fail_reportf "%s: %s" (Faults.to_string s) e)

let test_parse_errors () =
  err "probability > 1" (Faults.of_string "drop=1.5");
  (* NaN fails every comparison, so a range check written as two
     rejections lets it through. *)
  err "drop NaN" (Faults.of_string "drop=nan");
  err "dup NaN" (Faults.of_string "dup=nan");
  err "reorder NaN" (Faults.of_string "reorder=nan");
  err "infinite probability" (Faults.of_string "drop=inf");
  err "unknown preset" (Faults.of_string "no-such-model");
  err "unknown field" (Faults.of_string "frobnicate=1");
  err "down >= period"
    (Faults.validate
       { Faults.none with partition_period = 10; partition_down = 10 })

let test_partition_clock () =
  let s = { Faults.none with partition_period = 10; partition_down = 4 } in
  List.iter
    (fun (tick, expect) ->
      Alcotest.(check bool)
        (Printf.sprintf "down_at %d" tick)
        expect (Faults.down_at s ~tick))
    [ 0, true; 3, true; 4, false; 9, false; 10, true; 13, true; 14, false ]

(* Transport: drive a channel until every recoverable payload is out. *)

let drive ?(fuel = 100_000) ch =
  let got = ref [] in
  let stalled = ref 0 in
  while Transport.pending ch > 0 do
    let any = Transport.deliverable ch > 0 in
    while Transport.deliverable ch > 0 do
      match Transport.deliver ch with
      | Some x -> got := x :: !got
      | None -> () (* consumed internally: duplicate or resequenced *)
    done;
    if any then stalled := 0
    else begin
      incr stalled;
      if !stalled > fuel then Alcotest.fail "channel cannot quiesce"
    end;
    Transport.tick ch
  done;
  List.rev !got

let iota n = List.init n (fun i -> i)

let test_perfect_fifo () =
  let ch = Transport.perfect () in
  List.iter (Transport.send ch) (iota 10);
  Alcotest.(check bool) "not lossy" false (Transport.is_lossy ch);
  Alcotest.(check int) "pending" 10 (Transport.pending ch);
  Alcotest.(check int) "deliverable" 10 (Transport.deliverable ch);
  Alcotest.(check (list int)) "in order" (iota 10) (drive ch);
  Alcotest.(check int) "drained" 0 (Transport.pending ch)

(* The headline property: under every built-in fault model, the shim
   delivers every payload exactly once, in order. *)
let test_shim_exactly_once () =
  List.iter
    (fun (name, faults) ->
      let cfg = Transport.config ~faults ~seed:7 () in
      let ch = Transport.create cfg in
      List.iter (Transport.send ch) (iota 50);
      Alcotest.(check (list int))
        (name ^ ": exactly once, in order")
        (iota 50) (drive ch))
    Faults.presets

(* Negative control: with the shim off, drops reach the application. *)
let test_raw_lossy_drops () =
  let faults = { Faults.none with drop = 0.4 } in
  let cfg = Transport.config ~shim:false ~faults ~seed:5 () in
  let ch = Transport.create cfg in
  List.iter (Transport.send ch) (iota 100);
  let got = drive ch in
  Alcotest.(check bool)
    "some payloads were lost" true
    (List.length got < 100);
  let s = Transport.stats cfg in
  Alcotest.(check bool) "drops counted" true (s.Stats.dropped > 0);
  Alcotest.(check int) "no retransmissions without the shim" 0
    s.Stats.retransmits

(* Negative control: with the shim off, reordering is visible as
   contract violations (every payload still arrives — jitter only). *)
let test_raw_reorder_violates_fifo () =
  let faults = { Faults.none with reorder = 0.5; delay = 5 } in
  let cfg = Transport.config ~shim:false ~faults ~seed:3 () in
  let ch = Transport.create cfg in
  List.iter (Transport.send ch) (iota 50);
  let got = drive ch in
  Alcotest.(check (list int))
    "nothing lost, only reordered" (iota 50)
    (List.sort compare got);
  Alcotest.(check bool) "out of order" true (got <> iota 50);
  let s = Transport.stats cfg in
  Alcotest.(check bool)
    "contract violations recorded" true
    (s.Stats.contract_violations > 0)

let test_chaos_counters () =
  let cfg =
    Transport.config ~faults:(Option.get (Faults.preset "chaos")) ~seed:11 ()
  in
  let ch = Transport.create cfg in
  List.iter (Transport.send ch) (iota 80);
  Alcotest.(check (list int)) "exactly once" (iota 80) (drive ch);
  let s = Transport.stats cfg in
  Alcotest.(check int) "payloads" 80 s.Stats.payloads;
  Alcotest.(check int) "delivered" 80 s.Stats.delivered;
  Alcotest.(check bool) "retransmits happened" true (s.Stats.retransmits > 0);
  Alcotest.(check bool) "duplicates suppressed" true (s.Stats.dup_dropped > 0);
  Alcotest.(check bool)
    "partitions healed" true
    (s.Stats.partitions_healed > 0);
  Alcotest.(check bool) "amplification > 1" true (Stats.amplification s > 1.0)

let test_determinism () =
  let run () =
    let cfg =
      Transport.config
        ~faults:(Option.get (Faults.preset "heavy-loss"))
        ~seed:42 ()
    in
    let ch = Transport.create cfg in
    List.iter (Transport.send ch) (iota 60);
    let got = drive ch in
    got, Stats.fields (Transport.stats cfg)
  in
  let g1, f1 = run () and g2, f2 = run () in
  Alcotest.(check (list int)) "same deliveries" g1 g2;
  Alcotest.(check (list (pair string int))) "same counters" f1 f2

(* Channel decision pin.  One channel, driven by a fixed script of
   sends, deliveries and ticks, under every preset with the shim on and
   off, over three seeds.  Each run is fingerprinted by the recorder's
   decision stream, the delivered order (with [.] for arrivals the
   channel consumed) and the counters, so a wire that draws its RNG in
   another order, delivers another copy, or counts differently fails
   here.  The crash variant restores an older sender checkpoint and
   keeps sending, delivering and ticking before [drop_wire]: payloads
   whose copies are still on the wire must keep deferring their
   retransmission, as they did when "on the wire" was a scan by
   sequence number.  The expected digests come from the list-based
   wire that preceded the copy-counted one. *)
let pin_run ~faults ~shim ~seed ~crash =
  let cfg = Transport.config ~shim ~faults ~seed () in
  let recorder = Rlist_obs.Recorder.create () in
  Transport.set_recorder cfg (Some recorder);
  let ch =
    Transport.create ~key:(fun x -> Some (string_of_int x)) ~name:"pin" cfg
  in
  let script = Random.State.make [| seed; 0x5C |] in
  let out = Buffer.create 1024 in
  let next = ref 0 in
  let deliver () =
    match Transport.deliver ch with
    | Some x -> Printf.bprintf out "%d " x
    | None -> Buffer.add_string out ". "
  in
  let steps n =
    for _ = 1 to n do
      match Random.State.int script 4 with
      | 0 ->
        Transport.send ch !next;
        incr next
      | 1 | 2 -> if Transport.deliverable ch > 0 then deliver ()
      | _ -> Transport.tick ch
    done
  in
  steps 120;
  if crash then begin
    let ck = Transport.sender_checkpoint ch in
    steps 80;
    Transport.restore_sender ch ck;
    steps 60;
    Transport.drop_wire ch
  end;
  steps 120;
  let fuel = ref 100_000 in
  while Transport.pending ch > 0 do
    while Transport.deliverable ch > 0 do
      deliver ()
    done;
    Transport.tick ch;
    decr fuel;
    if !fuel = 0 then Alcotest.fail "pin channel cannot quiesce"
  done;
  Buffer.add_string out "\n";
  List.iter
    (fun d ->
      Buffer.add_string out (Rlist_obs.Recorder.decision_to_string d);
      Buffer.add_char out '\n')
    (Rlist_obs.Recorder.window recorder);
  List.iter
    (fun (k, v) -> Printf.bprintf out "%s=%d\n" k v)
    (Stats.fields (Transport.stats cfg));
  Digest.to_hex (Digest.string (Buffer.contents out))

let pin_expected =
  [
    "none", true, "904129a422f2859e4595ac3de13b15eb";
    "none", false, "2ad534543b750401406b7726394330bc";
    "drop", true, "0b39639e7e495707b526714d40036c3a";
    "drop", false, "1db1ab8fec1c402d3ff4762038c21fc1";
    "dup", true, "1fe6409fc2b20986213755dc260b3d90";
    "dup", false, "44a49001bceb89616ebb657c6b95b2aa";
    "reorder", true, "ea7ab191de0f3768451139dc968a671d";
    "reorder", false, "c25888ef69fd152e4239ccfbd6664764";
    "partition", true, "b2ff68a070e99ad587a4c40f6728168f";
    "partition", false, "5e69946f4ac4a6003c8f103ec1db3c56";
    "chaos", true, "401ab6ce17660e0a16713d8fcaaf5696";
    "chaos", false, "c82cec376f7e1fc61cbad218e9e628ed";
    "heavy-loss", true, "619a16301e7c4247ceefa045a18ae783";
    "heavy-loss", false, "3ddef44042b9a6e4b374b0f8d219c9ae";
  ]

let test_decision_pin () =
  List.iter
    (fun (preset, shim, expected) ->
      let faults = Option.get (Faults.preset preset) in
      let runs =
        List.concat_map
          (fun seed ->
            List.map
              (fun crash -> pin_run ~faults ~shim ~seed ~crash)
              [ false; true ])
          [ 1; 2; 3 ]
      in
      Alcotest.(check string)
        (Printf.sprintf "%s, shim %b" preset shim)
        expected
        (Digest.to_hex (Digest.string (String.concat "," runs))))
    pin_expected

(* An idle tick costs nothing.  Twenty payloads sit on a clean wire,
   never delivered: all are past their retransmission deadline, all
   still have a copy in flight, and no ack is pending or on its way.
   Ticking such a channel must allocate no minor-heap words. *)
let test_idle_tick_allocation () =
  let cfg = Transport.config ~faults:Faults.none ~seed:1 () in
  let ch = Transport.create cfg in
  List.iter (Transport.send ch) (iota 20);
  for _ = 1 to 100 do
    Transport.tick ch
  done;
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words (fun () -> ()) in
  let ticking =
    words (fun () ->
        for _ = 1 to 1000 do
          Transport.tick ch
        done)
  in
  Alcotest.(check (float 0.0)) "minor words over 1000 idle ticks" 0.0
    (ticking -. idle);
  Alcotest.(check int) "nothing retransmitted" 0
    (Transport.stats cfg).Stats.retransmits

(* Sender crash: restore the last checkpointed sender state, reset the
   wire; retransmission resynchronises and the receiver's sequence
   numbers suppress anything it had already seen. *)
let test_sender_crash_reconnect () =
  let cfg =
    Transport.config ~faults:(Option.get (Faults.preset "chaos")) ~seed:13 ()
  in
  let ch = Transport.create cfg in
  let got = ref [] in
  let send_ck x =
    Transport.send ch x;
    Transport.sender_checkpoint ch
  in
  let ck = ref (Transport.sender_checkpoint ch) in
  List.iter (fun x -> ck := send_ck x) (iota 5);
  (* Let some of them through, then cut the connection. *)
  for _ = 1 to 8 do
    while Transport.deliverable ch > 0 do
      match Transport.deliver ch with
      | Some x -> got := x :: !got
      | None -> ()
    done;
    Transport.tick ch
  done;
  Transport.drop_wire ch;
  Transport.restore_sender ch !ck;
  List.iter (fun x -> ck := send_ck x) (List.init 5 (fun i -> i + 5));
  let rest = drive ch in
  Alcotest.(check (list int))
    "exactly once across the crash" (iota 10)
    (List.rev !got @ rest)

(* Receiver crash: the application state and the receiver channel state
   checkpoint together (write-ahead: at the top of each step, before
   the tick that lets the cumulative ack escape).  Rolled-back
   deliveries are retransmitted by the unwitting sender and re-applied;
   nothing is lost or doubled. *)
let test_receiver_crash_reconnect () =
  let cfg =
    Transport.config ~faults:(Option.get (Faults.preset "drop")) ~seed:9 ()
  in
  let ch = Transport.create cfg in
  List.iter (Transport.send ch) (iota 10);
  let got = ref [] in
  let ck = ref (Transport.receiver_checkpoint ch, []) in
  let crashed = ref false in
  let stalled = ref 0 in
  while Transport.pending ch > 0 do
    ck := (Transport.receiver_checkpoint ch, !got);
    let any = Transport.deliverable ch > 0 in
    while Transport.deliverable ch > 0 do
      match Transport.deliver ch with
      | Some x -> got := x :: !got
      | None -> ()
    done;
    if (not !crashed) && List.length !got >= 4 then begin
      crashed := true;
      let c, g = !ck in
      Transport.restore_receiver ch c;
      got := g;
      Transport.drop_wire ch
    end;
    if any then stalled := 0
    else begin
      incr stalled;
      if !stalled > 100_000 then Alcotest.fail "cannot quiesce"
    end;
    Transport.tick ch
  done;
  Alcotest.(check bool) "the crash happened" true !crashed;
  Alcotest.(check (list int)) "exactly once across the crash" (iota 10)
    (List.rev !got)

(* The operation-identifier guard: an application-level duplicate (same
   op resent as a fresh payload, e.g. after a reconnect of unknown
   outcome) is suppressed at the receiver. *)
let test_opid_guard () =
  let cfg = Transport.config ~faults:Faults.none ~seed:1 () in
  let ch = Transport.create ~key:(fun s -> Some s) cfg in
  Transport.send ch "a";
  Alcotest.(check (list string)) "first copy delivered" [ "a" ] (drive ch);
  Transport.send ch "a";
  Alcotest.(check (list string)) "second copy suppressed" [] (drive ch);
  Alcotest.(check int) "drained (suppressed but acked)" 0
    (Transport.pending ch);
  Alcotest.(check int) "guard counted it" 1
    (Transport.stats cfg).Stats.opid_dup_dropped

let test_stats_publish () =
  let cfg =
    Transport.config ~faults:(Option.get (Faults.preset "drop")) ~seed:2 ()
  in
  let ch = Transport.create cfg in
  List.iter (Transport.send ch) (iota 20);
  ignore (drive ch);
  let obs = Rlist_obs.Obs.make () in
  Stats.publish (Transport.stats cfg) obs.Rlist_obs.Obs.metrics;
  let json = Rlist_obs.Obs.metrics_json obs in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("metrics json has " ^ needle) true
        (Helpers.contains json needle))
    [ "net.payloads"; "net.retransmits"; "net.amplification" ];
  Alcotest.(check int) "payload counter value" 20
    (Rlist_obs.Metrics.counter_of obs.Rlist_obs.Obs.metrics "net.payloads")

(* Crash / reconnect composed with the protocol snapshot layer: a CSS
   client over two chaotic channels checkpoints (protocol snapshot +
   sender state of c2s + receiver state of s2c) atomically after every
   local state change — the write-ahead discipline of transport.mli —
   then crashes mid-session and resumes from the checkpoint.  The
   session still converges with the server, every op applied exactly
   once. *)
let test_css_crash_reconnect () =
  let module P = Jupiter_css.Protocol in
  let cfg =
    Transport.config ~faults:(Option.get (Faults.preset "chaos")) ~seed:21 ()
  in
  let c2s =
    Transport.create
      ~key:(fun m -> Option.map Op_id.to_string (P.c2s_op_id m))
      cfg
  in
  let s2c =
    Transport.create
      ~key:(fun m -> Option.map Op_id.to_string (P.s2c_op_id m))
      cfg
  in
  let fp = Rlist_ot.Fastpath.create () in
  let client =
    ref (P.create_client ~fastpath:fp ~nclients:1 ~id:1 ~initial:Document.empty)
  in
  let server = P.create_server ~fastpath:fp ~nclients:1 ~initial:Document.empty in
  let checkpoint () =
    ( Jupiter_css.Snapshot.client_to_string !client,
      Transport.sender_checkpoint c2s,
      Transport.receiver_checkpoint s2c )
  in
  let ck = ref (checkpoint ()) in
  let crash () =
    let snap, s, r = !ck in
    client := Helpers.ok (Jupiter_css.Snapshot.client_of_string snap);
    Transport.restore_sender c2s s;
    Transport.restore_receiver s2c r;
    Transport.drop_wire c2s;
    Transport.drop_wire s2c
  in
  let deliver_all () =
    while Transport.deliverable c2s > 0 do
      match Transport.deliver c2s with
      | Some m ->
        List.iter (fun (_, r) -> Transport.send s2c r)
          (P.server_receive server ~from:1 m)
      | None -> ()
    done;
    while Transport.deliverable s2c > 0 do
      match Transport.deliver s2c with
      | Some m -> P.client_receive !client m
      | None -> ()
    done
  in
  let generated = ref 0 in
  for round = 1 to 12 do
    if round mod 2 = 1 then begin
      incr generated;
      let value = Char.chr (Char.code 'a' + !generated) in
      (match P.client_generate !client (Intent.Insert (value, 0)) with
      | _, Some m -> Transport.send c2s m
      | _, None -> Alcotest.fail "insert produced no message");
      ck := checkpoint ()
    end;
    deliver_all ();
    (* Round 7: crash after the deliveries, before they could be
       checkpointed or acknowledged — they are rolled back and must be
       recovered from the server's retransmission buffer. *)
    if round = 7 then crash () else ck := checkpoint ();
    Transport.tick c2s;
    Transport.tick s2c
  done;
  let fuel = ref 100_000 in
  while Transport.pending c2s > 0 || Transport.pending s2c > 0 do
    deliver_all ();
    Transport.tick c2s;
    Transport.tick s2c;
    decr fuel;
    if !fuel = 0 then Alcotest.fail "session cannot quiesce"
  done;
  let cdoc = P.client_document !client and sdoc = P.server_document server in
  Alcotest.(check Helpers.document) "client and server converged" sdoc cdoc;
  Alcotest.(check int) "every op applied exactly once" !generated
    (Document.length cdoc)

let () =
  Alcotest.run "net"
    [
      ( "faults",
        [
          Alcotest.test_case "presets parse and round-trip" `Quick test_presets;
          Alcotest.test_case "field syntax" `Quick test_field_syntax;
          Alcotest.test_case "exact probabilities" `Quick
            test_exact_probabilities;
          prop_round_trip;
          Alcotest.test_case "parse errors" `Quick test_parse_errors;
          Alcotest.test_case "partition clock" `Quick test_partition_clock;
        ] );
      ( "transport",
        [
          Alcotest.test_case "perfect channel is a FIFO queue" `Quick
            test_perfect_fifo;
          Alcotest.test_case "shim: exactly once under every preset" `Quick
            test_shim_exactly_once;
          Alcotest.test_case "raw: drops reach the application" `Quick
            test_raw_lossy_drops;
          Alcotest.test_case "raw: reordering violates FIFO" `Quick
            test_raw_reorder_violates_fifo;
          Alcotest.test_case "chaos: counters add up" `Quick test_chaos_counters;
          Alcotest.test_case "determinism from the seed" `Quick test_determinism;
          Alcotest.test_case "stats publish into metrics" `Quick
            test_stats_publish;
          Alcotest.test_case "decision pin: presets x shim x seeds" `Quick
            test_decision_pin;
          Alcotest.test_case "idle ticks allocate nothing" `Quick
            test_idle_tick_allocation;
        ] );
      ( "crash-reconnect",
        [
          Alcotest.test_case "sender crash" `Quick test_sender_crash_reconnect;
          Alcotest.test_case "receiver crash" `Quick
            test_receiver_crash_reconnect;
          Alcotest.test_case "op-id guard suppresses app-level duplicates"
            `Quick test_opid_guard;
          Alcotest.test_case "CSS client crash + snapshot restore" `Quick
            test_css_crash_reconnect;
        ] );
    ]
