(* The continuous-GC acceptance suite: compaction is semantically
   transparent.  A GC driver runs out of band (heartbeats injected only
   into empty channels, no RNG draws, no sequence numbers), so driving
   the same seed with and without a GC policy must produce the same
   schedule, the same behavior, and the same final documents — the GC
   run just retains less metadata.  The differential properties check
   exactly that, across fault models and both delivery paths; the unit
   tests below them pin the policy parser, the driver's trigger and
   snapshot arithmetic, and the transport-level dedup pruning. *)

open Rlist_model
module Faults = Rlist_net.Faults
module Transport = Rlist_net.Transport
module E = Rlist_sim.Engine.Make (Jupiter_css.Pruned_protocol)

let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:string_of_int gen prop)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let params = { Rlist_sim.Schedule.default_params with updates = 30 }

let fault_models =
  List.map
    (fun n -> n, Option.get (Faults.preset n))
    [ "drop"; "dup"; "reorder"; "partition"; "chaos"; "heavy-loss" ]

let net_for seed =
  let _, faults = List.nth fault_models (seed mod List.length fault_models) in
  Transport.config ~faults ~seed ()

(* The most eager policy there is, so that short random runs cycle
   after every operation-bearing event (the only points where any
   policy can start a cycle): a tiny dedup window, snapshots on. *)
let eager_policy =
  { Rlist_gc.every_ops = 1; retain_keys = 16; snapshot_every = 1 }

type outcome = {
  schedule : Rlist_sim.Schedule.t;
  behavior : (Replica_id.t * Document.t) list;
  finals : string list;
  converged : bool;
  cycles : int;
}

let run_p (type c s a b)
    (module P : Rlist_sim.Protocol_intf.PROTOCOL
      with type client = c
       and type server = s
       and type c2s = a
       and type s2c = b) ?gc ?(batching = false) ~faulty seed =
  let module E = Rlist_sim.Engine.Make (P) in
  let net = if faulty then Some (net_for seed) else None in
  let t = E.create ?net ?gc ~batching ~nclients:3 () in
  let rng = Random.State.make [| seed; 0xFA17 |] in
  let schedule = E.run_random t ~rng ~params in
  {
    schedule;
    behavior = E.behavior t;
    finals =
      Document.to_string (E.server_document t)
      :: List.init 3 (fun i -> Document.to_string (E.client_document t (i + 1)));
    converged = E.converged t;
    cycles =
      (match E.gc_stats t with None -> 0 | Some s -> s.Rlist_gc.cycles);
  }

let run = run_p (module Jupiter_css.Pruned_protocol)

let behavior_equal =
  List.equal (fun (r1, d1) (r2, d2) ->
      Replica_id.equal r1 r2 && Document.equal d1 d2)

(* Protocols without an acknowledgement frontier ([gc_support = None])
   still accept a policy — cycles degrade to transport-level pruning —
   so the transparency property is checked for them too. *)
let transparent ?(p = `Pruned) ?batching ~faulty seed =
  let go ?gc () =
    match p with
    | `Pruned -> run_p (module Jupiter_css.Pruned_protocol) ?gc ?batching ~faulty seed
    | `Css -> run_p (module Jupiter_css.Protocol) ?gc ?batching ~faulty seed
    | `Cscw -> run_p (module Jupiter_cscw.Protocol) ?gc ?batching ~faulty seed
  in
  let off = go () in
  let on_ = go ~gc:eager_policy () in
  off.schedule = on_.schedule
  && behavior_equal off.behavior on_.behavior
  && List.equal String.equal off.finals on_.finals
  && off.converged && on_.converged

let prop_transparent_reliable =
  qtest ~count:60 "pruned: gc on = gc off (reliable)" seed_gen
    (transparent ?p:None ?batching:None ~faulty:false)

let prop_transparent_faulty =
  qtest ~count:60 "pruned: gc on = gc off (faulty, shimmed)" seed_gen
    (transparent ?p:None ?batching:None ~faulty:true)

let prop_transparent_batched =
  qtest ~count:40 "pruned: gc on = gc off (batched, reliable)" seed_gen
    (transparent ?p:None ~batching:true ~faulty:false)

let prop_transparent_batched_faulty =
  qtest ~count:40 "pruned: gc on = gc off (batched, faulty)" seed_gen
    (transparent ?p:None ~batching:true ~faulty:true)

let prop_transparent_css =
  qtest ~count:30 "css: gc on = gc off (reliable)" seed_gen
    (transparent ~p:`Css ?batching:None ~faulty:false)

let prop_transparent_css_faulty =
  qtest ~count:30 "css: gc on = gc off (faulty, shimmed)" seed_gen
    (transparent ~p:`Css ?batching:None ~faulty:true)

let prop_transparent_cscw =
  qtest ~count:30 "cscw: gc on = gc off (reliable)" seed_gen
    (transparent ~p:`Cscw ?batching:None ~faulty:false)

let prop_transparent_cscw_faulty =
  qtest ~count:30 "cscw: gc on = gc off (faulty, shimmed)" seed_gen
    (transparent ~p:`Cscw ?batching:None ~faulty:true)

(* The transparency property would hold vacuously if the driver never
   fired; make sure the eager policy actually cycles on these runs. *)
let prop_cycles_fire =
  qtest ~count:25 "eager policy actually cycles" seed_gen (fun seed ->
      (run ~gc:eager_policy ~faulty:false seed).cycles > 0)

(* --- policy parsing --------------------------------------------------- *)

let test_policy_round_trip () =
  List.iter
    (fun s ->
      match Rlist_gc.of_string s with
      | Error e -> Alcotest.failf "%S did not parse: %s" s e
      | Ok p ->
        let back =
          match Rlist_gc.of_string (Rlist_gc.to_string p) with
          | Ok p' -> p'
          | Error e -> Alcotest.failf "%S did not re-parse: %s" s e
        in
        Alcotest.(check string)
          (Printf.sprintf "round trip of %S" s)
          (Rlist_gc.to_string p) (Rlist_gc.to_string back))
    [
      "default";
      "ops=64";
      "ops=64,retain=64,snap=4";
      "snap=0,ops=1";
    ]

let test_policy_rejects () =
  List.iter
    (fun s ->
      match Rlist_gc.of_string s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" s)
    [
      "";
      "retain=64";
      "ops=0";
      "meta=-3";
      "ops=sixty";
      "bogus=1";
      "ops";
      "meta=4096";
      "lag=256";
      "ops=64,lag=256";
    ]

(* --- driver unit tests ------------------------------------------------ *)

let test_driver_triggers () =
  let d =
    Rlist_gc.Driver.create
      { Rlist_gc.every_ops = 10; retain_keys = 4; snapshot_every = 1 }
  in
  let due () = Rlist_gc.Driver.due d in
  Alcotest.(check bool) "quiet start" false (due ());
  Rlist_gc.Driver.note_ops d 9;
  Alcotest.(check bool) "one short of ops" false (due ());
  Rlist_gc.Driver.note_ops d 1;
  Alcotest.(check bool) "ops trigger fires" true (due ());
  let cycle = Rlist_gc.Driver.begin_cycle d in
  Alcotest.(check int) "first cycle" 1 cycle;
  Rlist_gc.Driver.end_cycle d ~reclaimed_states:3 ~reclaimed_log:2
    ~reclaimed_keys:1 ~snapshot_bytes:(Some 10) ~meta:7;
  let s = Rlist_gc.Driver.stats d in
  Alcotest.(check int) "cycles" 1 s.Rlist_gc.cycles;
  Alcotest.(check int) "states" 3 s.Rlist_gc.reclaimed_states;
  Alcotest.(check int) "log" 2 s.Rlist_gc.reclaimed_log;
  Alcotest.(check int) "keys" 1 s.Rlist_gc.reclaimed_keys;
  Alcotest.(check int) "snapshots" 1 s.Rlist_gc.snapshots;
  Alcotest.(check int) "snapshot bytes" 10 s.Rlist_gc.last_snapshot_bytes;
  Alcotest.(check int) "meta peak" 7 s.Rlist_gc.meta_peak;
  Alcotest.(check bool) "ops counter reset by begin_cycle" false (due ());
  ignore (Rlist_gc.Driver.begin_cycle d);
  Rlist_gc.Driver.note_ops d 10;
  Alcotest.(check bool) "no reentrant cycle" false (due ())

(* A snapshot is only due once enough operations have passed to pay
   for the previous one's bytes — the amortization that keeps per-op
   snapshot cost constant as the document grows. *)
let test_driver_snapshot_amortization () =
  let d =
    Rlist_gc.Driver.create
      { Rlist_gc.every_ops = 1; retain_keys = 4; snapshot_every = 1 }
  in
  Alcotest.(check bool)
    "first snapshot free" true
    (Rlist_gc.Driver.snapshot_due d);
  ignore (Rlist_gc.Driver.begin_cycle d);
  (* A huge snapshot: 6400 bytes = 100 ops of budget at 64 bytes/op. *)
  Rlist_gc.Driver.end_cycle d ~reclaimed_states:0 ~reclaimed_log:0
    ~reclaimed_keys:0 ~snapshot_bytes:(Some 6400) ~meta:0;
  Rlist_gc.Driver.note_ops d 99;
  Alcotest.(check bool)
    "99 ops have not paid for 6400 bytes" false
    (Rlist_gc.Driver.snapshot_due d);
  Rlist_gc.Driver.note_ops d 1;
  Alcotest.(check bool)
    "100 ops have" true
    (Rlist_gc.Driver.snapshot_due d);
  let d0 =
    Rlist_gc.Driver.create
      { Rlist_gc.default with Rlist_gc.snapshot_every = 0 }
  in
  Alcotest.(check bool)
    "snap=0 disables snapshots" false
    (Rlist_gc.Driver.snapshot_due d0)

(* --- transport dedup pruning ------------------------------------------ *)

let test_transport_prune_delivered () =
  let faults = Option.get (Faults.preset "dup") in
  let cfg = Transport.config ~shim:true ~faults ~seed:5 () in
  let ch =
    Transport.create ~key:(fun i -> Some (string_of_int i)) cfg
  in
  for i = 1 to 40 do
    Transport.send ch i;
    (* drain with a few ticks so retransmissions and dups settle *)
    for _ = 1 to 3 do
      Transport.tick ch;
      while Transport.deliverable ch > 0 do
        ignore (Transport.deliver ch)
      done
    done
  done;
  let before = Transport.dedup_keys ch in
  Alcotest.(check bool)
    (Printf.sprintf "dedup table grew (%d keys)" before)
    true (before > 8);
  let dropped = Transport.prune_delivered ch ~retain:8 in
  Alcotest.(check int) "accounting matches" (before - 8) dropped;
  Alcotest.(check int) "retained exactly" 8 (Transport.dedup_keys ch);
  (* Pruning the dedup history must not re-admit anything: keep
     draining, the stream stays exactly 1..40 with no duplicates. *)
  Alcotest.(check int) "prune again is a no-op" 0
    (Transport.prune_delivered ch ~retain:8)

(* --- stable snapshot round trip --------------------------------------- *)

let test_stable_snapshot_round_trip () =
  let doc =
    List.fold_left
      (fun d (i, c) ->
        Document.insert d ~pos:i
          (Element.make ~value:c ~id:(Op_id.make ~client:1 ~seq:(i + 1))))
      Document.empty
      [ 0, 'j'; 1, 'u'; 2, 'p'; 3, 'i'; 4, 't'; 5, 'e'; 6, 'r' ]
  in
  let snap = { Jupiter_css.Snapshot.at_serial = 7; stable_doc = doc } in
  let s = Jupiter_css.Snapshot.stable_to_string snap in
  let back = Helpers.ok (Jupiter_css.Snapshot.stable_of_string s) in
  Alcotest.(check int) "serial survives" 7 back.Jupiter_css.Snapshot.at_serial;
  Alcotest.(check string)
    "document survives" "jupiter"
    (Document.to_string back.Jupiter_css.Snapshot.stable_doc);
  Alcotest.(check bool)
    "malformed input rejected" true
    (Result.is_error (Jupiter_css.Snapshot.stable_of_string "stable nonsense"))

(* The engine's GC driver emits the same artifact end to end. *)
let test_engine_snapshot_artifact () =
  let t = E.create ~gc:eager_policy ~nclients:2 () in
  let rng = Random.State.make [| 11; 0xFA17 |] in
  ignore (E.run_random t ~rng ~params);
  match E.gc_last_snapshot t with
  | None -> Alcotest.fail "eager policy took no snapshot"
  | Some s ->
    let snap = Helpers.ok (Jupiter_css.Snapshot.stable_of_string s) in
    Alcotest.(check bool)
      "snapshot covers a pruned prefix" true
      (snap.Jupiter_css.Snapshot.at_serial >= 0)

let () =
  Alcotest.run "gc"
    [
      ( "transparency",
        [
          prop_transparent_reliable;
          prop_transparent_faulty;
          prop_transparent_batched;
          prop_transparent_batched_faulty;
          prop_transparent_css;
          prop_transparent_css_faulty;
          prop_transparent_cscw;
          prop_transparent_cscw_faulty;
          prop_cycles_fire;
        ] );
      ( "policy",
        [
          Alcotest.test_case "parse round trips" `Quick test_policy_round_trip;
          Alcotest.test_case "malformed rejected" `Quick test_policy_rejects;
        ] );
      ( "driver",
        [
          Alcotest.test_case "triggers and accounting" `Quick
            test_driver_triggers;
          Alcotest.test_case "snapshot amortization" `Quick
            test_driver_snapshot_amortization;
        ] );
      ( "transport",
        [
          Alcotest.test_case "ack-driven dedup pruning" `Quick
            test_transport_prune_delivered;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "stable snapshot round trips" `Quick
            test_stable_snapshot_round_trip;
          Alcotest.test_case "engine emits the artifact" `Quick
            test_engine_snapshot_artifact;
        ] );
    ]
