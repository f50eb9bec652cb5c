(* Tests for state-space compaction and the pruning CSS protocol: the
   space is rebased correctly, the pruned protocol is observationally
   identical to the plain CSS protocol under the same schedule, and
   the metadata actually stays bounded when everyone keeps editing. *)

open Rlist_model
open Rlist_ot
module Space = Jupiter_css.State_space
module Css = Helpers.Css_run.E
module Pruned = Rlist_sim.Engine.Make (Jupiter_css.Pruned_protocol)

(* --- State_space.compact unit tests ----------------------------------- *)

let serial_key_table () =
  let serials : (Op_id.t, int) Hashtbl.t = Hashtbl.create 8 in
  let key id =
    match Hashtbl.find_opt serials id with
    | Some s -> Jupiter_css.Order_key.Serialized s
    | None -> Jupiter_css.Order_key.Pending id.Op_id.seq
  in
  serials, key

(* A space with two serialized concurrent inserts (full square) plus a
   third op on top. *)
let build_square () =
  let serials, key = serial_key_table () in
  let space = Space.create ~key_of:key () in
  let o1 = Helpers.ins ~client:1 'a' 0 in
  let o2 = Helpers.ins ~client:2 'b' 0 in
  let o3 = Helpers.ins ~client:3 'c' 0 in
  Hashtbl.replace serials o1.Op.id 1;
  Hashtbl.replace serials o2.Op.id 2;
  Hashtbl.replace serials o3.Op.id 3;
  ignore (Space.add_op space (Context.with_context o1 ~ctx:Space.initial_state));
  ignore (Space.add_op space (Context.with_context o2 ~ctx:Space.initial_state));
  let ctx12 = Op_id.Set.of_list [ o1.Op.id; o2.Op.id ] in
  ignore (Space.add_op space (Context.with_context o3 ~ctx:ctx12));
  space, o1, o2, o3

let test_compact_noop () =
  let space, _, _, _ = build_square () in
  let before = Space.num_states space in
  let doc =
    Space.compact space ~stable:Space.initial_state ~base_doc:Document.empty
  in
  Alcotest.(check int) "nothing pruned" before (Space.num_states space);
  Alcotest.(check string) "base doc unchanged" "" (Document.to_string doc)

let test_compact_one_op () =
  let space, o1, o2, o3 = build_square () in
  let stable = Op_id.Set.singleton o1.Op.id in
  let doc = Space.compact space ~stable ~base_doc:Document.empty in
  (* States dropped: {} and {2}; kept: {1}, {1,2}, {1,2,3} — then the
     survivors are rebased by subtracting the stable set, so the space
     holds {}, {2}, {2,3} and the root is the initial state again. *)
  Alcotest.(check int) "three states left" 3 (Space.num_states space);
  Alcotest.check Helpers.op_id_set "root rebased to empty"
    Space.initial_state (Space.root space);
  Alcotest.(check string) "doc at new root" "a" (Document.to_string doc);
  Alcotest.(check bool)
    "rebased survivor present" true
    (Space.mem_state space (Op_id.Set.singleton o2.Op.id));
  Alcotest.check Helpers.op_id_set "final rebased"
    (Op_id.Set.of_list [ o2.Op.id; o3.Op.id ])
    (Space.final space);
  Alcotest.(check bool)
    "pre-rebase survivor representation gone" false
    (Space.mem_state space (Op_id.Set.of_list [ o1.Op.id; o2.Op.id ]))

let test_compact_to_final () =
  let space, o1, o2, o3 = build_square () in
  let stable = Op_id.Set.of_list [ o1.Op.id; o2.Op.id; o3.Op.id ] in
  let doc = Space.compact space ~stable ~base_doc:Document.empty in
  Alcotest.(check int) "single state left" 1 (Space.num_states space);
  (* b (client 2) outranks a, c (client 3) outranks both at position 0. *)
  Alcotest.(check string) "final document" "cba" (Document.to_string doc)

let test_compact_rejects_non_state () =
  let space, o1, _, _ = build_square () in
  let ghost = Op_id.Set.of_list [ o1.Op.id; Op_id.make ~client:9 ~seq:9 ] in
  Alcotest.(check bool)
    "unknown stable state rejected" true
    (try
       ignore (Space.compact space ~stable:ghost ~base_doc:Document.empty);
       false
     with Invalid_argument _ -> true)

let test_compact_rejects_non_prefix () =
  (* {2} is a state but not a prefix of the total order (op 1 comes
     first), so it is not a legal stable state. *)
  let space, _, o2, _ = build_square () in
  let stable = Op_id.Set.singleton o2.Op.id in
  Alcotest.(check bool)
    "non-prefix stable rejected" true
    (try
       ignore (Space.compact space ~stable ~base_doc:Document.empty);
       false
     with Invalid_argument _ -> true)

let test_add_op_after_compact () =
  (* New operations must integrate on the pruned space. *)
  let space, o1, _o2, _o3 = build_square () in
  let serials = Op_id.Set.of_list [ o1.Op.id ] in
  ignore (Space.compact space ~stable:serials ~base_doc:Document.empty);
  let o4 = Helpers.ins ~client:1 ~seq:2 'd' 0 in
  (* o4's context is {1}: legal, it contains the stable set. *)
  let form =
    Space.add_op space (Context.with_context o4 ~ctx:(Space.root space))
  in
  Alcotest.(check bool)
    "still an insert" true
    (match form.Op.action with
    | Op.Ins _ -> true
    | Op.Del _ | Op.Nop -> false);
  Alcotest.(check bool)
    "final includes o4" true
    (Op_id.Set.mem o4.Op.id (Space.final space))

(* --- Protocol-level --------------------------------------------------- *)

let gen_seed = QCheck2.Gen.int_range 1 1_000_000

let params =
  { Rlist_sim.Schedule.default_params with updates = 25; deliver_bias = 0.6 }

let prop_observationally_identical =
  Helpers.qtest ~count:60
    "pruned CSS behaves identically to plain CSS under the same schedule"
    gen_seed (fun seed ->
      let css, schedule = Helpers.Css_run.random ~params seed in
      let pruned = Pruned.create ~nclients:4 () in
      Pruned.run pruned schedule;
      let b1 = Css.behavior css and b2 = Pruned.behavior pruned in
      List.length b1 = List.length b2
      && List.for_all2
           (fun (r1, d1) (r2, d2) ->
             Replica_id.equal r1 r2 && Document.equal d1 d2)
           b1 b2)

let prop_weak_spec =
  Helpers.qtest ~count:40 "pruned CSS satisfies the weak list spec" gen_seed
    (fun seed ->
      let pruned = Pruned.create ~nclients:3 () in
      let rng = Random.State.make [| seed; 0xC0FFEE |] in
      ignore (Pruned.run_random pruned ~rng ~params);
      Pruned.converged pruned
      && Rlist_spec.Check.is_satisfied
           (Rlist_spec.Weak_spec.check (Pruned.trace pruned)))

let prop_metadata_bounded =
  Helpers.qtest ~count:20
    "metadata shrinks: pruned space smaller than unpruned" gen_seed
    (fun seed ->
      let big =
        { Rlist_sim.Schedule.default_params with
          updates = 120;
          deliver_bias = 0.7;
        }
      in
      let css, schedule = Helpers.Css_run.random ~params:big seed in
      let pruned = Pruned.create ~nclients:4 () in
      Pruned.run pruned schedule;
      (* Pruning can only remove states, never add any; and whenever
         the stable prefix advanced at all, it must actually have
         removed some. *)
      let p = Pruned.server_metadata_size pruned in
      let u = Css.server_metadata_size css in
      let advanced =
        Jupiter_css.Pruned_protocol.server_pruned_to (Pruned.server pruned) > 0
      in
      p <= u && ((not advanced) || p < u))

let test_pruning_round_trip () =
  (* A deterministic session: everyone edits and synchronizes twice;
     after quiescence the server has pruned close to the end. *)
  let t = Pruned.create ~nclients:3 () in
  let edit_round ch =
    List.iter
      (fun i ->
        Pruned.apply_event t (Generate (i, Intent.Insert (ch, 0))))
      [ 1; 2; 3 ];
    ignore (Pruned.quiesce t)
  in
  edit_round 'a';
  edit_round 'b';
  edit_round 'c';
  Alcotest.(check bool) "converged" true (Pruned.converged t);
  (* The stable serial only advances with acks carried by later
     updates, so after three rounds at least the first rounds are
     pruned everywhere. *)
  let server_pruned =
    Jupiter_css.Pruned_protocol.server_pruned_to (Pruned.server t)
  in
  Alcotest.(check bool)
    (Printf.sprintf "server pruned beyond round one (got %d)" server_pruned)
    true (server_pruned >= 3);
  Alcotest.(check int)
    "nine characters" 9
    (Document.length (Pruned.server_document t))

let test_silent_client_stalls_pruning () =
  (* The classic caveat: a read-only client never acknowledges, so the
     stable prefix stays at zero and nothing is pruned. *)
  let t = Pruned.create ~nclients:2 () in
  List.iter
    (fun k ->
      Pruned.apply_event t (Generate (1, Intent.Insert ('x', k)));
      ignore (Pruned.quiesce t))
    [ 0; 1; 2; 3 ];
  Alcotest.(check int)
    "client 2 never wrote: no pruning" 0
    (Jupiter_css.Pruned_protocol.server_pruned_to (Pruned.server t))

(* The remedy for the stall: heartbeats.  An explicit ack-bearing
   heartbeat from each client lets the server recompute the stable
   prefix, prune, and push [Stable] notifications that compact the
   clients too — the state spaces shrink back to a bounded size even
   though the silent client never writes. *)
let run_heartbeat_session ?net () =
  let t = Pruned.create ?net ~nclients:2 () in
  List.iter
    (fun k ->
      Pruned.apply_event t (Generate (1, Intent.Insert ('x', k)));
      ignore (Pruned.quiesce t))
    [ 0; 1; 2; 3 ];
  Alcotest.(check int)
    "stalled at zero before the heartbeats" 0
    (Jupiter_css.Pruned_protocol.server_pruned_to (Pruned.server t));
  let before = Pruned.server_metadata_size t in
  List.iter
    (fun i ->
      Pruned.inject_c2s t i
        (Jupiter_css.Pruned_protocol.client_heartbeat (Pruned.client t i)))
    [ 1; 2 ];
  ignore (Pruned.quiesce t);
  Alcotest.(check int)
    "stable prefix caught up to every serial" 4
    (Jupiter_css.Pruned_protocol.server_pruned_to (Pruned.server t));
  Alcotest.(check bool)
    (Printf.sprintf "server metadata compacted (%d -> %d)" before
       (Pruned.server_metadata_size t))
    true
    (Pruned.server_metadata_size t < before);
  Alcotest.(check bool) "still converged" true (Pruned.converged t)

let test_heartbeat_unsticks_pruning () = run_heartbeat_session ()

(* The same session over chaotic channels: the heartbeat and the
   [Stable] notifications ride the reliability shim like any other
   control message. *)
let test_heartbeat_through_faults () =
  let faults = Option.get (Rlist_net.Faults.preset "chaos") in
  run_heartbeat_session
    ~net:(Rlist_net.Transport.config ~faults ~seed:17 ())
    ()

(* And over cyclic partitions: every link is down for a window of each
   period, so the heartbeat (and the [Stable] answers) may be blocked
   or dropped repeatedly — the retransmission shim must carry them
   through once connectivity returns, and a partitioned silent client
   must not stall the stable frontier forever. *)
let test_heartbeat_through_partitions () =
  let faults = Option.get (Rlist_net.Faults.preset "partition") in
  run_heartbeat_session
    ~net:(Rlist_net.Transport.config ~faults ~seed:23 ())
    ()

(* The two protocol-level rejections, each naming the serial its log
   lacks: a stable point past the client's serial log, and a delivery
   whose base names a serial the client never received. *)
let test_rejects_unknown_serials () =
  let module P = Jupiter_css.Pruned_protocol in
  let client () =
    P.create_client ~fastpath:(Space.Fastpath.create ()) ~nclients:2 ~id:1
      ~initial:Document.empty
  in
  Alcotest.check_raises "stable past the serial log"
    (Invalid_argument "css-pruned: stable serial 1 references an unknown serial 1")
    (fun () -> P.client_receive (client ()) (P.Stable { stable = 1 }));
  let deliver =
    P.Deliver
      {
        op = Helpers.ins ~client:2 'x' 0;
        ctx = Space.initial_state;
        serial = 3;
        origin = 2;
        stable = 0;
        base = 2;
      }
  in
  Alcotest.check_raises "deliver base past the serial log"
    (Invalid_argument "css-pruned: deliver base 2 references an unknown serial 1")
    (fun () -> P.client_receive (client ()) deliver)

let () =
  Alcotest.run "pruning"
    [
      ( "compact",
        [
          Alcotest.test_case "noop at the root" `Quick test_compact_noop;
          Alcotest.test_case "prune one operation" `Quick test_compact_one_op;
          Alcotest.test_case "collapse to final" `Quick test_compact_to_final;
          Alcotest.test_case "rejects non-states" `Quick
            test_compact_rejects_non_state;
          Alcotest.test_case "rejects non-prefixes" `Quick
            test_compact_rejects_non_prefix;
          Alcotest.test_case "operations after compaction" `Quick
            test_add_op_after_compact;
        ] );
      ( "protocol",
        [
          prop_observationally_identical;
          prop_weak_spec;
          prop_metadata_bounded;
          Alcotest.test_case "deterministic round trip" `Quick
            test_pruning_round_trip;
          Alcotest.test_case "silent client stalls pruning" `Quick
            test_silent_client_stalls_pruning;
          Alcotest.test_case "heartbeat acks unstick pruning" `Quick
            test_heartbeat_unsticks_pruning;
          Alcotest.test_case "heartbeats work through faulty channels" `Quick
            test_heartbeat_through_faults;
          Alcotest.test_case "heartbeats work through cyclic partitions" `Quick
            test_heartbeat_through_partitions;
          Alcotest.test_case "unknown serials are rejected" `Quick
            test_rejects_unknown_serials;
        ] );
    ]
