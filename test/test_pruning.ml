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

(* [compact] replaying the stable prefix into an empty document: the
   document at the new root. *)
let compact_doc space ~stable =
  match Space.compact space ~stable ~base_doc:Document.empty with
  | Some doc -> doc
  | None -> Alcotest.fail "compact returned no document for a given one"

let compact_text space ~stable =
  Document.to_string (compact_doc space ~stable)

(* [build_square]'s ordering keys: client [c]'s operation has serial
   [c]. *)
let square_key (id : Op_id.t) = Jupiter_css.Order_key.Serialized id.client

let test_compact_noop () =
  let space, _, _, _ = build_square () in
  let before = Space.num_states space in
  let doc = compact_text space ~stable:Space.initial_state in
  Alcotest.(check int) "nothing pruned" before (Space.num_states space);
  Alcotest.(check string) "base doc unchanged" "" doc

let test_compact_one_op () =
  let space, o1, o2, o3 = build_square () in
  let stable = Op_id.Set.singleton o1.Op.id in
  let doc = compact_text space ~stable in
  (* States dropped: {} and {2}; kept: {1}, {1,2}, {1,2,3} — then the
     survivors are rebased by subtracting the stable set, so the space
     holds {}, {2}, {2,3} and the root is the initial state again. *)
  Alcotest.(check int) "three states left" 3 (Space.num_states space);
  Alcotest.check Helpers.op_id_set "root rebased to empty"
    Space.initial_state (Space.root space);
  Alcotest.(check string) "doc at new root" "a" doc;
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
  let doc = compact_text space ~stable in
  Alcotest.(check int) "single state left" 1 (Space.num_states space);
  (* b (client 2) outranks a, c (client 3) outranks both at position 0. *)
  Alcotest.(check string) "final document" "cba" doc

(* The same compactions with no document: nothing is replayed and none
   is returned, and the space ends as the replaying compaction leaves
   it. *)
let test_compact_without_document () =
  List.iter
    (fun pick ->
      let replayed, o1, o2, o3 = build_square () in
      let stable = Op_id.Set.of_list (pick o1.Op.id o2.Op.id o3.Op.id) in
      ignore (compact_text replayed ~stable);
      let space, _, _, _ = build_square () in
      Alcotest.(check bool)
        "no document returned" true
        (Option.is_none (Space.compact space ~stable));
      Alcotest.(check bool)
        "same space as the replaying compaction" true
        (Space.equal replayed space))
    [ (fun _ _ _ -> []);
      (fun o1 _ _ -> [ o1 ]);
      (fun o1 o2 o3 -> [ o1; o2; o3 ]) ]

(* Every check of [compact] raises the same error whether or not the
   walk replays a document: a pruned client compacts without one, and
   its walk must keep the checks.  [build] makes a fresh space and the
   stable state to refuse; [reason] is part of the message. *)
let check_refused what ~reason build =
  let refusal ?base_doc () =
    let space, stable = build () in
    match Space.compact ?base_doc space ~stable with
    | _ -> Alcotest.failf "%s: compact accepted the stable state" what
    | exception Invalid_argument msg -> msg
  in
  let replaying = refusal ~base_doc:Document.empty () in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S names %S" what replaying reason)
    true
    (Helpers.contains replaying reason);
  Alcotest.(check string)
    (what ^ ": the same refusal without a document")
    replaying (refusal ())

let test_compact_rejects_non_state () =
  check_refused "unknown stable state" ~reason:"is not a state" (fun () ->
      let space, o1, _, _ = build_square () in
      space, Op_id.Set.of_list [ o1.Op.id; Op_id.make ~client:9 ~seq:9 ])

(* The square's listing rebuilt with its root at {1}: {2} is one of its
   states, but it does not contain the root. *)
let test_compact_rejects_below_root () =
  check_refused "stable state below the root" ~reason:"below the current root"
    (fun () ->
      let square, o1, o2, _ = build_square () in
      let space =
        Space.of_raw ~key_of:square_key
          ~root:(Op_id.Set.singleton o1.Op.id)
          ~final:(Space.final square) (Space.listing square)
      in
      space, Op_id.Set.singleton o2.Op.id)

let test_compact_rejects_non_prefix () =
  (* {2} is a state but not a prefix of the total order (op 1 comes
     first), so it is not a legal stable state. *)
  check_refused "non-prefix stable state"
    ~reason:"is not a prefix of the total order" (fun () ->
      let space, _, o2, _ = build_square () in
      space, Op_id.Set.singleton o2.Op.id)

(* The square's listing without the transitions out of {1}: {1,2} is a
   state, but the leftmost path stops at {1} before reaching it. *)
let test_compact_rejects_unreachable () =
  check_refused "unreachable stable state"
    ~reason:"not reachable along the leftmost path" (fun () ->
      let square, o1, o2, _ = build_square () in
      let s1 = Op_id.Set.singleton o1.Op.id in
      let space =
        Space.of_raw ~key_of:square_key ~root:Space.initial_state
          ~final:(Space.final square)
          (List.map
             (fun (s, trs) -> s, if Op_id.Set.equal s s1 then [] else trs)
             (Space.listing square))
      in
      space, Op_id.Set.of_list [ o1.Op.id; o2.Op.id ])

let test_add_op_after_compact () =
  (* New operations must integrate on the pruned space. *)
  let space, o1, _o2, _o3 = build_square () in
  let serials = Op_id.Set.of_list [ o1.Op.id ] in
  ignore (Space.compact space ~stable:serials);
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

(* --- snapshot writer bytes ------------------------------------------ *)

(* The snapshot writers as they were written with Printf, transcribed:
   the buffer writers must produce these bytes exactly.  The engine pin
   prints stable snapshots, and the GC driver paces snapshots by their
   length. *)
module Printf_writer = struct
  let id sep b (i : Op_id.t) = Printf.bprintf b "%d%c%d" i.client sep i.seq

  let state b s =
    List.iteri
      (fun k i ->
        if k > 0 then Buffer.add_char b ' ';
        id '.' b i)
      (Op_id.Set.canonical s)

  let element b (e : Element.t) =
    Printf.bprintf b "%d %a" (Char.code e.value) (id ' ') e.id

  let form b (f : Op.t) =
    match f.action with
    | Op.Ins (e, p) -> Printf.bprintf b "ins %a %d" element e p
    | Op.Del (e, p) -> Printf.bprintf b "del %a %d" element e p
    | Op.Nop -> Buffer.add_string b "nop"

  let doc_lines b doc =
    Document.iter (fun e -> Printf.bprintf b "delt %a\n" element e) doc

  let client_to_string client =
    let cid, next_seq, doc, serials =
      Jupiter_css.Protocol.client_state client
    in
    let space = Jupiter_css.Protocol.client_space client in
    let b = Buffer.create 4096 in
    Printf.bprintf b "css-client 1\nclient %d %d\n" cid next_seq;
    doc_lines b doc;
    List.iter
      (fun (op_id, serial) ->
        Printf.bprintf b "serial %a %d\n" (id ' ') op_id serial)
      (List.sort (fun (a, _) (b, _) -> Op_id.compare a b) serials);
    Printf.bprintf b "root %a\nfinal %a\n" state (Space.root space) state
      (Space.final space);
    List.iter
      (fun (s, transitions) ->
        Printf.bprintf b "node %a\n" state s;
        List.iter
          (fun (tr : Space.transition) ->
            Printf.bprintf b "tr %a %a\n" (id ' ') tr.orig form tr.form)
          transitions)
      (List.sort
         (fun (s1, _) (s2, _) -> Op_id.Set.compare s1 s2)
         (Space.listing space));
    Buffer.contents b

  let stable_to_string { Jupiter_css.Snapshot.at_serial; stable_doc } =
    let b = Buffer.create 1024 in
    Printf.bprintf b "css-stable 1\nat %d\n" at_serial;
    doc_lines b stable_doc;
    Buffer.contents b
end

let same_stable at_serial stable_doc =
  let snap = { Jupiter_css.Snapshot.at_serial; stable_doc } in
  String.equal
    (Printf_writer.stable_to_string snap)
    (Jupiter_css.Snapshot.stable_to_string snap)

let same_client client =
  String.equal
    (Printf_writer.client_to_string client)
    (Jupiter_css.Snapshot.client_to_string client)

(* A client around [space], with every operation in it serialized in
   identifier order: the writer reads the space back as it stands. *)
let client_of_space ?(serials = []) ~doc space =
  let listing = Space.listing space in
  let ids =
    List.sort_uniq Op_id.compare
      (List.concat_map
         (fun (_, trs) -> List.map (fun (tr : Space.transition) -> tr.orig) trs)
         listing)
  in
  Jupiter_css.Protocol.rebuild_client ~id:1 ~next_seq:1 ~doc
    ~serials:(serials @ List.mapi (fun k id -> id, k + 1) ids)
    ~space:listing ~root:(Space.root space) ~final:(Space.final space)

(* Small and huge sequence numbers and client numbers, and client 0
   (the initial document's elements). *)
let gen_op_id =
  QCheck2.Gen.(
    let* client =
      frequency
        [ 1, return 0; 3, int_range 1 9; 1, int_range 10 max_int ]
    in
    let* seq = frequency [ 3, int_range 1 1000; 1, int_range 1 max_int ] in
    return (Op_id.make ~client ~seq))

let gen_element =
  QCheck2.Gen.(
    let* code = int_range 0 255 in
    let* id = gen_op_id in
    return (Element.make ~value:(Char.chr code) ~id))

let gen_doc =
  QCheck2.Gen.(map Document.of_elements (list_size (int_range 0 60) gen_element))

(* Every character code, each under a client-0 and a client id. *)
let all_codes =
  Document.of_elements
    (List.concat_map
       (fun code ->
         [ Element.make ~value:(Char.chr code) ~id:(Op_id.initial ~seq:(code + 1));
           Element.make ~value:(Char.chr code)
             ~id:(Op_id.make ~client:(code + 1) ~seq:(max_int - code)) ])
       (List.init 256 Fun.id))

let test_writer_bytes_fixed () =
  List.iter
    (fun at ->
      Alcotest.(check bool)
        (Printf.sprintf "stable at %d" at)
        true (same_stable at all_codes))
    [ 0; 7; -1; 1_000_000_007; max_int; min_int ];
  Alcotest.(check bool) "empty stable" true (same_stable 0 Document.empty);
  Alcotest.(check bool)
    "client over every code" true
    (same_client
       (client_of_space ~doc:all_codes
          (Space.create ~key_of:(fun _ -> Jupiter_css.Order_key.Pending 1) ())));
  (* The compaction tests' square, before and after each compaction. *)
  List.iter
    (fun stable ->
      let space, o1, o2, o3 = build_square () in
      let pick = List.map (fun (o : Op.t) -> o.id) in
      (* A client is rebuilt from the document at the new root, which
         only a replaying compaction returns. *)
      let doc =
        compact_doc space ~stable:(Op_id.Set.of_list (pick (stable o1 o2 o3)))
      in
      Alcotest.(check bool)
        "compacted square" true
        (same_client (client_of_space ~doc space)))
    [ (fun _ _ _ -> []); (fun o1 _ _ -> [ o1 ]);
      (fun o1 o2 o3 -> [ o1; o2; o3 ]) ]

let prop_writer_bytes_random_docs =
  Helpers.qtest ~count:200
    "random documents: snapshot writers print the Printf bytes"
    QCheck2.Gen.(
      tup4 gen_doc
        (oneof [ int; return min_int; return max_int ])
        (list_size (int_range 0 8) (pair gen_op_id nat))
        (int_range 1 max_int))
    (fun (doc, at, serials, next_seq) ->
      let client =
        Jupiter_css.Protocol.rebuild_client ~id:1 ~next_seq ~doc ~serials
          ~space:[ Space.initial_state, [] ] ~root:Space.initial_state
          ~final:Space.initial_state
      in
      same_stable at doc && same_client client)

(* The spaces this file's sessions build: plain CSS clients over an
   initial document (client-0 elements in the forms), and the pruned
   protocol's compacted client and server spaces. *)
let prop_writer_bytes_sessions =
  Helpers.qtest ~count:30 "sessions: snapshot writers print the Printf bytes"
    gen_seed (fun seed ->
      let initial = Document.of_string "jupiter" in
      let css, schedule = Helpers.Css_run.random ~params ~initial seed in
      let pruned = Pruned.create ~initial ~nclients:4 () in
      Pruned.run pruned schedule;
      let module P = Jupiter_css.Pruned_protocol in
      let doc = Pruned.server_document pruned in
      List.for_all (fun i -> same_client (Css.client css i)) [ 1; 2; 3; 4 ]
      && List.for_all
           (fun i ->
             same_client
               (client_of_space ~doc (P.client_space (Pruned.client pruned i))))
           [ 1; 2; 3; 4 ]
      && same_client
           (client_of_space ~doc (P.server_space (Pruned.server pruned)))
      && same_stable (P.server_pruned_to (Pruned.server pruned)) doc)

(* Writing a stable snapshot allocates its buffer and its string, both
   too large for the minor heap here, and nothing per element. *)
let test_stable_writer_allocation () =
  let n = 20_000 in
  let doc =
    Document.of_elements
      (List.init n (fun k ->
           Element.make
             ~value:(Char.chr (k mod 256))
             ~id:(Op_id.make ~client:(k mod 7) ~seq:(k + 1))))
  in
  let snap = { Jupiter_css.Snapshot.at_serial = n; stable_doc = doc } in
  ignore (Jupiter_css.Snapshot.stable_to_string snap);
  let before = Gc.minor_words () in
  let s = Jupiter_css.Snapshot.stable_to_string snap in
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool) "wrote every element" true (String.length s > 10 * n);
  let per_element = words /. float_of_int n in
  Alcotest.(check bool)
    (Printf.sprintf "%.4f minor words per element <= 1" per_element)
    true (per_element <= 1.0)

(* --- compaction allocation ------------------------------------------- *)

(* A fixed css-pruned session driven message by message, two clients.
   Each round both clients type [burst] characters at the front of their
   views concurrently, the server serializes and broadcasts them, and a
   heartbeat from each client makes the whole round stable: the server
   answers the second with a [Stable] notice, which compacts each
   client's space (a grid of [(burst + 1)²] states) onto its final
   state.  Returns the minor words the clients' [Stable] receipts
   allocated, per receipt. *)
let client_compaction_words ~rounds ~burst =
  let module P = Jupiter_css.Pruned_protocol in
  let nclients = 2 and fastpath = Space.Fastpath.create () in
  let server =
    P.create_server ~fastpath ~nclients ~initial:Document.empty
  in
  let clients =
    Array.init nclients (fun i ->
        P.create_client ~fastpath ~nclients ~id:(i + 1) ~initial:Document.empty)
  in
  let send from msg =
    List.iter
      (fun (dst, m) -> P.client_receive clients.(dst - 1) m)
      (P.server_receive server ~from msg)
  in
  let words = ref 0.0 and receipts = ref 0 and states_left = ref 0 in
  for _ = 1 to rounds do
    let updates =
      Array.map
        (fun c ->
          List.init burst (fun _ ->
              Option.get (snd (P.client_generate c (Intent.Insert ('x', 0))))))
        clients
    in
    Array.iteri (fun i us -> List.iter (send (i + 1)) us) updates;
    let notices =
      List.concat_map
        (fun i ->
          P.server_receive server ~from:(i + 1)
            (P.client_heartbeat clients.(i)))
        [ 0; 1 ]
    in
    List.iter
      (fun (dst, m) ->
        let c = clients.(dst - 1) in
        let before = Gc.minor_words () in
        P.client_receive c m;
        words := !words +. (Gc.minor_words () -. before);
        incr receipts;
        states_left := max !states_left (Space.num_states (P.client_space c)))
      notices
  done;
  Alcotest.(check (pair int int))
    "one notice per client and round, each compacting onto the final state"
    (nclients * rounds, 1)
    (!receipts, !states_left);
  !words /. float_of_int !receipts

(* A pruned client compacts without replaying the stable prefix into a
   document: it checks the prefix on the leftmost path and drops and
   rebases the states, and nothing reads a client's document at its
   root.  The session's client compactions allocate at most 806 minor
   words each (798.5 measured, bounded with 1 % headroom; 8 operations
   on each compacted path, documents of up to 160 elements; 1 317.6
   when every client replayed the path into a document of its own,
   837.5 when each step of the walk allocated an [Option.map] closure).
   OCaml 5 without flambda counts allocations exactly, so the figure is
   the same on every run. *)
let words_per_client_compaction_budget = 806.0

let test_client_compaction_words () =
  let per_compaction = client_compaction_words ~rounds:20 ~burst:4 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f minor words per client compaction <= %.0f"
       per_compaction words_per_client_compaction_budget)
    true
    (per_compaction <= words_per_client_compaction_budget)

let () =
  Alcotest.run "pruning"
    [
      ( "compact",
        [
          Alcotest.test_case "noop at the root" `Quick test_compact_noop;
          Alcotest.test_case "prune one operation" `Quick test_compact_one_op;
          Alcotest.test_case "collapse to final" `Quick test_compact_to_final;
          Alcotest.test_case "without a document" `Quick
            test_compact_without_document;
          Alcotest.test_case "rejects non-states" `Quick
            test_compact_rejects_non_state;
          Alcotest.test_case "rejects states below the root" `Quick
            test_compact_rejects_below_root;
          Alcotest.test_case "rejects non-prefixes" `Quick
            test_compact_rejects_non_prefix;
          Alcotest.test_case "rejects unreachable states" `Quick
            test_compact_rejects_unreachable;
          Alcotest.test_case "operations after compaction" `Quick
            test_add_op_after_compact;
          Alcotest.test_case "client compaction allocation" `Quick
            test_client_compaction_words;
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
      ( "writer",
        [
          Alcotest.test_case "Printf bytes on fixed documents" `Quick
            test_writer_bytes_fixed;
          prop_writer_bytes_random_docs;
          prop_writer_bytes_sessions;
          Alcotest.test_case "stable writer allocation" `Quick
            test_stable_writer_allocation;
        ] );
    ]
