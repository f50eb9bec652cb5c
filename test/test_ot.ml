(* Unit and property tests for the operational-transformation layer:
   operation application, the transformation functions, CP1
   (Definition 4.4), and contexts. *)

open Rlist_model
open Rlist_ot

let apply_str op s = Document.to_string (Op.apply op (Document.of_string s))

let test_apply_ins () =
  Alcotest.(check string) "middle" "axbc" (apply_str (Helpers.ins 'x' 1) "abc");
  Alcotest.(check string) "head" "xabc" (apply_str (Helpers.ins 'x' 0) "abc");
  Alcotest.(check string) "tail" "abcx" (apply_str (Helpers.ins 'x' 3) "abc")

let test_apply_del () =
  let doc = Document.of_string "abc" in
  let b = Document.nth doc 1 in
  Alcotest.(check string)
    "delete b" "ac"
    (Document.to_string (Op.apply (Helpers.del b 1) doc))

let test_apply_del_wrong_element () =
  (* Deleting with a stale position must fail loudly: it means an
     operation escaped its context. *)
  let doc = Document.of_string "abc" in
  let b = Document.nth doc 1 in
  Alcotest.(check bool)
    "wrong position rejected" true
    (try
       ignore (Op.apply (Helpers.del b 2) doc);
       false
     with Invalid_argument _ -> true)

let test_apply_nop () =
  let doc = Document.of_string "abc" in
  Alcotest.check Helpers.document "nop" doc
    (Op.apply (Op.nop ~id:(Op_id.make ~client:1 ~seq:1)) doc)

let test_accessors () =
  let i = Helpers.ins 'x' 2 in
  Alcotest.(check bool)
    "is_ins" true
    (match i.Op.action with
    | Op.Ins _ -> true
    | Op.Del _ | Op.Nop -> false);
  Alcotest.(check bool) "not del" false (Op.is_del i);
  Alcotest.(check (option int)) "position" (Some 2) (Op.position i);
  let n = Op.nop ~id:(Op_id.make ~client:1 ~seq:1) in
  Alcotest.(check bool) "is_nop" true (Op.is_nop n);
  Alcotest.(check (option int)) "nop position" None (Op.position n);
  Alcotest.(check bool) "nop element" true (Op.element n = None)

(* --- Transformation cases ------------------------------------------- *)

let test_xform_ins_ins () =
  let o1 = Helpers.ins ~client:1 'x' 1 in
  let o2 = Helpers.ins ~client:2 'y' 3 in
  Alcotest.check Helpers.op "before: unchanged" o1 (Transform.xform o1 o2);
  Alcotest.check Helpers.op "after: shifted"
    (Helpers.ins ~client:2 'y' 4)
    (Transform.xform o2 o1)

let test_xform_ins_ins_tie () =
  (* Same position: the higher-priority element (larger client) stays,
     the other shifts — ending with the higher-priority element on the
     left (cf. Figure 7: final list "ba" with b from client 3). *)
  let low = Helpers.ins ~client:1 'x' 2 in
  let high = Helpers.ins ~client:2 'y' 2 in
  Alcotest.check Helpers.op "low shifts"
    (Helpers.ins ~client:1 'x' 3)
    (Transform.xform low high);
  Alcotest.check Helpers.op "high stays" high (Transform.xform high low)

let test_xform_ins_del () =
  let doc = Document.of_string "abcde" in
  let d = Helpers.del (Document.nth doc 1) 1 in
  Alcotest.check Helpers.op "insert before deletion: unchanged"
    (Helpers.ins 'x' 1)
    (Transform.xform (Helpers.ins 'x' 1) d);
  Alcotest.check Helpers.op "insert at deletion point: unchanged"
    (Helpers.ins 'x' 1)
    (Transform.xform (Helpers.ins 'x' 1) d);
  Alcotest.check Helpers.op "insert after deletion: shifted left"
    (Helpers.ins 'x' 2)
    (Transform.xform (Helpers.ins 'x' 3) d)

let test_xform_del_ins () =
  let doc = Document.of_string "abcde" in
  let del_c = Helpers.del (Document.nth doc 2) 2 in
  Alcotest.check Helpers.op "delete before insert: unchanged" del_c
    (Transform.xform del_c (Helpers.ins ~client:2 'x' 4));
  Alcotest.check Helpers.op "delete at insert point: shifted"
    (Helpers.del (Document.nth doc 2) 3)
    (Transform.xform del_c (Helpers.ins ~client:2 'x' 2));
  Alcotest.check Helpers.op "delete after insert: shifted"
    (Helpers.del (Document.nth doc 2) 3)
    (Transform.xform del_c (Helpers.ins ~client:2 'x' 0))

let test_xform_del_del () =
  let doc = Document.of_string "abcde" in
  let del_at p = Helpers.del ~client:1 (Document.nth doc p) p in
  let del2_at p = Helpers.del ~client:2 ~seq:7 (Document.nth doc p) p in
  Alcotest.check Helpers.op "before: unchanged" (del_at 1)
    (Transform.xform (del_at 1) (del2_at 3));
  Alcotest.check Helpers.op "after: shifted left"
    (Helpers.del ~client:1 (Document.nth doc 3) 2)
    (Transform.xform (del_at 3) (del2_at 1));
  Alcotest.(check bool)
    "same element cancels to Nop" true
    (Op.is_nop (Transform.xform (del_at 2) (del2_at 2)))

let test_xform_nop () =
  let o = Helpers.ins 'x' 1 in
  let n = Op.nop ~id:(Op_id.make ~client:2 ~seq:1) in
  Alcotest.check Helpers.op "against nop: unchanged" o (Transform.xform o n);
  Alcotest.(check bool) "nop stays nop" true (Op.is_nop (Transform.xform n o))

(* --- Position-level transform ------------------------------------------ *)

(* [Transform.xform_pos] reads each operation's kind and element from a
   form and its position from an integer ([Op.no_pos]: a no-op); the
   forms' own positions play no part, so every case below gives
   positions that differ from them. *)
let pos_check = Alcotest.(check int)

let test_xform_pos_nop () =
  let i = Helpers.ins ~client:1 'x' 7 in
  let d = Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 0 in
  let n = Op.nop ~id:(Op_id.make ~client:3 ~seq:1) in
  pos_check "no-op against an insertion" Op.no_pos
    (Transform.xform_pos i Op.no_pos d 0);
  pos_check "no-op against a deletion" Op.no_pos
    (Transform.xform_pos d Op.no_pos i 0);
  pos_check "insertion against a no-op" 3 (Transform.xform_pos i 3 d Op.no_pos);
  pos_check "deletion against a Nop form" 3
    (Transform.xform_pos d 3 n Op.no_pos);
  pos_check "Nop form against an insertion" Op.no_pos
    (Transform.xform_pos n Op.no_pos i 0)

let test_xform_pos_del_del () =
  let e = Helpers.elt ~client:9 'q' in
  let d1 = Helpers.del ~client:1 e 0 and d2 = Helpers.del ~client:2 e 9 in
  pos_check "same position: no-op" Op.no_pos (Transform.xform_pos d1 4 d2 4);
  pos_check "before: unchanged" 3 (Transform.xform_pos d1 3 d2 4);
  pos_check "after: shifted left" 4 (Transform.xform_pos d1 5 d2 4)

let test_xform_pos_ins_tie () =
  (* The higher-priority element (larger client) keeps its position. *)
  let low = Helpers.ins ~client:1 'x' 0 in
  let high = Helpers.ins ~client:2 'y' 0 in
  pos_check "tie lost: shifts right" 5 (Transform.xform_pos low 4 high 4);
  pos_check "tie won: stays" 4 (Transform.xform_pos high 4 low 4)

let test_xform_pos_ins_del () =
  let i = Helpers.ins ~client:1 'x' 0 in
  let d = Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 0 in
  pos_check "insertion after the deletion: shifted left" 5
    (Transform.xform_pos i 6 d 2);
  pos_check "insertion at the deleted position: unchanged" 2
    (Transform.xform_pos i 2 d 2);
  pos_check "deletion after the insertion: shifted right" 7
    (Transform.xform_pos d 6 i 2)

(* [xform] is [xform_pos] followed by [Op.at]: a form whose position
   does not move comes back itself, not as a copy. *)
let test_xform_physical () =
  let o1 = Helpers.ins ~client:1 'x' 1 and o2 = Helpers.ins ~client:2 'y' 3 in
  Alcotest.(check bool)
    "unmoved: the same form" true
    (Transform.xform o1 o2 == o1);
  let moved = Transform.xform o2 o1 in
  Alcotest.check Helpers.op "moved: a new form"
    (Helpers.ins ~client:2 'y' 4)
    moved;
  pos_check "moved: xform_pos agrees" (Op.pos moved)
    (Transform.xform_pos o2 (Op.pos o2) o1 (Op.pos o1))

(* The broken variant shares the case analysis: only an Ins/Ins tie
   differs (neither side shifts), and a Del/Del meeting at one position
   cancels without checking that the elements agree. *)
let test_xform_no_priority () =
  let low = Helpers.ins ~client:1 'x' 2 in
  let high = Helpers.ins ~client:2 'y' 2 in
  Alcotest.(check bool) "tie: low stays" true
    (Transform.xform_no_priority low high == low);
  Alcotest.(check bool) "tie: high stays" true
    (Transform.xform_no_priority high low == high);
  Alcotest.check Helpers.op "insertion after: shifted"
    (Helpers.ins ~client:1 'x' 3)
    (Transform.xform_no_priority low (Helpers.ins ~client:2 'y' 1));
  let d1 = Helpers.del ~client:1 (Helpers.elt ~client:8 'p') 2 in
  let d2 = Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 2 in
  Alcotest.(check bool) "del/del, distinct elements: Nop" true
    (Op.is_nop (Transform.xform_no_priority d1 d2));
  Alcotest.check Helpers.op "ins after del: shifted left"
    (Helpers.ins ~client:1 'x' 1)
    (Transform.xform_no_priority (Helpers.ins ~client:1 'x' 2)
       (Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 0))

let test_figure1_transform () =
  (* The paper's Example 4.2: OT(Ins(f,1), Del(e,5)) =
     (Ins(f,1), Del(e,6)). *)
  let doc = Document.of_string "efecte" in
  let o1 = Helpers.ins ~client:1 'f' 1 in
  let o2 = Helpers.del ~client:2 (Document.nth doc 5) 5 in
  let o1', o2' = Transform.xform_pair o1 o2 in
  Alcotest.check Helpers.op "o1 unchanged" o1 o1';
  Alcotest.(check (option int)) "o2 shifted to 6" (Some 6) (Op.position o2');
  Alcotest.(check string)
    "both orders give \"effect\"" "effect"
    (Document.to_string (Op.apply o2' (Op.apply o1 doc)));
  Alcotest.(check string)
    "other order too" "effect"
    (Document.to_string (Op.apply o1' (Op.apply o2 doc)))

let test_xform_seq () =
  (* Transforming against a sequence folds left and also returns the
     sequence transformed against the operation. *)
  let doc = Document.of_string "abc" in
  let o = Helpers.ins ~client:1 'x' 0 in
  let l = [ Helpers.ins ~client:2 'y' 0; Helpers.ins ~client:3 ~seq:2 'z' 0 ] in
  let o', l' = Transform.xform_seq o l in
  Alcotest.(check int) "sequence length preserved" 2 (List.length l');
  (* Executing doc;l;o' must equal doc;o;l' element-wise. *)
  let via_l = Op.apply o' (List.fold_left (fun d x -> Op.apply x d) doc l) in
  let via_o = List.fold_left (fun d x -> Op.apply x d) (Op.apply o doc) l' in
  Alcotest.check Helpers.document "CP1 extended to sequences" via_l via_o

let test_check_cp1_example () =
  let doc = Document.of_string "efecte" in
  let o1 = Helpers.ins ~client:1 'f' 1 in
  let o2 = Helpers.del ~client:2 (Document.nth doc 5) 5 in
  Alcotest.(check bool) "cp1 holds" true (Transform.check_cp1 doc o1 o2)

let test_no_priority_breaks_cp1 () =
  (* Two inserts at the same position: without the priority tie-break
     the two execution orders give different lists. *)
  let doc = Document.of_string "ac" in
  let o1 = Helpers.ins ~client:1 'x' 1 in
  let o2 = Helpers.ins ~client:2 'y' 1 in
  let o1' = Transform.xform_no_priority o1 o2 in
  let o2' = Transform.xform_no_priority o2 o1 in
  let left = Document.to_string (Op.apply o2' (Op.apply o1 doc)) in
  let right = Document.to_string (Op.apply o1' (Op.apply o2 doc)) in
  Alcotest.(check bool) "orders diverge" false (String.equal left right)

let prop_cp1 =
  Helpers.qtest ~count:2000 "CP1 on random same-context pairs"
    Helpers.gen_cp1_instance (fun (doc, o1, o2) ->
      Transform.check_cp1 doc o1 o2)

let prop_cp1_exhaustive =
  (* All pairs of operations on a fixed 3-element document: complete
     coverage of the case analysis including every boundary. *)
  Alcotest.test_case "CP1 exhaustively on a small document" `Quick (fun () ->
      let doc = Document.of_string "abc" in
      let ops_for client =
        List.concat
          [
            List.init 4 (fun p ->
                let id = Op_id.make ~client ~seq:1 in
                Op.make_ins ~id (Element.make ~value:'x' ~id) p);
            List.init 3 (fun p ->
                Op.make_del
                  ~id:(Op_id.make ~client ~seq:1)
                  (Document.nth doc p) p);
          ]
      in
      List.iter
        (fun o1 ->
          List.iter
            (fun o2 ->
              if not (Transform.check_cp1 doc o1 o2) then
                Alcotest.failf "CP1 fails for %a / %a" Op.pp o1 Op.pp o2)
            (ops_for 2))
        (ops_for 1))

let prop_xform_preserves_kind =
  (* OTs preserve the type of operations (or degrade deletes to Nop) —
     the fact footnote 10 and Lemma 8.6 rely on. *)
  Helpers.qtest "transformation preserves operation kind"
    Helpers.gen_cp1_instance (fun (_, o1, o2) ->
      let o1' = Transform.xform o1 o2 in
      match o1.Op.action, o1'.Op.action with
      | Op.Ins _, Op.Ins _ -> true
      | Op.Del _, (Op.Del _ | Op.Nop) -> true
      | _ -> false)

let prop_xform_preserves_element =
  Helpers.qtest "transformation preserves the element"
    Helpers.gen_cp1_instance (fun (_, o1, o2) ->
      let o1' = Transform.xform o1 o2 in
      Op.is_nop o1'
      ||
      match Op.element o1, Op.element o1' with
      | Some e, Some e' -> Element.equal e e'
      | _ -> false)

(* --- CP2 -------------------------------------------------------------- *)

(* The "dOPT puzzle": an insertion and a deletion at the same position
   plus a third insertion one to the right.  Transforming o3 against
   o1 then o2{o1} gives a different operation than against o2 then
   o1{o2}. *)
let cp2_witness () =
  let doc = Document.of_string "abcd" in
  let o1 = Helpers.ins ~client:1 'x' 0 in
  let o2 = Helpers.del ~client:2 (Document.nth doc 0) 0 in
  let o3 = Helpers.ins ~client:3 'z' 1 in
  doc, o1, o2, o3

let test_cp2_violated () =
  let _, o1, o2, o3 = cp2_witness () in
  (* CP1 holds pairwise... *)
  let doc, _, _, _ = cp2_witness () in
  Alcotest.(check bool) "cp1 o1/o2" true (Transform.check_cp1 doc o1 o2);
  Alcotest.(check bool) "cp1 o1/o3" true (Transform.check_cp1 doc o1 o3);
  Alcotest.(check bool) "cp1 o2/o3" true (Transform.check_cp1 doc o2 o3);
  (* ...but CP2 does not: the transformation order matters. *)
  Alcotest.(check bool) "cp2 violated" false (Transform.check_cp2 o1 o2 o3)

let test_cp2_witness_converges_under_jupiter () =
  (* The whole point of Jupiter's total order: even though CP2 fails
     for these three operations, every replica transforms along the
     same (serialization-ordered) leftmost paths, so the system still
     converges and satisfies the weak specification. *)
  let module E = Helpers.Css_run.E in
  let t = E.create ~initial:(Document.of_string "abcd") ~nclients:3 () in
  E.run t
    [
      Generate (1, Intent.Insert ('x', 0));
      Generate (2, Intent.Delete 0);
      Generate (3, Intent.Insert ('z', 1));
    ];
  ignore (E.quiesce t);
  E.run t (Rlist_sim.Schedule.final_reads ~nclients:3);
  Alcotest.(check bool) "converged despite CP2" true (E.converged t);
  Helpers.check_satisfied "weak" (Rlist_spec.Weak_spec.check (E.trace t))

let prop_cp2_violations_exist =
  (* CP2 violations are not rare corner cases: a modest random search
     over same-context triples must find some. *)
  Alcotest.test_case "CP2 violations are abundant" `Quick (fun () ->
      let rng = Random.State.make [| 2026 |] in
      let doc = Document.of_string "abcdef" in
      let random_op client =
        let len = Document.length doc in
        if Random.State.bool rng then
          let id = Op_id.make ~client ~seq:1 in
          Op.make_ins ~id
            (Element.make ~value:'q' ~id)
            (Random.State.int rng (len + 1))
        else
          let p = Random.State.int rng len in
          Op.make_del ~id:(Op_id.make ~client ~seq:1) (Document.nth doc p) p
      in
      let violations = ref 0 in
      for _ = 1 to 500 do
        if
          not
            (Transform.check_cp2 (random_op 1) (random_op 2) (random_op 3))
        then incr violations
      done;
      Alcotest.(check bool)
        (Printf.sprintf "found %d violations in 500 triples" !violations)
        true (!violations > 0))

(* --- Contexts -------------------------------------------------------- *)

let test_context_basics () =
  let o = Helpers.ins 'x' 0 in
  let ctx = Context.extend Context.empty o in
  Alcotest.(check bool) "mem after extend" true (Context.mem ctx o);
  Alcotest.(check bool) "empty subset" true (Context.subset Context.empty ctx);
  Alcotest.(check bool) "not reverse" false (Context.subset ctx Context.empty)

let test_context_self_rejected () =
  let o = Helpers.ins 'x' 0 in
  let ctx = Context.extend Context.empty o in
  Alcotest.(check bool)
    "operation inside its own context rejected" true
    (try
       ignore (Context.with_context o ~ctx);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "ot"
    [
      ( "apply",
        [
          Alcotest.test_case "insert" `Quick test_apply_ins;
          Alcotest.test_case "delete" `Quick test_apply_del;
          Alcotest.test_case "delete checks element" `Quick
            test_apply_del_wrong_element;
          Alcotest.test_case "nop" `Quick test_apply_nop;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
      ( "xform",
        [
          Alcotest.test_case "ins/ins" `Quick test_xform_ins_ins;
          Alcotest.test_case "ins/ins tie-break" `Quick test_xform_ins_ins_tie;
          Alcotest.test_case "ins/del" `Quick test_xform_ins_del;
          Alcotest.test_case "del/ins" `Quick test_xform_del_ins;
          Alcotest.test_case "del/del" `Quick test_xform_del_del;
          Alcotest.test_case "nop cases" `Quick test_xform_nop;
          Alcotest.test_case "paper Figure 1 / Example 4.2" `Quick
            test_figure1_transform;
          Alcotest.test_case "sequence transform" `Quick test_xform_seq;
          Alcotest.test_case "check_cp1 on the paper example" `Quick
            test_check_cp1_example;
          Alcotest.test_case "no-priority variant breaks CP1" `Quick
            test_no_priority_breaks_cp1;
          prop_cp1;
          prop_cp1_exhaustive;
          prop_xform_preserves_kind;
          prop_xform_preserves_element;
          Alcotest.test_case "positions: no-op on either side" `Quick
            test_xform_pos_nop;
          Alcotest.test_case "positions: del/del" `Quick test_xform_pos_del_del;
          Alcotest.test_case "positions: ins/ins tie won and lost" `Quick
            test_xform_pos_ins_tie;
          Alcotest.test_case "positions: ins/del" `Quick test_xform_pos_ins_del;
          Alcotest.test_case "unmoved form returned itself" `Quick
            test_xform_physical;
          Alcotest.test_case "no-priority variant cases" `Quick
            test_xform_no_priority;
        ] );
      ( "cp2",
        [
          Alcotest.test_case "the dOPT puzzle violates CP2" `Quick
            test_cp2_violated;
          Alcotest.test_case "Jupiter converges on the CP2 witness" `Quick
            test_cp2_witness_converges_under_jupiter;
          prop_cp2_violations_exist;
        ] );
      ( "context",
        [
          Alcotest.test_case "extend and membership" `Quick test_context_basics;
          Alcotest.test_case "self-context rejected" `Quick
            test_context_self_rejected;
        ] );
    ]
