(* Tests for the state-space algebra (union / of_raw) and the
   executable counterparts of Examples 8.2 and 8.3: union of replica
   spaces *with* Proposition 6.6 is idempotent, while the union of the
   Figure 8 (incorrect protocol) behaviours breaks confluence, LCA
   uniqueness, and path disjointness. *)

open Rlist_model
open Rlist_ot
module Space = Jupiter_css.State_space
module Css = Helpers.Css_run.E

let serial_key serials id =
  match Hashtbl.find_opt serials id with
  | Some s -> Jupiter_css.Order_key.Serialized s
  | None -> Jupiter_css.Order_key.Pending id.Op_id.seq

(* --- of_raw ------------------------------------------------------------ *)

let test_of_raw_validation () =
  let serials = Hashtbl.create 4 in
  let key = serial_key serials in
  let o1 = Helpers.ins ~client:1 'a' 0 in
  Hashtbl.replace serials o1.Op.id 1;
  let s1 = Op_id.Set.singleton o1.Op.id in
  Alcotest.(check bool)
    "missing target rejected" true
    (try
       ignore
         (Space.of_raw ~key_of:key ~root:Space.initial_state ~final:s1
            [
              ( Space.initial_state,
                [ { Space.orig = o1.Op.id; form = o1; target = s1 } ] );
            ]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "missing root rejected" true
    (try
       ignore (Space.of_raw ~key_of:key ~root:Space.initial_state ~final:s1
                 [ s1, [] ]);
       false
     with Invalid_argument _ -> true);
  (* a valid raw space behaves like a built one *)
  let space =
    Space.of_raw ~key_of:key ~root:Space.initial_state ~final:s1
      [
        ( Space.initial_state,
          [ { Space.orig = o1.Op.id; form = o1; target = s1 } ] );
        s1, [];
      ]
  in
  Alcotest.(check int) "two states" 2 (Space.num_states space);
  Alcotest.(check int)
    "leftmost path length" 1
    (List.length (Space.leftmost_path space Space.initial_state))

(* The space stores positions in 32 bits: the largest int32 position
   reads back unchanged, and the next one is refused rather than
   wrapped. *)
let test_of_raw_position_range () =
  let build pos =
    let o1 = Helpers.ins ~client:1 'a' pos in
    let s1 = Op_id.Set.singleton o1.Op.id in
    Space.of_raw
      ~key_of:(fun _ -> Jupiter_css.Order_key.Serialized 1)
      ~root:Space.initial_state ~final:s1
      [
        ( Space.initial_state,
          [ { Space.orig = o1.Op.id; form = o1; target = s1 } ] );
        s1, [];
      ]
  in
  let top = Int32.to_int Int32.max_int in
  (match Space.transitions (build top) Space.initial_state with
  | [ tr ] ->
    Alcotest.(check (option int)) "largest position kept" (Some top)
      (Op.position tr.Space.form)
  | trs -> Alcotest.failf "%d transitions" (List.length trs));
  match build (top + 1) with
  | _ -> Alcotest.fail "position 2^31 accepted"
  | exception Invalid_argument _ -> ()

(* --- union under Proposition 6.6 --------------------------------------- *)

let test_union_idempotent_for_css () =
  (* With Prop 6.6 the replica spaces are equal, so unions add
     nothing. *)
  let t = Helpers.Css_run.scenario Rlist_sim.Figures.figure2 in
  let server = Jupiter_css.Protocol.server_space (Css.server t) in
  let c2 = Jupiter_css.Protocol.client_space (Css.client t 2) in
  let u = Space.union server c2 in
  Alcotest.(check bool) "union equals server space" true
    (Space.equal u server);
  Alcotest.(check bool) "union equals client space" true (Space.equal u c2)

(* --- Example 8.2: union without Prop 6.6 -------------------------------- *)

(* The Figure 8 execution, as two per-client chains of (incorrectly)
   transformed operations over "abc":
     C1: {} -o1-> {1} -o3{1}-> {1,3} -o2{1,3}-> {1,2,3}
     C2: {} -o2-> {2} -o3{2}-> {2,3} -o1{2,3}-> {1,2,3}         *)
let figure8_union () =
  let doc = Document.of_string "abc" in
  let o1 = Helpers.ins ~client:1 'x' 2 in
  let o2 = Helpers.del ~client:2 (Document.nth doc 1) 1 in
  let o3 = Helpers.ins ~client:3 'y' 1 in
  let serials = Hashtbl.create 4 in
  Hashtbl.replace serials o1.Op.id 3;
  Hashtbl.replace serials o2.Op.id 2;
  Hashtbl.replace serials o3.Op.id 1;
  let key = serial_key serials in
  let id op = op.Op.id in
  let set ops = Op_id.Set.of_list (List.map id ops) in
  let tr orig form target = { Space.orig = orig.Op.id; form; target } in
  let np = Transform.xform_no_priority in
  let chain1 =
    (* C1's execution: o1; o3 transformed against o1; o2 transformed
       against o1 then o3{1}. *)
    let o3_1 = np o3 o1 in
    let o2_13 = np (np o2 o1) o3_1 in
    Space.of_raw ~key_of:key ~root:Space.initial_state ~final:(set [ o1; o2; o3 ])
      [
        Space.initial_state, [ tr o1 o1 (set [ o1 ]) ];
        set [ o1 ], [ tr o3 o3_1 (set [ o1; o3 ]) ];
        set [ o1; o3 ], [ tr o2 o2_13 (set [ o1; o2; o3 ]) ];
        set [ o1; o2; o3 ], [];
      ]
  in
  let chain2 =
    let o3_2 = np o3 o2 in
    let o1_23 = np (np o1 o2) o3_2 in
    Space.of_raw ~key_of:key ~root:Space.initial_state ~final:(set [ o1; o2; o3 ])
      [
        Space.initial_state, [ tr o2 o2 (set [ o2 ]) ];
        set [ o2 ], [ tr o3 o3_2 (set [ o2; o3 ]) ];
        set [ o2; o3 ], [ tr o1 o1_23 (set [ o1; o2; o3 ]) ];
        set [ o1; o2; o3 ], [];
      ]
  in
  Space.union chain1 chain2

let test_example_8_2_confluence_fails () =
  (* The two chains reach the "same" state {1,2,3} with different
     documents ("ayxc" vs "axyc") — replaying the union detects it. *)
  let u = figure8_union () in
  Alcotest.(check bool)
    "document replay detects non-confluence" true
    (try
       ignore
         (Jupiter_css.Analysis.documents u
            ~initial:(Document.of_string "abc"));
       false
     with Invalid_argument _ -> true)

let test_example_8_3_disjoint_paths_fail () =
  (* Lemma 8.5 fails on the union: the paths from the initial state to
     {1,3} and to {2,3} both involve o3. *)
  let u = figure8_union () in
  Alcotest.(check bool)
    "disjoint-paths lemma fails" true
    (Result.is_error (Jupiter_css.Analysis.check_disjoint_paths u))

let test_union_conflicting_transitions_rejected () =
  (* Merging spaces that disagree on a transition's form must fail
     loudly rather than silently pick one. *)
  let serials = Hashtbl.create 4 in
  let key = serial_key serials in
  let o1 = Helpers.ins ~client:1 'a' 0 in
  let o1' = Helpers.ins ~client:1 'a' 1 in
  (* same identity, different form *)
  Hashtbl.replace serials o1.Op.id 1;
  let s1 = Op_id.Set.singleton o1.Op.id in
  let mk form =
    Space.of_raw ~key_of:key ~root:Space.initial_state ~final:s1
      [
        ( Space.initial_state,
          [ { Space.orig = o1.Op.id; form; target = s1 } ] );
        s1, [];
      ]
  in
  Alcotest.(check bool)
    "conflict rejected" true
    (try
       ignore (Space.union (mk o1) (mk o1'));
       false
     with Invalid_argument _ -> true)

let prop_union_commutes_on_css_spaces =
  Helpers.qtest ~count:30 "union of equal spaces is equal both ways"
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let params =
        { Rlist_sim.Schedule.default_params with updates = 12 }
      in
      let t, _ = Helpers.Css_run.random ~nclients:3 ~params seed in
      let s = Jupiter_css.Protocol.server_space (Css.server t) in
      let c = Jupiter_css.Protocol.client_space (Css.client t 1) in
      Space.equal (Space.union s c) (Space.union c s))

(* --- Form store ---------------------------------------------------------- *)

(* An edge stores its form's position, and each operation one form of
   its own; a form is rebuilt from the two when read. *)

let transition_at space state orig =
  List.find
    (fun (tr : Space.transition) -> Op_id.equal tr.orig orig)
    (Space.transitions space state)

let test_nop_only_form () =
  (* Two concurrent deletions of the same element: [o2] appears in the
     first space only as the no-op it becomes after [o1], in the second
     also as itself. *)
  let serials = Hashtbl.create 4 in
  let key = serial_key serials in
  let e = Helpers.elt ~client:9 'a' in
  let o1 = Helpers.del ~client:1 e 0 and o2 = Helpers.del ~client:2 e 0 in
  Hashtbl.replace serials o1.Op.id 1;
  Hashtbl.replace serials o2.Op.id 2;
  let set ops = Op_id.Set.of_list (List.map (fun o -> o.Op.id) ops) in
  let tr orig form target = { Space.orig = orig.Op.id; form; target } in
  let nop2 = Op.nop ~id:o2.Op.id and nop1 = Op.nop ~id:o1.Op.id in
  let raw =
    [
      Space.initial_state, [ tr o1 o1 (set [ o1 ]) ];
      set [ o1 ], [ tr o2 nop2 (set [ o1; o2 ]) ];
      set [ o1; o2 ], [];
    ]
  in
  let make raw =
    Space.of_raw ~key_of:key ~root:Space.initial_state ~final:(set [ o1; o2 ])
      raw
  in
  let a = make raw in
  Alcotest.check Helpers.op "the no-op reads back" nop2
    (transition_at a (set [ o1 ]) o2.Op.id).form;
  Alcotest.(check bool) "equal to its own rebuild" true (Space.equal a (make raw));
  let moved =
    make
      [
        Space.initial_state, [ tr o1 o1 (set [ o1 ]) ];
        set [ o1 ], [ tr o2 o2 (set [ o1; o2 ]) ];
        set [ o1; o2 ], [];
      ]
  in
  Alcotest.(check bool) "unequal to a space with o2 itself there" false
    (Space.equal a moved);
  let b =
    make
      [
        Space.initial_state, [ tr o2 o2 (set [ o2 ]) ];
        set [ o2 ], [ tr o1 nop1 (set [ o1; o2 ]) ];
        set [ o1; o2 ], [];
      ]
  in
  List.iter
    (fun (name, u) ->
      Alcotest.check Helpers.op (name ^ ": o2 is a no-op after o1") nop2
        (transition_at u (set [ o1 ]) o2.Op.id).form;
      Alcotest.check Helpers.op (name ^ ": o1 is a no-op after o2") nop1
        (transition_at u (set [ o2 ]) o1.Op.id).form;
      Alcotest.check Helpers.op (name ^ ": o2 itself from the root") o2
        (transition_at u Space.initial_state o2.Op.id).form;
      Alcotest.check Helpers.op (name ^ ": o1 itself from the root") o1
        (transition_at u Space.initial_state o1.Op.id).form)
    [
      "union a b", Space.union a b;
      "union b a", Space.union b a;
      (* the no-op listed before the deletion itself *)
      ( "nop first",
        make
          [
            set [ o1 ], [ tr o2 nop2 (set [ o1; o2 ]) ];
            ( Space.initial_state,
              [ tr o1 o1 (set [ o1 ]); tr o2 o2 (set [ o2 ]) ] );
            set [ o2 ], [ tr o1 nop1 (set [ o1; o2 ]) ];
            set [ o1; o2 ], [];
          ] );
    ];
  Alcotest.(check bool) "union commutes" true
    (Space.equal (Space.union a b) (Space.union b a))

let test_forms_survive_compact () =
  (* Compaction drops the oldest operations and renumbers the rest; every
     surviving transition must still read the form it read before. *)
  let params = { Rlist_sim.Schedule.default_params with updates = 30 } in
  let t, _ = Helpers.Css_run.random ~nclients:3 ~params 7 in
  let space = Jupiter_css.Protocol.server_space (Css.server t) in
  let path = Space.leftmost_path space (Space.root space) in
  let stable = (List.nth path (List.length path / 2)).Space.target in
  let rebase s = Op_id.Set.diff s stable in
  let before =
    List.filter_map
      (fun (s, trs) ->
        if Op_id.Set.subset stable s then
          Some
            ( rebase s,
              List.map
                (fun (tr : Space.transition) ->
                  { tr with Space.target = rebase tr.Space.target })
                trs )
        else None)
      (Space.listing space)
  in
  let states = Space.num_states space in
  ignore (Space.compact space ~stable ~base_doc:Document.empty);
  let after = Space.listing space in
  Alcotest.(check bool) "states dropped" true (Space.num_states space < states);
  Alcotest.(check int) "survivors" (List.length before) (List.length after);
  List.iter
    (fun (s, trs) ->
      Alcotest.(check (list Helpers.op))
        (Format.asprintf "forms at %a" Space.pp_state s)
        (List.map (fun (tr : Space.transition) -> tr.form) trs)
        (List.map
           (fun (tr : Space.transition) -> tr.form)
           (Space.transitions space s)))
    before

let test_unshifted_form_is_original () =
  (* [x] (client 2) is serialized first and [y] (client 1) concurrent
     with it, both at position 0: [y] shifts past [x], [x] stays put.
     Every place [x] reads unshifted is the operation itself, not a
     copy; [y]'s shifted form is a new one. *)
  let serials = Hashtbl.create 4 in
  let key = serial_key serials in
  let x = Helpers.ins ~client:2 'x' 0 and y = Helpers.ins ~client:1 'y' 0 in
  Hashtbl.replace serials x.Op.id 1;
  Hashtbl.replace serials y.Op.id 2;
  let space = Space.create ~key_of:key () in
  let fx = Space.add_op space (Context.with_context x ~ctx:Context.empty) in
  let fy = Space.add_op space (Context.with_context y ~ctx:Context.empty) in
  Alcotest.(check bool) "quiescent add_op returns x itself" true (fx == x);
  Alcotest.check Helpers.op "y shifts past x" (Helpers.ins ~client:1 'y' 1) fy;
  let sx = Op_id.Set.singleton x.Op.id and sy = Op_id.Set.singleton y.Op.id in
  List.iter
    (fun (name, form) -> Alcotest.(check bool) name true (form == x))
    [
      "x from the root", (transition_at space Space.initial_state x.Op.id).form;
      "x after y", (transition_at space sy x.Op.id).form;
      "x on the leftmost path", (List.hd (Space.leftmost_path space Space.initial_state)).form;
    ];
  Alcotest.(check bool) "y from the root is y itself" true
    ((transition_at space Space.initial_state y.Op.id).form == y);
  Alcotest.(check bool) "y after x is a new form" false
    ((transition_at space sx y.Op.id).form == y)

let () =
  Alcotest.run "algebra"
    [
      ( "of_raw",
        [
          Alcotest.test_case "validation" `Quick test_of_raw_validation;
          Alcotest.test_case "positions beyond 32 bits" `Quick
            test_of_raw_position_range;
        ] );
      ( "union",
        [
          Alcotest.test_case "idempotent under Prop 6.6" `Quick
            test_union_idempotent_for_css;
          Alcotest.test_case "conflicts rejected" `Quick
            test_union_conflicting_transitions_rejected;
          prop_union_commutes_on_css_spaces;
        ] );
      ( "form store",
        [
          Alcotest.test_case "an operation seen only as a no-op" `Quick
            test_nop_only_form;
          Alcotest.test_case "forms survive compaction" `Quick
            test_forms_survive_compact;
          Alcotest.test_case "an unshifted form is the original" `Quick
            test_unshifted_form_is_original;
        ] );
      ( "examples 8.2 / 8.3",
        [
          Alcotest.test_case "confluence fails on the figure-8 union" `Quick
            test_example_8_2_confluence_fails;
          Alcotest.test_case "disjoint paths fail on the figure-8 union"
            `Quick test_example_8_3_disjoint_paths_fail;
        ] );
    ]
