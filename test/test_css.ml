(* Tests for the CSS protocol and its n-ary ordered state-space:
   Algorithm 1, transition ordering, Proposition 6.6 (compactness),
   Theorem 6.7 (convergence), Theorem 8.2 (weak list specification),
   and the structural lemmas of Section 8.2 (Figures 9/10). *)

open Rlist_model
open Rlist_ot
module Space = Jupiter_css.State_space
module E = Helpers.Css_run.E

let key_table () =
  let serials : (Op_id.t, int) Hashtbl.t = Hashtbl.create 8 in
  let key id =
    match Hashtbl.find_opt serials id with
    | Some s -> Jupiter_css.Order_key.Serialized s
    | None -> Jupiter_css.Order_key.Pending id.Op_id.seq
  in
  serials, key

let in_ctx op ~ctx = Context.with_context op ~ctx

(* --- Order keys ------------------------------------------------------ *)

let test_order_key () =
  let open Jupiter_css.Order_key in
  Alcotest.(check bool) "serial order" true (compare (Serialized 1) (Serialized 2) < 0);
  Alcotest.(check bool) "pending order" true (compare (Pending 1) (Pending 2) < 0);
  Alcotest.(check bool)
    "serialized before pending" true
    (compare (Serialized 100) (Pending 1) < 0)

(* --- State-space unit tests ------------------------------------------ *)

let test_space_initial () =
  let _, key = key_table () in
  let space = Space.create ~key_of:key () in
  Alcotest.(check int) "one state" 1 (Space.num_states space);
  Alcotest.(check int) "no transitions" 0 (Space.num_transitions space);
  Alcotest.check Helpers.op_id_set "final is initial" Space.initial_state
    (Space.final space);
  Alcotest.(check (list pass)) "leftmost path empty" []
    (Space.leftmost_path space Space.initial_state)

let test_space_append () =
  let serials, key = key_table () in
  let space = Space.create ~key_of:key () in
  let o1 = Helpers.ins ~client:1 'a' 0 in
  Hashtbl.replace serials o1.Op.id 1;
  let form = Space.add_op space (in_ctx o1 ~ctx:Space.initial_state) in
  Alcotest.check Helpers.op "appended unchanged" o1 form;
  Alcotest.(check int) "two states" 2 (Space.num_states space);
  Alcotest.(check bool)
    "final contains o1" true
    (Op_id.Set.mem o1.Op.id (Space.final space))

let test_space_concurrent_square () =
  (* Two concurrent inserts: Algorithm 1 must build the full
     commuting square with correctly transformed labels. *)
  let serials, key = key_table () in
  let space = Space.create ~key_of:key () in
  let o1 = Helpers.ins ~client:1 'a' 0 in
  let o2 = Helpers.ins ~client:2 'b' 0 in
  Hashtbl.replace serials o1.Op.id 1;
  Hashtbl.replace serials o2.Op.id 2;
  ignore (Space.add_op space (in_ctx o1 ~ctx:Space.initial_state));
  let form = Space.add_op space (in_ctx o2 ~ctx:Space.initial_state) in
  (* b comes from the higher-priority client, so it keeps position 0. *)
  Alcotest.(check (option int)) "o2 stays at 0" (Some 0) (Op.position form);
  Alcotest.(check int) "four states" 4 (Space.num_states space);
  Alcotest.(check int) "four transitions" 4 (Space.num_transitions space);
  (* At the initial state, the serial order places o1 left of o2. *)
  (match Space.transitions space Space.initial_state with
  | [ t1; t2 ] ->
    Alcotest.check Helpers.op_id "o1 leftmost" o1.Op.id t1.Space.orig;
    Alcotest.check Helpers.op_id "o2 second" o2.Op.id t2.Space.orig
  | _ -> Alcotest.fail "expected two transitions");
  (* o1's transformed form at state {2} shifts right past b. *)
  match Space.transitions space (Op_id.Set.singleton o2.Op.id) with
  | [ t ] ->
    Alcotest.check Helpers.op_id "o1 on the ladder" o1.Op.id t.Space.orig;
    Alcotest.(check (option int)) "shifted to 1" (Some 1)
      (Op.position t.Space.form)
  | _ -> Alcotest.fail "expected one ladder transition"

let test_space_pending_after_serialized () =
  (* A pending own operation sorts to the right of serialized ones,
     whatever the insertion order (Figure 4, client c3). *)
  let serials, key = key_table () in
  let space = Space.create ~key_of:key () in
  let own = Helpers.ins ~client:3 'c' 0 in
  ignore (Space.add_op space (in_ctx own ~ctx:Space.initial_state));
  let remote = Helpers.ins ~client:1 'a' 0 in
  Hashtbl.replace serials remote.Op.id 1;
  ignore (Space.add_op space (in_ctx remote ~ctx:Space.initial_state));
  match Space.transitions space Space.initial_state with
  | [ t1; t2 ] ->
    Alcotest.check Helpers.op_id "remote first" remote.Op.id t1.Space.orig;
    Alcotest.check Helpers.op_id "pending own second" own.Op.id t2.Space.orig
  | _ -> Alcotest.fail "expected two transitions"

let test_space_rejects_unknown_context () =
  let serials, key = key_table () in
  let space = Space.create ~key_of:key () in
  let o = Helpers.ins ~client:1 'a' 0 in
  Hashtbl.replace serials o.Op.id 1;
  let ghost = Op_id.Set.singleton (Op_id.make ~client:7 ~seq:9) in
  Alcotest.(check bool)
    "unknown context rejected" true
    (try
       ignore (Space.add_op space (in_ctx o ~ctx:ghost));
       false
     with Invalid_argument _ -> true)

let test_space_rejects_duplicate () =
  let serials, key = key_table () in
  let space = Space.create ~key_of:key () in
  let o = Helpers.ins ~client:1 'a' 0 in
  Hashtbl.replace serials o.Op.id 1;
  ignore (Space.add_op space (in_ctx o ~ctx:Space.initial_state));
  Alcotest.(check bool)
    "duplicate processing rejected" true
    (try
       ignore (Space.add_op space (in_ctx o ~ctx:Space.initial_state));
       false
     with Invalid_argument _ -> true)

let test_space_equal () =
  let build () =
    let serials, key = key_table () in
    let space = Space.create ~key_of:key () in
    let o1 = Helpers.ins ~client:1 'a' 0 in
    let o2 = Helpers.ins ~client:2 'b' 0 in
    Hashtbl.replace serials o1.Op.id 1;
    Hashtbl.replace serials o2.Op.id 2;
    ignore (Space.add_op space (in_ctx o1 ~ctx:Space.initial_state));
    ignore (Space.add_op space (in_ctx o2 ~ctx:Space.initial_state));
    space
  in
  Alcotest.(check bool) "equal spaces" true (Space.equal (build ()) (build ()));
  let serials, key = key_table () in
  let other = Space.create ~key_of:key () in
  let o1 = Helpers.ins ~client:1 'a' 0 in
  Hashtbl.replace serials o1.Op.id 1;
  ignore (Space.add_op other (in_ctx o1 ~ctx:Space.initial_state));
  Alcotest.(check bool) "different spaces" false (Space.equal (build ()) other)

(* --- Figure-level protocol tests ------------------------------------- *)

let all_spaces t nclients =
  Jupiter_css.Protocol.server_space (E.server t)
  :: List.init nclients (fun i ->
         Jupiter_css.Protocol.client_space (E.client t (i + 1)))

let test_figure2_space () =
  (* Figure 4: 3 pairwise-concurrent operations produce the 7-state,
     9-transition space — note no state {2,3}: only states the ladders
     actually visit exist. *)
  let s = Rlist_sim.Figures.figure2 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  Alcotest.(check int) "7 states" 7 (Space.num_states space);
  Alcotest.(check int) "9 transitions" 9 (Space.num_transitions space);
  Alcotest.(check bool)
    "state {1,2} exists" true
    (Space.mem_state space
       (Op_id.Set.of_list
          [ Op_id.make ~client:1 ~seq:1; Op_id.make ~client:2 ~seq:1 ]));
  Alcotest.(check bool)
    "state {2,3} does not exist" false
    (Space.mem_state space
       (Op_id.Set.of_list
          [ Op_id.make ~client:2 ~seq:1; Op_id.make ~client:3 ~seq:1 ]));
  List.iter
    (fun other ->
      Alcotest.(check bool) "replica spaces equal (Prop 6.6)" true
        (Space.equal space other))
    (all_spaces t s.nclients)

let test_figure2_paths_differ () =
  (* All replicas build the same space but walk different paths
     through it (Example 6.3). *)
  let s = Rlist_sim.Figures.figure2 in
  let t = Helpers.Css_run.scenario s in
  let p1 = Jupiter_css.Protocol.client_path (E.client t 1) in
  let p3 = Jupiter_css.Protocol.client_path (E.client t 3) in
  Alcotest.(check bool)
    "paths differ" false
    (List.length p1 = List.length p3
    && List.for_all2 Op_id.Set.equal p1 p3);
  (* but they end at the same final state *)
  let last l = List.nth l (List.length l - 1) in
  Alcotest.check Helpers.op_id_set "same final" (last p1) (last p3)

let test_figure3_transformation_chain () =
  (* Example 6.1: when client 1 receives o3 (context {}), the leftmost
     path is <o1, o2{1}, o4{..}> — i.e. three transformation steps. *)
  let s = Rlist_sim.Figures.figure3 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  Alcotest.(check int) "9 states" 9 (Space.num_states space);
  Alcotest.(check int) "12 transitions" 12 (Space.num_transitions space);
  Alcotest.(check bool) "converged" true (E.converged t);
  List.iter
    (fun other ->
      Alcotest.(check bool) "spaces equal" true (Space.equal space other))
    (all_spaces t s.nclients)

let test_figure6_space () =
  let s = Rlist_sim.Figures.figure6 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  Alcotest.(check int) "10 states" 10 (Space.num_states space);
  Alcotest.(check int) "14 transitions" 14 (Space.num_transitions space);
  Alcotest.(check bool)
    "state {1,4} exists (o4 causally after o1)" true
    (Space.mem_state space
       (Op_id.Set.of_list
          [ Op_id.make ~client:1 ~seq:1; Op_id.make ~client:1 ~seq:2 ]));
  List.iter
    (fun other ->
      Alcotest.(check bool) "spaces equal" true (Space.equal space other))
    (all_spaces t s.nclients)

let test_figure4_transformed_forms () =
  (* The exact transformed forms on the Figure 4 edges.  Operations:
     o1 = Ins(a,0)@c1, o2 = Ins(b,0)@c2, o3 = Ins(c,0)@c3, all at
     position 0; larger client = higher priority, so each later op
     stays at 0 and earlier ones shift right past it. *)
  let s = Rlist_sim.Figures.figure2 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let id c = Op_id.make ~client:c ~seq:1 in
  let state ids = Op_id.Set.of_list (List.map id ids) in
  let form_of ~from ~op =
    match
      List.find_opt
        (fun tr -> Op_id.equal tr.Space.orig (id op))
        (Space.transitions space (state from))
    with
    | Some tr -> tr.Space.form
    | None -> Alcotest.failf "no transition for o%d" op
  in
  let pos op = Option.get (Op.position op) in
  (* original forms at the root *)
  Alcotest.(check int) "o1 at {}" 0 (pos (form_of ~from:[] ~op:1));
  Alcotest.(check int) "o2 at {}" 0 (pos (form_of ~from:[] ~op:2));
  Alcotest.(check int) "o3 at {}" 0 (pos (form_of ~from:[] ~op:3));
  (* o1 shifts right past higher-priority inserts *)
  Alcotest.(check int) "o1{2} = Ins(a,1)" 1 (pos (form_of ~from:[ 2 ] ~op:1));
  Alcotest.(check int) "o1{3} = Ins(a,1)" 1 (pos (form_of ~from:[ 3 ] ~op:1));
  (* higher-priority ops stay at 0 against lower ones *)
  Alcotest.(check int) "o2{1} = Ins(b,0)" 0 (pos (form_of ~from:[ 1 ] ~op:2));
  Alcotest.(check int) "o3{1} = Ins(c,0)" 0 (pos (form_of ~from:[ 1 ] ~op:3));
  Alcotest.(check int)
    "o3{1,2} = Ins(c,0)" 0
    (pos (form_of ~from:[ 1; 2 ] ~op:3));
  Alcotest.(check int)
    "o2{1,3} = Ins(b,1)" 1
    (pos (form_of ~from:[ 1; 3 ] ~op:2))

let test_stats () =
  let t = Helpers.Css_run.scenario Rlist_sim.Figures.figure7 in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let stats = Jupiter_css.Analysis.stats space in
  Alcotest.(check int) "states" 8 stats.Jupiter_css.Analysis.states;
  Alcotest.(check int) "transitions" 10 stats.Jupiter_css.Analysis.transitions;
  Alcotest.(check int) "depth" 4 stats.Jupiter_css.Analysis.depth;
  Alcotest.(check int)
    "max branching bounded by n" 3
    stats.Jupiter_css.Analysis.max_branching;
  Alcotest.(check int) "no nop forms here" 0 stats.Jupiter_css.Analysis.nop_forms;
  Alcotest.(check (list (pair int int)))
    "width per level"
    [ 0, 1; 1, 1; 2, 3; 3, 2; 4, 1 ]
    stats.Jupiter_css.Analysis.width_per_level

let test_stats_counts_nops () =
  (* Two concurrent deletions of the same element produce Nop forms on
     the ladder. *)
  let t = E.create ~initial:(Document.of_string "ab") ~nclients:2 () in
  E.run t [ Generate (1, Intent.Delete 0); Generate (2, Intent.Delete 0) ];
  ignore (E.quiesce t);
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let stats = Jupiter_css.Analysis.stats space in
  Alcotest.(check bool)
    "nop forms recorded" true
    (stats.Jupiter_css.Analysis.nop_forms > 0);
  Alcotest.(check string)
    "both deletions collapse" "b"
    (Document.to_string (E.server_document t))

(* --- Random-schedule properties -------------------------------------- *)

let gen_seed = QCheck2.Gen.int_range 1 1_000_000

let small_params =
  { Rlist_sim.Schedule.default_params with updates = 15; deliver_bias = 0.45 }

let prop_convergence =
  Helpers.qtest ~count:60 "Theorem 6.7: CSS satisfies convergence" gen_seed
    (fun seed ->
      let t, _ = Helpers.Css_run.random ~params:small_params seed in
      E.converged t
      && Rlist_spec.Check.is_satisfied
           (Rlist_spec.Convergence.check_all_events (E.trace t)))

let prop_compactness =
  Helpers.qtest ~count:60
    "Proposition 6.6: all replica state-spaces are equal at quiescence"
    gen_seed (fun seed ->
      let t, _ = Helpers.Css_run.random ~params:small_params seed in
      let space = Jupiter_css.Protocol.server_space (E.server t) in
      List.for_all
        (fun other -> Space.equal space other)
        (all_spaces t (E.nclients t)))

let prop_weak_spec =
  Helpers.qtest ~count:60 "Theorem 8.2: CSS satisfies the weak list spec"
    gen_seed (fun seed ->
      let t, _ = Helpers.Css_run.random ~params:small_params seed in
      let trace = E.trace t in
      Result.is_ok (Rlist_spec.Trace.validate trace)
      && Rlist_spec.Check.is_satisfied (Rlist_spec.Weak_spec.check trace))

let tiny_params =
  (* Small spaces so that the exponential path enumeration in the
     lemma checks stays fast. *)
  { Rlist_sim.Schedule.default_params with updates = 8; deliver_bias = 0.45 }

let prop_lemmas =
  Helpers.qtest ~count:40
    "Lemmas 6.1/6.3/8.4/8.5 and Theorem 8.7 on random spaces" gen_seed
    (fun seed ->
      let t, _ = Helpers.Css_run.random ~nclients:3 ~params:tiny_params seed in
      let space = Jupiter_css.Protocol.server_space (E.server t) in
      match
        Jupiter_css.Analysis.check_all space ~nclients:3
          ~initial:Document.empty
      with
      | Ok () -> true
      | Error e -> QCheck2.Test.fail_report e)

let prop_leftmost_lemma =
  (* Lemma 6.4: from any state, the leftmost path reaches the final
     state and consists exactly of the operations not in the state, in
     total order. *)
  Helpers.qtest ~count:40 "Lemma 6.4: leftmost transitions" gen_seed
    (fun seed ->
      let t, _ = Helpers.Css_run.random ~nclients:3 ~params:tiny_params seed in
      let space = Jupiter_css.Protocol.server_space (E.server t) in
      let final = Space.final space in
      List.for_all
        (fun state ->
          let path = Space.leftmost_path space state in
          let ops = List.map (fun tr -> tr.Space.orig) path in
          let expected = Op_id.Set.diff final state in
          Op_id.Set.equal (Op_id.Set.of_list ops) expected
          && List.length ops = Op_id.Set.cardinal expected)
        (Space.states space))

let prop_documents_confluent =
  Helpers.qtest ~count:40 "state-space replay is confluent (CP1)" gen_seed
    (fun seed ->
      let t, _ = Helpers.Css_run.random ~nclients:3 ~params:tiny_params seed in
      let space = Jupiter_css.Protocol.server_space (E.server t) in
      (* documents raises if two paths to a state disagree *)
      let docs = Jupiter_css.Analysis.documents space ~initial:Document.empty in
      List.length docs = Space.num_states space)

let prop_final_doc_matches_space =
  Helpers.qtest ~count:40 "replica document = document at final state"
    gen_seed (fun seed ->
      let t, _ = Helpers.Css_run.random ~nclients:3 ~params:tiny_params seed in
      let space = Jupiter_css.Protocol.server_space (E.server t) in
      let doc =
        Jupiter_css.Analysis.document_at space ~initial:Document.empty
          (Space.final space)
      in
      Document.equal doc (E.server_document t))

(* --- Construction paths ------------------------------------------------ *)

(* css with every replica's visible set recorded after each handler
   call, newest first, under its replica (0 for the server). *)
module Recording = struct
  include Jupiter_css.Protocol

  let log : (int * Op_id.Set.t) list ref = ref []

  let client_key t =
    let id, _, _, _ = client_state t in
    id

  let note_client t = log := (client_key t, client_visible t) :: !log

  let note_server t = log := (0, server_visible t) :: !log

  let client_generate t intent =
    let result = client_generate t intent in
    note_client t;
    result

  let server_receive t ~from m =
    let sent = server_receive t ~from m in
    note_server t;
    sent

  let server_receive_batch t ~from batch =
    let sent = server_receive_batch t ~from batch in
    note_server t;
    sent

  let client_receive t m =
    client_receive t m;
    note_client t

  let client_receive_batch t batch =
    client_receive_batch t batch;
    note_client t

  (* The states one replica was seen in, oldest first, starting from
     the initial state, without repeats (a handler call need not
     change the state). *)
  let seen key =
    List.fold_left
      (fun acc (k, state) ->
        if k <> key || Op_id.Set.equal (List.hd acc) state then acc
        else state :: acc)
      [ Space.initial_state ] (List.rev !log)
    |> List.rev
end

module Re = Rlist_sim.Engine.Make (Recording)

let rec is_subsequence sub l =
  match sub, l with
  | [], _ -> true
  | _ :: _, [] -> false
  | x :: sub', y :: l' ->
    if Op_id.Set.equal x y then is_subsequence sub' l' else is_subsequence sub l'

(* Each step of a path adds exactly one operation. *)
let rec one_op_steps = function
  | a :: (b :: _ as rest) ->
    Op_id.Set.cardinal b = Op_id.Set.cardinal a + 1
    && Op_id.Set.subset a b && one_op_steps rest
  | [ _ ] | [] -> true

(* The path read off a replica's space starts at the initial state,
   ends at its final state and adds one operation per step.  Unbatched,
   it is exactly the list of states the replica was seen in after each
   handler call; batched, a handler call may process several
   operations, so the states seen are a subsequence of it.  A client
   rebuilt from a snapshot starts its path at its final state. *)
let prop_path_read_off_space =
  Helpers.qtest ~count:60 "a replica's path is read off its space"
    QCheck2.Gen.(pair gen_seed bool)
    (fun (seed, batching) ->
      Recording.log := [];
      let t = Re.create ~batching ~history:false ~nclients:3 () in
      ignore
        (Re.run_random t ~rng:(Random.State.make [| seed |])
           ~params:small_params);
      let check key path final =
        let seen = Recording.seen key in
        Op_id.Set.equal (List.hd path) Space.initial_state
        && Op_id.Set.equal (List.nth path (List.length path - 1)) final
        && one_op_steps path
        &&
        if batching then is_subsequence seen path
        else List.equal Op_id.Set.equal seen path
      in
      let server = Re.server t in
      check 0 (Recording.server_path server) (Recording.server_visible server)
      && List.for_all
           (fun i ->
             let c = Re.client t i in
             let rebuilt =
               Helpers.ok Jupiter_css.Snapshot.(client_of_string (client_to_string c))
             in
             check i (Recording.client_path c) (Recording.client_visible c)
             && List.equal Op_id.Set.equal
                  (Recording.client_path rebuilt)
                  [ Recording.client_visible c ])
           [ 1; 2; 3 ])

(* --- Rendering -------------------------------------------------------- *)

let test_render_dot () =
  let t = Helpers.Css_run.scenario Rlist_sim.Figures.figure2 in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let dot =
    Jupiter_css.Render.to_dot space ~initial:Document.empty ~name:"figure4"
  in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 0
    && String.sub dot 0 7 = "digraph");
  (* 7 nodes and 9 edges *)
  let count_substring needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i acc =
      if i + n > h then acc
      else if String.sub hay i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "9 edges" 9 (count_substring " -> " dot)

let test_render_paths_of_figure4 () =
  (* The thick lines of Figure 4: rendering each replica's
     construction path shows the per-state documents in order. *)
  let s = Rlist_sim.Figures.figure2 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let render path =
    Jupiter_css.Render.path_to_ascii space ~initial:s.initial path
  in
  let c2 = render (Jupiter_css.Protocol.client_path (E.client t 2)) in
  let c3 = render (Jupiter_css.Protocol.client_path (E.client t 3)) in
  (* client 2 passes through "b" (its own op first); client 3 through
     "c"; both end at "cba". *)
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "c2 path shows b" true (contains c2 "\"b\"");
  Alcotest.(check bool) "c3 path shows c" true (contains c3 "\"c\"");
  Alcotest.(check bool) "c2 ends at cba" true (contains c2 "\"cba\"");
  Alcotest.(check bool) "c3 ends at cba" true (contains c3 "\"cba\"");
  Alcotest.(check int)
    "path length = ops + 1" 4
    (List.length (String.split_on_char '\n' c2))

let test_render_dot_labels () =
  (* DOT output carries both the state sets and the documents. *)
  let s = Rlist_sim.Figures.figure7 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let dot = Jupiter_css.Render.to_dot space ~initial:s.initial ~name:"f7" in
  let contains needle =
    let n = String.length needle and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "final document labelled" true (contains "ba");
  Alcotest.(check bool) "edge labels carry forms" true (contains "Ins(");
  Alcotest.(check bool) "deletion edges present" true (contains "Del(")

let test_render_ascii_and_path () =
  let s = Rlist_sim.Figures.figure7 in
  let t = Helpers.Css_run.scenario s in
  let space = Jupiter_css.Protocol.server_space (E.server t) in
  let ascii = Jupiter_css.Render.to_ascii space ~initial:s.initial in
  Alcotest.(check bool) "mentions final list" true
    (let needle = "\"ba\"" in
     let rec contains i =
       i + String.length needle <= String.length ascii
       && (String.sub ascii i (String.length needle) = needle
          || contains (i + 1))
     in
     contains 0);
  let path =
    Jupiter_css.Render.path_to_ascii space ~initial:s.initial
      (Jupiter_css.Protocol.server_path (E.server t))
  in
  Alcotest.(check bool) "path nonempty" true (String.length path > 0)

(* --- Lookup agreement -------------------------------------------------- *)

(* [mem_state] and [transitions] find states by descending from a base
   node; [listing] walks every node without a lookup.  They must agree on
   every state of [space], on each state plus one operation of the final
   state that it lacks, and on each state minus one of its elements
   (present or not). *)
let lookups_agree space =
  let listing = Space.listing space in
  let table = Op_id.State_table.create 64 in
  List.iter (fun (s, trs) -> Op_id.State_table.replace table s trs) listing;
  let same_transition (a : Space.transition) (b : Space.transition) =
    Op_id.equal a.orig b.orig && Op.equal a.form b.form
    && Op_id.Set.equal a.target b.target
  in
  let agrees s =
    match Op_id.State_table.find_opt table s with
    | Some trs ->
      Space.mem_state space s
      && List.equal same_transition trs (Space.transitions space s)
    | None -> (
      (not (Space.mem_state space s))
      &&
      match Space.transitions space s with
      | _ -> false
      | exception Invalid_argument _ -> true)
  in
  let final = Space.final space in
  Op_id.State_table.length table = Space.num_states space
  && List.for_all
       (fun (s, _) ->
         agrees s
         && Op_id.Set.for_all
              (fun id -> Op_id.Set.mem id s || agrees (Op_id.Set.add id s))
              final
         && Op_id.Set.for_all (fun id -> agrees (Op_id.Set.remove id s)) s)
       listing

let lookup_params =
  { Rlist_sim.Schedule.default_params with updates = 12; deliver_bias = 0.35 }

(* A random run, batched or not, replayed up to a random cut so that
   replicas hold different, non-quiescent spaces.  Also checks [of_raw]
   copies and unions of the replica spaces (every replica's space is
   part of the same space, Proposition 6.6, so the unions exist). *)
let prop_lookup_agreement =
  Helpers.qtest ~count:60 "lookups agree with a listing (css, of_raw, union)"
    QCheck2.Gen.(triple gen_seed bool (int_range 0 100))
    (fun (seed, batching, cut) ->
      let rng = Random.State.make [| seed |] in
      let full = E.create ~batching ~history:false ~nclients:3 () in
      let schedule = E.run_random full ~rng ~params:lookup_params in
      let t = E.create ~batching ~history:false ~nclients:3 () in
      List.iteri
        (fun i ev ->
          if i * 100 < cut * List.length schedule then E.apply_event t ev)
        schedule;
      let cut_spaces = all_spaces t 3 in
      let server = List.hd cut_spaces in
      let spaces = all_spaces full 3 @ cut_spaces in
      (* Any total order will do: lookups do not read keys. *)
      let key_of (id : Op_id.t) =
        Jupiter_css.Order_key.Serialized ((id.client lsl 20) + id.seq)
      in
      let copy space =
        Space.of_raw ~key_of ~root:(Space.root space)
          ~final:(Space.final space) (Space.listing space)
      in
      List.for_all lookups_agree spaces
      && List.for_all (fun s -> lookups_agree (copy s)) spaces
      && List.for_all
           (fun client ->
             lookups_agree (Space.union (copy server) (copy client)))
           (List.tl cut_spaces))

(* css-pruned under an eager GC policy: the spaces are checked after
   every compaction, whichever handler performed it, and at the end of
   the run, when chains have grown again on the rebased survivors. *)
module Pruned_lookups = struct
  let bad = ref 0

  let compactions = ref 0

  module P = Helpers.Watch_compactions (struct
    let compacted _ _ space =
      incr compactions;
      if not (lookups_agree space) then incr bad
  end)

  module Pe = Rlist_sim.Engine.Make (P)

  let prop =
    Helpers.qtest ~count:40
      "lookups agree with a listing (css-pruned, after every compaction)"
      QCheck2.Gen.(pair gen_seed bool)
      (fun (seed, batching) ->
        bad := 0;
        compactions := 0;
        let gc = Result.get_ok (Rlist_gc.of_string "ops=4,retain=2,snap=0") in
        let t = Pe.create ~batching ~gc ~history:false ~nclients:3 () in
        let rng = Random.State.make [| seed |] in
        ignore (Pe.run_random t ~rng ~params:lookup_params);
        !bad = 0
        && !compactions > 0
        && lookups_agree (P.server_space (Pe.server t))
        && List.for_all
             (fun i -> lookups_agree (P.client_space (Pe.client t i)))
             [ 1; 2; 3 ])
end

let () =
  Alcotest.run "css"
    [
      ( "order_key",
        [ Alcotest.test_case "ordering" `Quick test_order_key ] );
      ( "state_space",
        [
          Alcotest.test_case "initial" `Quick test_space_initial;
          Alcotest.test_case "append at final" `Quick test_space_append;
          Alcotest.test_case "concurrent square" `Quick
            test_space_concurrent_square;
          Alcotest.test_case "pending after serialized" `Quick
            test_space_pending_after_serialized;
          Alcotest.test_case "unknown context rejected" `Quick
            test_space_rejects_unknown_context;
          Alcotest.test_case "duplicate rejected" `Quick
            test_space_rejects_duplicate;
          Alcotest.test_case "structural equality" `Quick test_space_equal;
        ] );
      ( "figures",
        [
          Alcotest.test_case "figure 2/4 space" `Quick test_figure2_space;
          Alcotest.test_case "figure 4 paths differ" `Quick
            test_figure2_paths_differ;
          Alcotest.test_case "figure 3 chain" `Quick
            test_figure3_transformation_chain;
          Alcotest.test_case "figure 6 space" `Quick test_figure6_space;
          Alcotest.test_case "figure 4 transformed forms" `Quick
            test_figure4_transformed_forms;
        ] );
      ( "analysis",
        [
          Alcotest.test_case "stats on figure 7" `Quick test_stats;
          Alcotest.test_case "stats count nop forms" `Quick
            test_stats_counts_nops;
        ] );
      ( "properties",
        [
          prop_convergence;
          prop_compactness;
          prop_weak_spec;
          prop_lemmas;
          prop_leftmost_lemma;
          prop_documents_confluent;
          prop_final_doc_matches_space;
        ] );
      ( "lookup", [ prop_lookup_agreement; Pruned_lookups.prop ] );
      ("path", [ prop_path_read_off_space ]);
      ( "render",
        [
          Alcotest.test_case "dot output" `Quick test_render_dot;
          Alcotest.test_case "dot labels" `Quick test_render_dot_labels;
          Alcotest.test_case "figure 4 construction paths" `Quick
            test_render_paths_of_figure4;
          Alcotest.test_case "ascii and path" `Quick
            test_render_ascii_and_path;
        ] );
    ]
