(* Unit tests for State_space's Algorithm 1: add_op and add_run must
   build exactly the space of a literal transcription of the paper's
   Algorithm 1 (same states, transitions in the same order, same forms,
   and — with the append fast path off — the same number of primitive
   transformations), and each fast-path guard is pinned individually
   (context match, pure-append run, position tie fallback, mixed-batch
   splitting). *)

open Rlist_model
open Rlist_ot
module Space = Jupiter_css.State_space
module Order_key = Jupiter_css.Order_key

let key_table () =
  let serials : (Op_id.t, int) Hashtbl.t = Hashtbl.create 8 in
  let key id =
    match Hashtbl.find_opt serials id with
    | Some s -> Order_key.Serialized s
    | None -> Order_key.Pending id.Op_id.seq
  in
  serials, key

(* Algorithm 1 (paper, Section 6.2), transcribed literally: a state is
   an explicit [Op_id.Set.t], each state's transitions are a list
   ordered by key, and each step of the leftmost path is one square.
   The reference State_space is checked against; it shares none of its
   code. *)
module Algorithm1 = struct
  module States = Map.Make (Op_id.Set)

  type t = {
    key_of : Op_id.t -> Order_key.t;
    mutable space : Space.transition list States.t;
    mutable final : Op_id.Set.t;
    mutable xforms : int;
  }

  let create key_of =
    {
      key_of;
      space = States.singleton Op_id.Set.empty [];
      final = Op_id.Set.empty;
      xforms = 0;
    }

  let transitions r s = Option.value (States.find_opt s r.space) ~default:[]

  (* Save [tr] at [s] "along the transition of the right order", and
     make its target a state. *)
  let save r s (tr : Space.transition) =
    let before (x : Space.transition) =
      Order_key.compare (r.key_of x.orig) (r.key_of tr.orig) < 0
    in
    let left, right = List.partition before (transitions r s) in
    r.space <- States.add tr.target (transitions r tr.target) r.space;
    r.space <- States.add s (left @ (tr :: right)) r.space

  (* The leftmost path from [s] to the final state, as (source,
     transition) steps. *)
  let rec leftmost r s =
    match transitions r s with
    | [] -> []
    | e :: _ -> (s, e) :: leftmost r e.Space.target

  let xform r o1 o2 =
    r.xforms <- r.xforms + 1;
    Transform.xform o1 o2

  let add_op r { Context.op; ctx } =
    if not (States.mem ctx r.space) then invalid_arg "Algorithm1: no state";
    let id = op.Op.id in
    let plus s = Op_id.Set.add id s in
    let path = leftmost r ctx in
    save r ctx { orig = id; form = op; target = plus ctx };
    let square o (s, (e : Space.transition)) =
      let o' = xform r o e.form and e' = xform r e.form o in
      save r (plus s) { orig = e.orig; form = e'; target = plus e.target };
      save r e.target { orig = id; form = o'; target = plus e.target };
      o'
    in
    let o = List.fold_left square op path in
    r.final <- plus r.final;
    o

  (* Every state with its transitions, in state order. *)
  let listing r = States.bindings r.space
end

(* A space's listing in state order, for comparison with
   {!Algorithm1.listing}. *)
let sorted_listing space =
  List.sort (fun (s1, _) (s2, _) -> Op_id.Set.compare s1 s2) (Space.listing space)

let listing : (Space.state * Space.transition list) list Alcotest.testable =
  let transition ppf (tr : Space.transition) =
    Fmt.pf ppf "-[%a %a]-> %a" Op_id.pp tr.orig Op.pp tr.form Space.pp_state
      tr.target
  in
  let state ppf (s, trs) =
    Fmt.pf ppf "@[<v 2>%a:@,%a@]" Space.pp_state s
      Fmt.(list ~sep:cut transition)
      trs
  in
  let transition_equal (a : Space.transition) (b : Space.transition) =
    Op_id.equal a.orig b.orig && Op.equal a.form b.form
    && Op_id.Set.equal a.target b.target
  in
  Alcotest.testable
    Fmt.(vbox (list ~sep:cut state))
    (List.equal (fun (s1, t1) (s2, t2) ->
         Op_id.Set.equal s1 s2 && List.equal transition_equal t1 t2))

(* Run the same (op, ctx) stream through a fresh space and through the
   transcription, with every operation serialized in stream order: the
   space replays the [prefix] with {!add_op} and then processes
   [batch] with a single {!add_run}; the transcription processes the
   whole stream one operation at a time.  Returns (space, transcription,
   add_run forms, transcription forms). *)
let differential ~fastpath ~prefix ~batch =
  let serials, key = key_table () in
  List.iteri
    (fun i oc -> Hashtbl.replace serials oc.Context.op.Op.id (i + 1))
    (prefix @ batch);
  (* A fresh per-space record: the counters below are exactly this
     space's, nothing shared across test cases. *)
  let fp = Space.Fastpath.create ~enabled:fastpath () in
  let space = Space.create ~fastpath:fp ~key_of:key () in
  List.iter (fun oc -> ignore (Space.add_op space oc)) prefix;
  let forms = Space.add_run space batch in
  let reference = Algorithm1.create key in
  List.iter (fun oc -> ignore (Algorithm1.add_op reference oc)) prefix;
  let expected = List.map (Algorithm1.add_op reference) batch in
  space, reference, forms, expected

let check_same ?(same_ot = true) ~fastpath ~prefix ~batch () =
  let space, reference, forms, expected =
    differential ~fastpath ~prefix ~batch
  in
  Alcotest.check listing "states and transitions"
    (Algorithm1.listing reference) (sorted_listing space);
  Alcotest.check Helpers.op_id_set "final states" reference.final
    (Space.final space);
  Alcotest.(check (list Helpers.op)) "forms equal" expected forms;
  let ot = Space.ot_count space and xforms = reference.Algorithm1.xforms in
  if same_ot then Alcotest.(check int) "ot counts equal" xforms ot
  else
    Alcotest.(check bool)
      (Printf.sprintf "ot count (%d) <= transcription's (%d)" ot xforms)
      true (ot <= xforms)

(* Chain contexts the way a replica generating back to back does. *)
let chain ~ctx ops =
  let _, acc =
    List.fold_left
      (fun (ctx, acc) op ->
        Context.extend ctx op, Context.with_context op ~ctx :: acc)
      (ctx, []) ops
  in
  List.rev acc

let appends ~client ~seq0 ~pos0 n =
  List.init n (fun i ->
      Helpers.ins ~client ~seq:(seq0 + i)
        (Char.chr (Char.code 'a' + (i mod 26)))
        (pos0 + i))

(* --- Context-match fast path ---------------------------------------- *)

let test_quiescent_run () =
  let batch = chain ~ctx:Context.empty (appends ~client:1 ~seq0:1 ~pos0:0 5) in
  check_same ~fastpath:false ~prefix:[] ~batch ();
  (* A quiescent run performs no transformation at all, and every
     operation of it lands on the context-match shortcut. *)
  let space, _, _, _ = differential ~fastpath:false ~prefix:[] ~batch in
  Alcotest.(check bool)
    "context hits counted" true
    ((Space.fastpath space).Space.Fastpath.context_hits > 0);
  Alcotest.(check int) "no transformations" 0 (Space.ot_count space)

(* --- Append fast path: one case per transform shape ------------------ *)

(* One concurrent foreign operation [f] (serialized first) forms a
   one-step leftmost path that a run of appends at positions 3..6 must
   cross; each foreign shape exercises one arithmetic case. *)
let crossing_case f =
  let prefix = [ Context.with_context f ~ctx:Context.empty ] in
  let batch = chain ~ctx:Context.empty (appends ~client:1 ~seq0:1 ~pos0:3 4) in
  prefix, batch

let test_cross_ins_before () =
  let prefix, batch = crossing_case (Helpers.ins ~client:2 'z' 1) in
  check_same ~same_ot:false ~fastpath:true ~prefix ~batch ();
  (* The arithmetic levels replace every crossing transformation. *)
  let space, reference, _, _ = differential ~fastpath:true ~prefix ~batch in
  Alcotest.(check bool)
    "append hits counted" true
    ((Space.fastpath space).Space.Fastpath.append_hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "strictly fewer transformations (%d < %d)"
       (Space.ot_count space) reference.Algorithm1.xforms)
    true
    (Space.ot_count space < reference.Algorithm1.xforms)

let test_cross_ins_after () =
  let prefix, batch = crossing_case (Helpers.ins ~client:2 'z' 9) in
  check_same ~same_ot:false ~fastpath:true ~prefix ~batch ()

let test_cross_ins_tie () =
  (* Foreign insertion exactly at the run's start position: element
     priority decides, and the fast path must fall back to the
     generic squares — the transformation count stays the
     transcription's. *)
  let prefix, batch = crossing_case (Helpers.ins ~client:2 'z' 3) in
  check_same ~same_ot:true ~fastpath:true ~prefix ~batch ()

let test_cross_del_before () =
  let prefix, batch =
    crossing_case (Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 0)
  in
  check_same ~same_ot:false ~fastpath:true ~prefix ~batch ()

let test_cross_del_inside () =
  let prefix, batch =
    crossing_case (Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 4)
  in
  check_same ~same_ot:false ~fastpath:true ~prefix ~batch ()

let test_fastpath_off_matches_ot () =
  (* With the toggle off, the walk performs exactly the
     transcription's transformations, whatever the run shape. *)
  List.iter
    (fun f ->
      let prefix, batch = crossing_case f in
      check_same ~same_ot:true ~fastpath:false ~prefix ~batch ())
    [
      Helpers.ins ~client:2 'z' 1;
      Helpers.ins ~client:2 'z' 3;
      Helpers.ins ~client:2 'z' 9;
      Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 0;
      Helpers.del ~client:2 (Helpers.elt ~client:9 'q') 4;
    ]

let test_lone_op_generic () =
  (* The append arithmetic needs a run of two or more operations: a
     lone insertion crossing a foreign one takes the generic squares
     with the fast path on, so its transformation count is the
     transcription's. *)
  let f = Helpers.ins ~client:2 'z' 1 in
  let prefix = [ Context.with_context f ~ctx:Context.empty ] in
  let batch = chain ~ctx:Context.empty (appends ~client:1 ~seq0:1 ~pos0:3 1) in
  check_same ~same_ot:true ~fastpath:true ~prefix ~batch ();
  let space, _, _, _ = differential ~fastpath:true ~prefix ~batch in
  Alcotest.(check int) "no append hits" 0
    (Space.fastpath space).Space.Fastpath.append_hits

(* --- Mixed batches --------------------------------------------------- *)

let test_mixed_batch_splits () =
  (* A batch whose middle operation saw a foreign operation in between
     is not one contiguous run; add_run must split it and process each
     segment where its context matches. *)
  let x = Helpers.ins ~client:2 'x' 0 in
  let a = Helpers.ins ~client:1 ~seq:1 'a' 0 in
  let b = Helpers.ins ~client:1 ~seq:2 'b' 1 in
  let c = Helpers.ins ~client:1 ~seq:3 'c' 2 in
  let ctx_ab = Context.empty in
  let ctx_b = Context.extend ctx_ab a in
  (* c was generated after x arrived at its replica. *)
  let ctx_c = Context.extend (Context.extend ctx_b b) x in
  let prefix = [ Context.with_context x ~ctx:Context.empty ] in
  let batch =
    [
      Context.with_context a ~ctx:ctx_ab;
      Context.with_context b ~ctx:ctx_b;
      Context.with_context c ~ctx:ctx_c;
    ]
  in
  check_same ~same_ot:true ~fastpath:false ~prefix ~batch ();
  check_same ~same_ot:false ~fastpath:true ~prefix ~batch ()

let test_non_insert_runs () =
  (* Runs containing deletions take the generic squares but must still
     match the transcription, fast path on or off. *)
  let seed = appends ~client:9 ~seq0:1 ~pos0:0 4 in
  let prefix = chain ~ctx:Context.empty seed in
  let seeded =
    List.fold_left (fun ctx op -> Context.extend ctx op) Context.empty seed
  in
  let f = Helpers.ins ~client:2 'z' 2 in
  let prefix = prefix @ [ Context.with_context f ~ctx:seeded ] in
  let e1 = Helpers.elt ~client:9 ~seq:2 'b' in
  let run =
    [
      Helpers.ins ~client:1 ~seq:1 'k' 1;
      Helpers.del ~client:1 ~seq:2 e1 2;
      Helpers.ins ~client:1 ~seq:3 'm' 2;
    ]
  in
  let batch = chain ~ctx:seeded run in
  check_same ~same_ot:true ~fastpath:false ~prefix ~batch ();
  check_same ~same_ot:false ~fastpath:true ~prefix ~batch ()

(* --- Randomized equivalence with the transcription -------------------- *)

(* A synthetic server: a common seed prefix, then a burst of foreign
   operations, then one client's run arriving as a batch.  Each stream
   is generated against the document it would actually see (ops must
   be contextually consistent — concurrent deletes of the same
   position on the same state delete the same element, which the
   strict transform asserts).  A third of the bursts carry a foreign
   insertion exactly where the run's first operation stands by then,
   the position tie the append arithmetic must leave to element
   priority; the run's client is 1 or 3, so its elements lose such a
   tie against client 2's or win it. *)
let gen_scenario =
  QCheck2.Gen.(
    let stream ~client ~seq0 ~n doc0 =
      let rec go doc acc seq n =
        if n = 0 then return (doc, List.rev acc)
        else
          let* op = Helpers.gen_op_on ~client ~seq doc in
          go (Op.apply op doc) (op :: acc) (seq + 1) (n - 1)
      in
      go doc0 [] seq0 n
    in
    let* nseed = int_range 0 3 in
    let* nbefore = int_range 0 3 in
    let* tie = frequency [ 1, return true; 2, return false ] in
    let* nafter = int_range 0 2 in
    let* nrun = int_range 2 6 in
    let* pure = frequency [ 2, return true; 1, return false ] in
    let* client = oneofl [ 1; 3 ] in
    let* seed_doc, seed_ops = stream ~client:9 ~seq0:1 ~n:nseed Document.empty in
    let* run_ops =
      if pure then
        return (appends ~client ~seq0:1 ~pos0:(Document.length seed_doc) nrun)
      else map snd (stream ~client ~seq0:1 ~n:nrun seed_doc)
    in
    let* doc, before = stream ~client:2 ~seq0:1 ~n:nbefore seed_doc in
    let tie_op =
      match Op.position (fst (Transform.xform_seq (List.hd run_ops) before)) with
      | Some q when tie -> [ Helpers.ins ~client:2 ~seq:(nbefore + 1) 't' q ]
      | Some _ | None -> []
    in
    let doc = List.fold_left (fun d op -> Op.apply op d) doc tie_op in
    let* _, after = stream ~client:2 ~seq0:(nbefore + 2) ~n:nafter doc in
    return (seed_ops, before @ tie_op @ after, run_ops))

let scenario_prop ~fastpath (seed_ops, foreign_ops, run_ops) =
  let seeded =
    List.fold_left (fun ctx op -> Context.extend ctx op) Context.empty seed_ops
  in
  let prefix =
    chain ~ctx:Context.empty seed_ops @ chain ~ctx:seeded foreign_ops
  in
  let batch = chain ~ctx:seeded run_ops in
  let space, reference, forms, expected =
    differential ~fastpath ~prefix ~batch
  in
  let ot = Space.ot_count space and xforms = reference.Algorithm1.xforms in
  Alcotest.equal listing (Algorithm1.listing reference) (sorted_listing space)
  && Op_id.Set.equal reference.final (Space.final space)
  && List.equal Op.equal expected forms
  && (fastpath || ot = xforms)
  && ot <= xforms

(* --- Engine-level batching: what the wire sees ----------------------- *)

module Css_engine = Rlist_sim.Engine.Make (Jupiter_css.Protocol)
module Sched = Rlist_sim.Schedule
module Transport = Rlist_net.Transport
module Faults = Rlist_net.Faults
module Stats = Rlist_net.Stats

(* Consecutive generates coalesce into one transport payload — one
   [Transport.send], hence one sequence number and one retransmission
   unit — while the per-operation counters keep counting operations. *)
let test_one_seqno_per_batch () =
  let cfg = Transport.config ~faults:Faults.none ~seed:1 () in
  let t = Css_engine.create ~net:cfg ~batching:true ~nclients:2 () in
  List.iter (Css_engine.apply_event t)
    [
      Sched.Generate (1, Intent.Insert ('a', 0));
      Sched.Generate (1, Intent.Insert ('b', 1));
      Sched.Generate (1, Intent.Insert ('c', 2));
    ];
  let st = Transport.stats cfg in
  Alcotest.(check int)
    "outbox holds three ops" 3
    (Css_engine.pending_to_server t 1);
  Alcotest.(check int) "nothing on the wire yet" 0 st.Stats.payloads;
  Css_engine.apply_event t (Sched.Deliver_to_server 1);
  Alcotest.(check int) "one payload for the batch" 1 st.Stats.payloads;
  Alcotest.(check int) "three ops inside it" 3 st.Stats.op_payloads;
  Css_engine.apply_event t (Sched.Deliver_to_client 1);
  Css_engine.apply_event t (Sched.Deliver_to_client 2);
  Alcotest.(check int) "fan-out batches stay whole" 3 st.Stats.payloads;
  Alcotest.(check int) "ops counted per operation" 9 st.Stats.op_payloads;
  Alcotest.(check bool) "converged" true (Css_engine.converged t)

(* Batches survive the fault models: the shim retransmits and
   deduplicates whole batches (their dedup key joins the member op
   ids), and the run still converges with zero contract violations.
   Deterministic per seed, so the > 0 assertions are stable. *)
let test_batch_retransmit_dedup () =
  let faults =
    { Faults.none with Faults.drop = 0.3; duplicate = 0.3; reorder = 0.2 }
  in
  let cfg = Transport.config ~faults ~seed:42 () in
  let t = Css_engine.create ~net:cfg ~batching:true ~nclients:3 () in
  let rng = Random.State.make [| 42 |] in
  let params = { Sched.default_params with updates = 40 } in
  ignore (Css_engine.run_random t ~rng ~params);
  let st = Transport.stats cfg in
  Alcotest.(check bool) "converged" true (Css_engine.converged t);
  Alcotest.(check int)
    "no contract violations" 0 st.Stats.contract_violations;
  Alcotest.(check bool)
    "batches were retransmitted" true
    (st.Stats.retransmits > 0);
  Alcotest.(check bool)
    "duplicate batches suppressed" true
    (st.Stats.dup_dropped > 0);
  Alcotest.(check bool)
    "sends coalesced" true
    (st.Stats.payloads < st.Stats.op_payloads);
  Alcotest.(check bool)
    "per-op amplification >= 1" true
    (Stats.amplification st >= 1.0)

(* Checkpoint/restore with batch payloads: a sender crash between
   batches retransmits from the checkpointed buffer, the receiver's
   sequence numbers suppress the batches it already applied, and every
   operation arrives exactly once, in order. *)
let test_batch_checkpoint_recovery () =
  let cfg =
    Transport.config ~faults:(Option.get (Faults.preset "chaos")) ~seed:13 ()
  in
  let key b = Some (String.concat "+" (List.map string_of_int b)) in
  let ch = Transport.create ~key ~weight:List.length cfg in
  let got = ref [] in
  let drain () =
    while Transport.deliverable ch > 0 do
      match Transport.deliver ch with
      | Some b -> got := !got @ b
      | None -> ()
    done
  in
  let ck = ref (Transport.sender_checkpoint ch) in
  let send_ck b =
    Transport.send ch b;
    ck := Transport.sender_checkpoint ch
  in
  List.iter send_ck [ [ 0; 1 ]; [ 2 ]; [ 3; 4; 5 ] ];
  for _ = 1 to 8 do
    drain ();
    Transport.tick ch
  done;
  Transport.drop_wire ch;
  Transport.restore_sender ch !ck;
  List.iter send_ck [ [ 6; 7 ]; [ 8; 9 ] ];
  let stalled = ref 0 in
  while Transport.pending ch > 0 do
    let any = Transport.deliverable ch > 0 in
    drain ();
    if any then stalled := 0
    else begin
      incr stalled;
      if !stalled > 100_000 then Alcotest.fail "cannot quiesce"
    end;
    Transport.tick ch
  done;
  Alcotest.(check (list int))
    "each op exactly once, in order"
    (List.init 10 Fun.id)
    !got;
  let st = Transport.stats cfg in
  Alcotest.(check bool)
    "op transmissions cover the retransmits" true
    (st.Stats.op_transmissions >= st.Stats.op_payloads)

let qtest name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count:300 gen prop)

(* --- Allocation budget of the batched fast path ------------------------ *)

(* The benchmark's typing episode (4 clients, 2 rounds of 64-character
   bursts, batched, append fast path on) may allocate at most 5.06
   minor words per ladder square, engine and protocol included (5.01
   measured; 5.05 with [int array] columns in the state space, the
   budget then 5.1; 6.23 when a generic square rebuilt each lane's form
   from its position; 9.83 when every edge stored its form as an [Op.t]
   and the lanes were carried as shifted copies; 9.85 when a single
   operation had a ladder walk of its own beside the run walk; 10.34 with each
   replica keeping its path as a list of states, 10.38 with every node
   hashed into a table as well, 142.9 with a set per state, 77.0 with a
   record per node and edge).  OCaml 5 without flambda counts
   allocations exactly, so the figure is the same on every run. *)
let words_per_square_budget = 5.06

let test_words_per_square () =
  let fp = Space.Fastpath.create ~enabled:true () in
  let text = Helpers.typing_text 3 in
  let before = Gc.minor_words () in
  ignore (Helpers.typing_episode ~fp text);
  let words = Gc.minor_words () -. before in
  let squares = fp.Space.Fastpath.append_hits + fp.Space.Fastpath.generic_squares in
  let per_square = words /. float_of_int squares in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per square (%d squares) <= %.2f"
       per_square squares words_per_square_budget)
    true
    (per_square <= words_per_square_budget)

(* The same episode, run between two minor collections, may promote at
   most 0.62 words per ladder square: what the long-lived state spaces
   retain, plus whatever a minor collection catches mid-flight (0.56
   measured in the full suite, and the budget set 10 % above that; 0.54
   to 0.57 over four runs of the full suite with int32 columns in the
   state space, against 0.55 to 0.56 with [int array] columns; 0.57
   when a generic square rebuilt each lane's form from its position; 6.60
   when every edge stored its form as an [Op.t]; 7.08 with each replica
   keeping its path as a list of states, 7.12 with every node hashed
   into a table as well; 28.3 with a record per node and edge).  The
   minor heap's size fixes when collections happen, with the default
   settings, but the figure still moves by a few hundredths from one
   run of the full suite to the next. *)
let promoted_per_square_budget = 0.62

let test_promoted_per_square () =
  let fp = Space.Fastpath.create ~enabled:true () in
  let text = Helpers.typing_text 3 in
  Gc.minor ();
  let _, before, _ = Gc.counters () in
  let t = Helpers.typing_episode ~fp text in
  Gc.minor ();
  let _, after, _ = Gc.counters () in
  ignore (Sys.opaque_identity t);
  let squares = fp.Space.Fastpath.append_hits + fp.Space.Fastpath.generic_squares in
  let per_square = (after -. before) /. float_of_int squares in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f promoted words per square (%d squares) <= %.2f"
       per_square squares promoted_per_square_budget)
    true
    (per_square <= promoted_per_square_budget)

(* After the same episode, each replica's space may retain at most
   6.5 words per state, everything the space reaches included (6.37
   measured, bounded with 2 % headroom; 12.34 to 12.35 with [int array]
   columns, the budget then 12.5; 18.27 when every edge stored its form
   as an [Op.t], 21.93 with every node hashed into a table of its own
   as well).  Like the allocation counts, the figure is the same
   on every run. *)
let retained_per_node_budget = 6.5

let test_retained_per_node () =
  let fp = Space.Fastpath.create ~enabled:true () in
  let t = Helpers.typing_episode ~fp (Helpers.typing_text 3) in
  let module Css = Helpers.Css_engine in
  let spaces =
    Jupiter_css.Protocol.server_space (Css.server t)
    :: List.init (Css.nclients t) (fun i ->
           Jupiter_css.Protocol.client_space (Css.client t (i + 1)))
  in
  List.iter
    (fun space ->
      let words = Obj.reachable_words (Obj.repr space) in
      let per_node = float_of_int words /. float_of_int (Space.num_states space) in
      Alcotest.(check bool)
        (Printf.sprintf "%.2f retained words per state (%d states) <= %.1f"
           per_node (Space.num_states space) retained_per_node_budget)
        true
        (per_node <= retained_per_node_budget))
    spaces

(* After the same episode, each css replica record — client or server,
   with its space, serial table and document — may retain at most
   643 words per operation it processed (629.6 to 630.3 measured,
   bounded with 2 % headroom; 1209.3 to 1210.0 with [int array] columns
   in the state space, the budget then 1234; 1209.0 for every replica
   when a generic square rebuilt each lane's form from its position,
   1784.0 when every edge stored its form as an [Op.t], 1836.4 to
   1837.8 when each replica also kept its path as a list of states).  Like the
   allocation counts, the figure is the same on every run. *)
let retained_per_op_budget = 643.

let test_retained_per_op () =
  let fp = Space.Fastpath.create ~enabled:true () in
  let t = Helpers.typing_episode ~fp (Helpers.typing_text 3) in
  let module Css = Helpers.Css_engine in
  let module P = Jupiter_css.Protocol in
  let replicas =
    (Obj.repr (Css.server t), P.server_visible (Css.server t))
    :: List.init (Css.nclients t) (fun i ->
           let c = Css.client t (i + 1) in
           Obj.repr c, P.client_visible c)
  in
  List.iter
    (fun (replica, visible) ->
      let ops = Op_id.Set.cardinal visible in
      let per_op =
        float_of_int (Obj.reachable_words replica) /. float_of_int ops
      in
      Alcotest.(check bool)
        (Printf.sprintf
           "%.2f retained words per operation (%d operations) <= %.0f" per_op
           ops retained_per_op_budget)
        true
        (per_op <= retained_per_op_budget))
    replicas

(* The batch contract (Protocol_intf): receiving a batch looks the
   same as receiving its messages one by one.  For every star protocol,
   naive foil included, a run of client 1's messages goes to two fresh
   servers, one batched and one folded; then the messages client 2
   receives go to two fresh clients the same way. *)
let star_protocols =
  List.filter_map
    (fun (key, p) -> Option.map (fun p -> key, p) (Helpers.star p))
    Rlist_run.Protocols.all

let test_batch_contract (module P : Rlist_sim.Protocol_intf.PROTOCOL) () =
  let nclients = 2 and initial = Document.empty in
  let fastpath () = Fastpath.create () in
  let client id =
    P.create_client ~fastpath:(fastpath ()) ~nclients ~id ~initial
  in
  let server () =
    P.create_server ~fastpath:(fastpath ()) ~nclients ~initial
  in
  let c1 = client 1 in
  let c2s =
    List.filter_map
      (fun i -> snd (P.client_generate c1 i))
      Intent.
        [
          Insert ('a', 0); Insert ('b', 1); Insert ('c', 0); Delete 1;
          Insert ('d', 2); Read; Delete 0;
        ]
  in
  let sb = server () and sf = server () in
  let sent_b = P.server_receive_batch sb ~from:1 c2s in
  let sent_f = List.concat_map (P.server_receive sf ~from:1) c2s in
  let sent l = List.map (fun (dest, m) -> dest, P.s2c_op_id m) l in
  Alcotest.(check (list (pair int (option Helpers.op_id))))
    "server sends the same" (sent sent_f) (sent sent_b);
  Alcotest.check Helpers.document "server documents" (P.server_document sf)
    (P.server_document sb);
  Alcotest.check Helpers.op_id_set "server visible sets" (P.server_visible sf)
    (P.server_visible sb);
  let to_c2 =
    List.filter_map
      (fun (dest, m) -> if dest = 2 then Some m else None)
      sent_f
  in
  Alcotest.(check int) "client 2 receives the run" (List.length c2s)
    (List.length to_c2);
  let cb = client 2 and cf = client 2 in
  P.client_receive_batch cb to_c2;
  List.iter (P.client_receive cf) to_c2;
  Alcotest.check Helpers.document "client documents" (P.client_document cf)
    (P.client_document cb);
  Alcotest.check Helpers.op_id_set "client visible sets" (P.client_visible cf)
    (P.client_visible cb)

(* The same contract on a mesh (P2p_protocol_intf): [receive] of a
   batch from one peer leaves the same document and visible set, and
   returns the same reactions, as receiving its messages one at a time.
   Peer 2 inserts first and peer 1 receives that, so the stream from
   peer 1 carries its reaction (a clock announcement for css-p2p)
   ahead of a run of operations concurrent with peer 2's; the stream
   goes to two fresh copies of peer 2. *)
let mesh_protocols =
  List.filter_map
    (fun (key, p) -> Option.map (fun p -> key, p) (Helpers.mesh p))
    Rlist_run.Protocols.all

let test_mesh_batch_contract (module P : Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL)
    () =
  let npeers = 2 and initial = Document.empty in
  let peer id =
    P.create_peer ~fastpath:(Fastpath.create ()) ~npeers ~id ~initial
  in
  let generate p intent = snd (P.generate p intent) in
  let second () =
    let p2 = peer 2 in
    p2, Option.to_list (generate p2 (Intent.Insert ('y', 0)))
  in
  let p1 = peer 1 and (pb, y), (pf, _) = second (), second () in
  let reactions = P.receive p1 ~from:2 y in
  let run =
    List.filter_map (generate p1)
      Intent.
        [
          Insert ('a', 0); Insert ('b', 1); Insert ('c', 0); Delete 1;
          Insert ('d', 2); Read; Delete 0;
        ]
  in
  let stream = reactions @ run in
  let got_b = P.receive pb ~from:1 stream in
  let got_f = List.concat_map (fun m -> P.receive pf ~from:1 [ m ]) stream in
  Alcotest.(check (list (option Helpers.op_id)))
    "same reaction operations"
    (List.map P.message_op_id got_f)
    (List.map P.message_op_id got_b);
  (* Messages are plain data (no closures, no sets built differently by
     the two runs), so structural equality compares their payloads. *)
  Alcotest.(check bool) "same reactions" true (got_f = got_b);
  Alcotest.check Helpers.document "peer documents" (P.document pf)
    (P.document pb);
  Alcotest.check Helpers.op_id_set "peer visible sets" (P.visible pf)
    (P.visible pb)

(* css-pruned's batch handler folds a batch that interleaves updates
   with heartbeats one message at a time, so each [Deliver] carries the
   stable serial and base of its own moment.  Client 2 sends an update
   concurrent with client 1's two, a heartbeat that makes both of those
   stable, an update whose context they are compacted out of, and a
   heartbeat that changes nothing. *)
let test_pruned_mixed_batch () =
  let module P = Jupiter_css.Pruned_protocol in
  let nclients = 2 and initial = Document.empty in
  let client id =
    P.create_client ~fastpath:(Fastpath.create ()) ~nclients ~id ~initial
  in
  let server () =
    P.create_server ~fastpath:(Fastpath.create ()) ~nclients ~initial
  in
  let generate c intent = Option.get (snd (P.client_generate c intent)) in
  let c1 = client 1 and c2 = client 2 in
  let sb = server () and sf = server () in
  let x = generate c2 (Intent.Insert ('x', 0)) in
  let a = generate c1 (Intent.Insert ('a', 0)) in
  let from_c1 = [ a; generate c1 (Intent.Insert ('b', 1)) ] in
  let sent = List.concat_map (P.server_receive sb ~from:1) from_c1 in
  ignore (List.concat_map (P.server_receive sf ~from:1) from_c1);
  List.iter
    (fun (dest, m) -> P.client_receive (if dest = 1 then c1 else c2) m)
    sent;
  let heartbeat = P.client_heartbeat c1 in
  ignore (P.server_receive sb ~from:1 heartbeat);
  ignore (P.server_receive sf ~from:1 heartbeat);
  let acked = P.client_heartbeat c2 in
  let y = generate c2 (Intent.Insert ('y', 0)) in
  let batch = [ x; acked; y; P.client_heartbeat c2 ] in
  let show (dest, (m : P.s2c)) =
    match m with
    | P.Deliver { op; ctx; serial; origin; stable; base } ->
      Format.asprintf
        "%d <- deliver %a ctx %a serial %d origin %d stable %d base %d" dest
        Op.pp op Op_id.Set.pp ctx serial origin stable base
    | P.Stable { stable } -> Printf.sprintf "%d <- stable %d" dest stable
  in
  let sent_b = List.map show (P.server_receive_batch sb ~from:2 batch) in
  let sent_f =
    List.map show (List.concat_map (P.server_receive sf ~from:2) batch)
  in
  Alcotest.(check (list string)) "server sends the same" sent_f sent_b;
  Alcotest.(check (list string))
    "stable serials and bases"
    (List.concat_map
       (fun m -> [ "1 <- " ^ m; "2 <- " ^ m ])
       [
         "deliver Ins(x<2.1>, 0) ctx {} serial 3 origin 2 stable 0 base 0";
         "stable 2";
         "deliver Ins(y<2.2>, 0) ctx {2.1} serial 4 origin 2 stable 2 base 2";
       ])
    sent_b;
  Alcotest.check Helpers.document "server documents" (P.server_document sf)
    (P.server_document sb)

let () =
  Alcotest.run "batching"
    [
      ( "state-space",
        [
          Alcotest.test_case "quiescent run (context match)" `Quick
            test_quiescent_run;
          Alcotest.test_case "crossing insert before run" `Quick
            test_cross_ins_before;
          Alcotest.test_case "crossing insert after run" `Quick
            test_cross_ins_after;
          Alcotest.test_case "crossing insert at tie falls back" `Quick
            test_cross_ins_tie;
          Alcotest.test_case "crossing delete before run" `Quick
            test_cross_del_before;
          Alcotest.test_case "crossing delete inside run" `Quick
            test_cross_del_inside;
          Alcotest.test_case "fast path off keeps ot count" `Quick
            test_fastpath_off_matches_ot;
          Alcotest.test_case "lone operation takes generic squares" `Quick
            test_lone_op_generic;
          Alcotest.test_case "mixed batch splits into runs" `Quick
            test_mixed_batch_splits;
          Alcotest.test_case "runs with deletions" `Quick test_non_insert_runs;
          qtest "add_run = transcription (generic)" gen_scenario
            (scenario_prop ~fastpath:false);
          qtest "add_run = transcription (fast paths)" gen_scenario
            (scenario_prop ~fastpath:true);
        ] );
      ( "contract",
        Alcotest.test_case "every star protocol" `Quick (fun () ->
            Alcotest.(check int) "star keys" 8 (List.length star_protocols))
        :: List.map
             (fun (key, p) ->
               Alcotest.test_case ("batch = one by one, " ^ key) `Quick
                 (test_batch_contract p))
             star_protocols
        @ [
            Alcotest.test_case "css-pruned mixed batch = one by one" `Quick
              test_pruned_mixed_batch;
            Alcotest.test_case "every mesh protocol" `Quick (fun () ->
                Alcotest.(check int) "mesh keys" 2 (List.length mesh_protocols));
          ]
        @ List.map
            (fun (key, p) ->
              Alcotest.test_case ("mesh batch = one by one, " ^ key) `Quick
                (test_mesh_batch_contract p))
            mesh_protocols );
      ( "engine-wire",
        [
          Alcotest.test_case "one seqno per batch" `Quick
            test_one_seqno_per_batch;
          Alcotest.test_case "batch retransmission and dedup" `Quick
            test_batch_retransmit_dedup;
          Alcotest.test_case "checkpoint recovery with batches" `Quick
            test_batch_checkpoint_recovery;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "typing episode words per square" `Quick
            test_words_per_square;
          Alcotest.test_case "typing episode promoted words per square" `Quick
            test_promoted_per_square;
          Alcotest.test_case "typing episode retained words per state" `Quick
            test_retained_per_node;
          Alcotest.test_case "typing episode retained words per operation"
            `Quick test_retained_per_op;
        ] );
    ]
