open Rlist_model
open Rlist_ot

(* Fast-path accounting and the opt-in toggle: an engine-scoped
   record ({!Rlist_ot.Fastpath.t}) passed in at {!create} — the
   engine hands the same record to every replica of one run, so the
   counters aggregate per run, while nothing is shared across runs
   (or, under the sharded server, across domains).  Only {!add_run}'s
   append specialization changes any observable number (it skips
   primitive transformations, so [ot_count] drops); the context-match
   shortcut is a pure strength reduction and is always on. *)
module Fastpath = Fastpath

type state = Op_id.Set.t

type transition = {
  orig : Op_id.t;
  form : Op.t;
  target : state;
}

(* Zobrist-style state hashing: a state's hash is the {e sum} of a
   well-mixed per-identifier hash, so the hash of [s + id] is one
   addition away from the hash of [s].  Every state the ladders create
   extends a known node by one operation, which makes node creation
   O(1) in the size of the state — a content hash that folds over the
   whole set would make every square of every ladder O(|state|). *)
let mix x =
  (* splitmix64-style finalizer, constants truncated to OCaml's int. *)
  let x = x * 0x1E3779B97F4A7C15 in
  let x = x lxor (x lsr 31) in
  let x = x * 0x3F58476D1CE4E5B9 in
  x lxor (x lsr 29)

let id_mix id = mix (Op_id.hash id)

let state_hash s = Op_id.Set.fold (fun id acc -> acc + id_mix id) s 0

(* [children] mirrors [transitions] with the target {e nodes}: path
   walks follow pointers instead of re-hashing target states.  The
   mirror is unordered (lookups go through the transition's [orig])
   and its fanout is bounded by the client count. *)
type node = {
  (* [state] and [shash] are mutable for exactly one writer:
     {!compact}'s rebase, which subtracts the newly stable operations
     from every surviving state in place (pointer identity is load-
     bearing — the [children] mirror and [final_node] cache hold node
     pointers). *)
  mutable state : state;
  mutable shash : int;  (* [state_hash state], maintained incrementally *)
  mutable transitions : transition list;  (* sorted, leftmost first *)
  mutable children : (Op_id.t * node) list;
}

type t = {
  (* Buckets keyed by the incremental state hash; the rare same-hash
     states share a bucket and are told apart by set equality.  (The
     generic prefix-sampling [Hashtbl.hash] is defeated by states
     sharing long prefixes; a full content hash is defeated by state
     size.) *)
  nodes : (int, node list) Hashtbl.t;
  mutable nstates : int;
  key_of : Op_id.t -> Order_key.t;
  transform : Op.t -> Op.t -> Op.t;
  (* The append specialization reproduces the arithmetic of the
     standard view-position functions; a space built over any other
     transform (TTF, the broken no-priority variant) must never take
     it. *)
  fast_ok : bool;
  (* The run's fast-path switch and counters, shared with every other
     space of the same engine run. *)
  fp : Fastpath.t;
  mutable root : state;
  mutable final : state;
  (* Cache of the node holding [final], so the (frequent) additions at
     the final state skip the hash lookup. *)
  mutable final_node : node;
  mutable ot_count : int;
  mutable ntransitions : int;
  (* Growth observer (observability layer): called once per {!add_op}
     with the new final level and the post-growth totals.  [None]
     costs one branch per operation. *)
  mutable observer :
    (level:int -> states:int -> transitions:int -> ots:int -> unit) option;
}

let initial_state = Op_id.Set.empty

let set_eq a b = a == b || Op_id.Set.equal a b

let register t node =
  let bucket =
    match Hashtbl.find_opt t.nodes node.shash with
    | None -> []
    | Some l -> l
  in
  Hashtbl.replace t.nodes node.shash (node :: bucket);
  t.nstates <- t.nstates + 1

(* A state known to be absent (every ladder state contains an
   operation no existing state does): no bucket search.  The
   incrementally maintained [shash] equals [state_hash state]. *)
let fresh_node t ~shash state =
  let node = { state; shash; transitions = []; children = [] } in
  register t node;
  node

let bucket_find t shash state =
  match Hashtbl.find_opt t.nodes shash with
  | None -> None
  | Some [ n ] -> if set_eq n.state state then Some n else None
  | Some l -> List.find_opt (fun n -> set_eq n.state state) l

(* Every caller either builds an unordered collection, filters by a
   set predicate, or sorts afterwards, so bucket order cannot leak. *)
let fold_nodes t f acc =
  (Hashtbl.fold
     (fun _ l acc -> List.fold_left (fun acc n -> f n acc) acc l)
     t.nodes acc
   [@lint.allow "hashtbl-iter"])

let create ?(transform = Transform.xform) ?fastpath ~key_of () =
  let fp =
    match fastpath with Some fp -> fp | None -> Fastpath.create ()
  in
  let nodes = Hashtbl.create 64 in
  let root_node =
    { state = initial_state; shash = 0; transitions = []; children = [] }
  in
  Hashtbl.replace nodes 0 [ root_node ];
  {
    nodes;
    nstates = 1;
    key_of;
    transform;
    fast_ok = transform == Transform.xform;
    fp;
    root = initial_state;
    final = initial_state;
    final_node = root_node;
    ot_count = 0;
    ntransitions = 0;
    observer = None;
  }

let root t = t.root

let final t = t.final

let find_node_opt t state = bucket_find t (state_hash state) state

let find_node t state =
  match find_node_opt t state with
  | Some node -> node
  | None ->
    invalid_arg
      (Format.asprintf "State_space: no state matches context %a" Op_id.Set.pp
         state)

let mem_state t state = Option.is_some (find_node_opt t state)

let transitions t state = (find_node t state).transitions

let states t = fold_nodes t (fun node acc -> node.state :: acc) []

let num_states t = t.nstates

(* Maintained incrementally by {!insert_transition} / {!compact}: the
   growth observer reads it after every operation, so the O(states)
   fold is too slow to recompute each time. *)
let num_transitions t = t.ntransitions

let size t = num_states t + num_transitions t

(* Insert a transition among a node's ordered children.  Equal keys
   cannot occur: an operation identifier labels at most one transition
   per state (Lemma 6.3's "parallel transitions" are at distinct
   states).  [tnode] is the node holding [tr.target], recorded in the
   pointer mirror. *)
let insert_transition t node ~tnode tr =
  let key = t.key_of tr.orig in
  let rec insert = function
    | [] -> [ tr ]
    | tr' :: rest as all ->
      if Op_id.equal tr'.orig tr.orig then
        invalid_arg
          (Format.asprintf
             "State_space: operation %a already has a transition from state \
              %a"
             Op_id.pp tr.orig Op_id.Set.pp node.state)
      else if Order_key.compare key (t.key_of tr'.orig) < 0 then tr :: all
      else tr' :: insert rest
  in
  node.transitions <- insert node.transitions;
  node.children <- (tr.orig, tnode) :: node.children;
  t.ntransitions <- t.ntransitions + 1

let child_node node orig =
  let rec find = function
    | [] ->
      invalid_arg
        (Format.asprintf "State_space: transition %a has no recorded target"
           Op_id.pp orig)
    | (o, n) :: rest -> if Op_id.equal o orig then n else find rest
  in
  find node.children

(* The leftmost path with its target nodes, for the internal walks. *)
let leftmost_steps t start node =
  let rec walk node acc =
    match node.transitions with
    | [] ->
      if not (set_eq node.state t.final) then
        invalid_arg
          (Format.asprintf
             "State_space: leftmost path from %a ends at %a, not at the \
              final state %a"
             Op_id.Set.pp start Op_id.Set.pp node.state Op_id.Set.pp t.final);
      List.rev acc
    | leftmost :: _ ->
      let tgt = child_node node leftmost.orig in
      walk tgt ((leftmost, tgt) :: acc)
  in
  walk node []

let leftmost_path t state =
  List.map fst (leftmost_steps t state (find_node t state))

let xform t o1 o2 =
  t.ot_count <- t.ot_count + 1;
  t.transform o1 o2

(* The context of a quiescent replica's next operation is its current
   final state: the leftmost path is empty, no transformation can
   happen, and the whole of Algorithm 1 collapses to appending one
   transition at the final node.  The physical-equality test catches
   the common case (protocols pass [final t] through) without paying
   the set comparison. *)
let context_is_final t ctx = ctx == t.final || Op_id.Set.equal ctx t.final

let notify_growth t ~ot_before =
  match t.observer with
  | None -> ()
  | Some notify ->
    notify
      ~level:(Op_id.Set.cardinal t.final)
      ~states:(num_states t) ~transitions:t.ntransitions
      ~ots:(t.ot_count - ot_before)

let add_op t { Context.op; ctx } =
  if Op_id.Set.mem op.Op.id t.final then
    invalid_arg
      (Format.asprintf "State_space: operation %a already processed" Op_id.pp
         op.Op.id);
  let ot_before = t.ot_count in
  let mh = id_mix op.Op.id in
  if context_is_final t ctx then begin
    (* Context-match fast path: O(1) node work, zero transformations,
       and — by Lemma 6.4 — exactly what the generic walk below would
       have produced from an empty leftmost path. *)
    t.fp.Fastpath.context_hits <- t.fp.Fastpath.context_hits + 1;
    let node = t.final_node in
    let final_plus = Op_id.Set.add op.Op.id node.state in
    let fnode = fresh_node t ~shash:(node.shash + mh) final_plus in
    insert_transition t node ~tnode:fnode
      { orig = op.Op.id; form = op; target = final_plus };
    t.final_node <- fnode;
    t.final <- final_plus;
    notify_growth t ~ot_before;
    op
  end
  else begin
    let entry = find_node t ctx in
    let path = leftmost_steps t ctx entry in
    let o = ref op in
    let src = ref entry in
    (* The node above the current source, [src + op]: fresh in the
       first square, the previous square's upper target afterwards. *)
    let src_plus = ref None in
    (* One "square" of the commuting ladder per step: from the current
       source [s] with leftmost transition [tr : s -> s'], add
       [s -o-> s+o] (in its order among the children of [s]) and
       [s+o -tr{o}-> s'+o], then continue from [s'] with [o{tr}]. *)
    List.iter
      (fun (tr, tgt) ->
        let o_here = !o in
        let s = !src in
        let s_plus =
          match !src_plus with
          | Some n -> n
          | None ->
            fresh_node t ~shash:(s.shash + mh) (Op_id.Set.add op.Op.id s.state)
        in
        insert_transition t s ~tnode:s_plus
          { orig = op.Op.id; form = o_here; target = s_plus.state };
        let tgt_plus =
          fresh_node t ~shash:(tgt.shash + mh)
            (Op_id.Set.add op.Op.id tgt.state)
        in
        let tr_form' = xform t tr.form o_here in
        insert_transition t s_plus ~tnode:tgt_plus
          { orig = tr.orig; form = tr_form'; target = tgt_plus.state };
        t.fp.Fastpath.generic_squares <- t.fp.Fastpath.generic_squares + 1;
        o := xform t o_here tr.form;
        src := tgt;
        src_plus := Some tgt_plus)
      path;
    (* [src] is now the final state: record the fully transformed form
       along the last op-labelled transition. *)
    let fnode =
      match !src_plus with
      | Some n -> n
      | None -> assert false (* ctx <> final, so the path was non-empty *)
    in
    insert_transition t !src ~tnode:fnode
      { orig = op.Op.id; form = !o; target = fnode.state };
    t.final_node <- fnode;
    t.final <- fnode.state;
    notify_growth t ~ot_before;
    !o
  end

(* --- Batched processing --------------------------------------------- *)

(* [extends_by ~prev ctx'] holds when [ctx'] is [prev]'s context
   extended by exactly [prev]'s operation — the shape of two
   operations generated back to back by one replica.  Within one FIFO
   stream contexts grow monotonically, so this test is also how a
   mixed batch is split back into contiguous runs. *)
let extends_by ~prev ctx' =
  Op_id.Set.equal ctx'
    (Op_id.Set.add prev.Context.op.Op.id prev.Context.ctx)

(* Maximal contiguous runs of a batch, order preserved. *)
let segment_runs ops =
  match ops with
  | [] -> []
  | first :: rest ->
    let closed, last =
      List.fold_left
        (fun (closed, seg) oc ->
          match seg with
          | prev :: _ when extends_by ~prev oc.Context.ctx -> closed, oc :: seg
          | _ -> List.rev seg :: closed, [ oc ])
        ([], [ first ]) rest
    in
    List.rev (List.rev last :: closed)

(* A pure append run: [k] insertions at consecutive ascending
   positions ([q] for the first, [q + i] for the [i]-th) — the shape
   the append-log and typing workloads emit.  Returns the start
   position. *)
let run_start_of forms =
  match forms.(0).Op.action with
  | Op.Ins (_, q) ->
    let k = Array.length forms in
    let rec ok i =
      if i >= k then Some q
      else
        match forms.(i).Op.action with
        | Op.Ins (_, p) when p = q + i -> ok (i + 1)
        | Op.Ins _ | Op.Del _ | Op.Nop -> None
    in
    ok 1
  | Op.Del _ | Op.Nop -> None

let shift_by d o =
  match o.Op.action with
  | Op.Ins (e, p) -> Op.make_ins ~id:o.Op.id e (p + d)
  | Op.Del (e, p) -> Op.make_del ~id:o.Op.id e (p + d)
  | Op.Nop -> o

(* Process one contiguous run of [k >= 2] operations with a single
   leftmost-path walk.  The run enters the ladder as [k] stacked
   lanes; every path step advances all lanes at once, inserting
   exactly the transitions the operation-by-operation {!add_op} fold
   would have inserted, with the same forms — the per-square
   recurrences are identical, only their evaluation order changes
   (level-major instead of operation-major), and each square depends
   only on its own neighbours.  [ot_count] is therefore unchanged by
   batching alone.

   The append specialization (enabled by the run's {!Fastpath.t}, valid
   only for the standard view-position transform): when the lanes are
   a pure append run starting at [q] and the path form acts strictly
   outside the run — an insertion at [r <> q], any deletion, or a
   no-op — the whole level resolves by position arithmetic, replacing
   [2k] primitive transformations with [O(k)] shifts that reproduce
   the transform's case analysis exactly (ties at [r = q], where
   element priority decides, fall back to the generic squares). *)
let run_segment t seg =
  List.iter
    (fun { Context.op; _ } ->
      if Op_id.Set.mem op.Op.id t.final then
        invalid_arg
          (Format.asprintf "State_space: operation %a already processed"
             Op_id.pp op.Op.id))
    seg;
  let ot_before = t.ot_count in
  let k = List.length seg in
  let ids = Array.of_list (List.map (fun oc -> oc.Context.op.Op.id) seg) in
  let mixes = Array.map id_mix ids in
  let forms = Array.of_list (List.map (fun oc -> oc.Context.op) seg) in
  let entry_ctx = (List.hd seg).Context.ctx in
  let quiescent = context_is_final t entry_ctx in
  let entry_node =
    if quiescent then t.final_node else find_node t entry_ctx
  in
  let path = if quiescent then [] else leftmost_steps t entry_ctx entry_node in
  if quiescent then
    t.fp.Fastpath.context_hits <- t.fp.Fastpath.context_hits + k;
  (* While [Some q], the lanes form a pure append run starting at [q]. *)
  let run_q =
    ref (if t.fp.Fastpath.enabled && t.fast_ok then run_start_of forms else None)
  in
  (* Entry row: lane nodes [ctx ∪ {o1..oi}], each original operation
     saved along its transition in order (Algorithm 1's first step,
     once per operation of the run).  Every lane state is fresh: it
     contains its operation, which no existing state does. *)
  let entry = Array.make (k + 1) entry_node in
  for i = 1 to k do
    let below = entry.(i - 1) in
    let st = Op_id.Set.add ids.(i - 1) below.state in
    let node = fresh_node t ~shash:(below.shash + mixes.(i - 1)) st in
    insert_transition t below ~tnode:node
      { orig = ids.(i - 1); form = forms.(i - 1); target = st };
    entry.(i) <- node
  done;
  let row = ref entry in
  List.iter
    (fun (tr, tgt) ->
      let prev = !row in
      let next = Array.make (k + 1) entry_node in
      next.(0) <- tgt;
      let fast =
        match !run_q with
        | None -> None
        | Some q -> (
          match tr.form.Op.action with
          | Op.Nop -> Some (0, false)
          | Op.Ins (_, r) ->
            if r < q then Some (1, false)
            else if r > q then Some (0, true)
            else None (* position tie: element priority decides *)
          | Op.Del (_, r) -> if r < q then Some (-1, false) else Some (0, true))
      in
      (match fast with
      | Some (lane_shift, path_shifts) ->
        (* Arithmetic level: the lanes shift together (or not at all)
           and the path form crosses them accumulating one shift per
           insertion it passes. *)
        for i = 1 to k do
          let below = next.(i - 1) in
          let st = Op_id.Set.add ids.(i - 1) below.state in
          let node = fresh_node t ~shash:(below.shash + mixes.(i - 1)) st in
          if lane_shift <> 0 then
            forms.(i - 1) <- shift_by lane_shift forms.(i - 1);
          let f_i = if path_shifts then shift_by i tr.form else tr.form in
          insert_transition t below ~tnode:node
            { orig = ids.(i - 1); form = forms.(i - 1); target = st };
          insert_transition t prev.(i) ~tnode:node
            { orig = tr.orig; form = f_i; target = st };
          next.(i) <- node
        done;
        t.fp.Fastpath.append_hits <- t.fp.Fastpath.append_hits + k;
        run_q := Option.map (fun q -> q + lane_shift) !run_q
      | None ->
        let f = ref tr.form in
        for i = 1 to k do
          let below = next.(i - 1) in
          let st = Op_id.Set.add ids.(i - 1) below.state in
          let node = fresh_node t ~shash:(below.shash + mixes.(i - 1)) st in
          let f' = xform t !f forms.(i - 1) in
          forms.(i - 1) <- xform t forms.(i - 1) !f;
          insert_transition t below ~tnode:node
            { orig = ids.(i - 1); form = forms.(i - 1); target = st };
          insert_transition t prev.(i) ~tnode:node
            { orig = tr.orig; form = f'; target = st };
          f := f';
          next.(i) <- node;
          t.fp.Fastpath.generic_squares <- t.fp.Fastpath.generic_squares + 1
        done;
        (* A tie level transforms lanes individually; the run shape
           may or may not survive. *)
        if Option.is_some !run_q then run_q := run_start_of forms);
      row := next)
    path;
  let last = !row in
  t.final <- last.(k).state;
  t.final_node <- last.(k);
  notify_growth t ~ot_before;
  Array.to_list forms

let add_run t ops =
  List.concat_map
    (fun seg ->
      match seg with
      | [ single ] -> [ add_op t single ]
      | seg -> run_segment t seg)
    (segment_runs ops)

let ot_count t = t.ot_count

let fastpath t = t.fp

let set_observer t notify = t.observer <- Some notify

let compact t ~stable ~base_doc =
  if Option.is_none (find_node_opt t stable) then
    invalid_arg
      (Format.asprintf "State_space.compact: %a is not a state" Op_id.Set.pp
         stable);
  if not (Op_id.Set.subset t.root stable) then
    invalid_arg "State_space.compact: stable state below the current root";
  (* The document at the stable state: the stable operations are the
     first ones in total order, so the leftmost path from the root
     passes through [stable] (Lemma 6.4); replay its prefix. *)
  let rec replay doc node =
    if Op_id.Set.equal node.state stable then doc
    else
      match node.transitions with
      | [] ->
        invalid_arg
          (Format.asprintf
             "State_space.compact: stable state %a not reachable along the \
              leftmost path"
             Op_id.Set.pp stable)
      | leftmost :: _ ->
        if not (Op_id.Set.subset leftmost.target stable) then
          invalid_arg
            (Format.asprintf
               "State_space.compact: %a is not a prefix of the total order"
               Op_id.Set.pp stable)
        else
          replay (Op.apply leftmost.form doc) (child_node node leftmost.orig)
  in
  let stable_doc = replay base_doc (find_node t t.root) in
  (* Drop every state that does not contain the stable set: no future
     context can match it.  (A transition from a surviving state
     targets a superset of it, hence also survives — only the doomed
     nodes' own transitions leave the count.) *)
  let doomed, survivors =
    fold_nodes t
      (fun node (doomed, survivors) ->
        if Op_id.Set.subset stable node.state then doomed, node :: survivors
        else node :: doomed, survivors)
      ([], [])
  in
  List.iter
    (fun node ->
      t.ntransitions <- t.ntransitions - List.length node.transitions)
    doomed;
  (* Rebase the survivors: subtract the stable set from every retained
     state, in place, so set sizes track the live window rather than
     the full operation history — without this, every context lookup
     and state hash would cost O(total ops ever) and a long-running
     replica's per-op latency would grow with its uptime.  The Zobrist
     sum makes the hash update O(|stable|) overall, and the root
     returns to the empty set: states are always relative to the
     current compaction frontier, which is why contexts crossing
     replica boundaries must be translated by the protocol (see
     Pruned_protocol).  The bucket table is rebuilt because the hashes
     changed; node pointers (the [children] mirror, [final_node])
     survive untouched. *)
  let stable_mix = Op_id.Set.fold (fun id acc -> acc + id_mix id) stable 0 in
  Hashtbl.reset t.nodes;
  t.nstates <- 0;
  List.iter
    (fun node ->
      node.state <- Op_id.Set.diff node.state stable;
      node.shash <- node.shash - stable_mix;
      node.transitions <-
        List.map
          (fun tr -> { tr with target = Op_id.Set.diff tr.target stable })
          node.transitions;
      register t node)
    survivors;
  t.root <- initial_state;
  t.final <- Op_id.Set.diff t.final stable;
  stable_doc

let transition_equal a b =
  Op_id.equal a.orig b.orig && Op.equal a.form b.form
  && Op_id.Set.equal a.target b.target

let equal t1 t2 =
  Op_id.Set.equal t1.final t2.final
  && num_states t1 = num_states t2
  && fold_nodes t1
       (fun node acc ->
         acc
         &&
         match bucket_find t2 node.shash node.state with
         | None -> false
         | Some node' ->
           List.length node.transitions = List.length node'.transitions
           && List.for_all2 transition_equal node.transitions node'.transitions)
       true

let of_raw ~key_of ~root ~final assoc =
  let t =
    {
      nodes = Hashtbl.create 64;
      nstates = 0;
      key_of;
      transform = Transform.xform;
      fast_ok = true;
      fp = Fastpath.create ();
      root;
      final;
      final_node =
        { state = final; shash = 0; transitions = []; children = [] };
      (* patched below *)
      ot_count = 0;
      ntransitions = 0;
      observer = None;
    }
  in
  List.iter
    (fun (state, _) ->
      let shash = state_hash state in
      if Option.is_some (bucket_find t shash state) then
        invalid_arg
          (Format.asprintf "State_space.of_raw: duplicate state %a"
             Op_id.Set.pp state);
      ignore (fresh_node t ~shash state))
    assoc;
  let require state =
    match find_node_opt t state with
    | Some node -> node
    | None ->
      invalid_arg
        (Format.asprintf "State_space.of_raw: missing state %a" Op_id.Set.pp
           state)
  in
  ignore (require root);
  t.final_node <- require final;
  List.iter
    (fun (state, transitions) ->
      let node = require state in
      List.iter
        (fun tr ->
          let tnode = require tr.target in
          insert_transition t node ~tnode tr)
        transitions)
    assoc;
  t

let union a b =
  let listing space =
    List.map (fun s -> s, (find_node space s).transitions) (states space)
  in
  let merged : transition list Op_id.State_table.t =
    Op_id.State_table.create 64
  in
  let add (state, transitions) =
    let existing =
      Option.value (Op_id.State_table.find_opt merged state) ~default:[]
    in
    let extended =
      List.fold_left
        (fun acc tr ->
          match List.find_opt (fun tr' -> Op_id.equal tr'.orig tr.orig) acc with
          | None -> tr :: acc
          | Some tr' ->
            if transition_equal tr tr' then acc
            else
              invalid_arg
                (Format.asprintf
                   "State_space.union: conflicting transitions for %a at %a"
                   Op_id.pp tr.orig Op_id.Set.pp state))
        existing transitions
    in
    Op_id.State_table.replace merged state extended
  in
  List.iter add (listing a);
  List.iter add (listing b);
  let final =
    if Op_id.Set.cardinal (final a) >= Op_id.Set.cardinal (final b) then
      final a
    else final b
  in
  let assoc =
    Op_id.State_table.fold (fun state trs acc -> (state, trs) :: acc) merged []
  in
  of_raw ~key_of:a.key_of ~root:a.root ~final assoc

let pp_state ppf state =
  if Op_id.Set.is_empty state then Format.pp_print_string ppf "{0}"
  else Op_id.Set.pp ppf state

let pp ppf t =
  let all =
    List.sort
      (fun n1 n2 -> Op_id.Set.compare n1.state n2.state)
      (fold_nodes t (fun node acc -> node :: acc) [])
  in
  let all =
    List.sort
      (fun n1 n2 ->
        Int.compare (Op_id.Set.cardinal n1.state) (Op_id.Set.cardinal n2.state))
      all
  in
  Format.fprintf ppf "@[<v>final: %a@," pp_state t.final;
  List.iter
    (fun node ->
      Format.fprintf ppf "%a:@," pp_state node.state;
      List.iter
        (fun tr ->
          Format.fprintf ppf "  -[%a %a]-> %a@," Op_id.pp tr.orig Op.pp tr.form
            pp_state tr.target)
        node.transitions)
    all;
  Format.fprintf ppf "@]"
