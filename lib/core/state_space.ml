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

(* A node does not store its state.  Every state a ladder creates is a
   known node's state plus one operation, so a node records that node
   ([up]) and the operation ([via]); its state is [up]'s plus [via],
   materialized only when an accessor asks for it.  Only {e base}
   nodes — the root, every {!of_raw} node, and the survivors
   {!compact} rebases across the stable frontier — hold their state
   explicitly, in [base]; a base node is its own [up].

   [edges] are the ordered outgoing transitions, each pointing at its
   target node, so the ladder walks follow pointers and never touch a
   set.  All fields are mutable for {!compact}'s in-place rebase
   (pointer identity is load-bearing: edges and [final_node] hold
   node pointers). *)
type node = {
  mutable shash : int;  (* [state_hash] of the state, kept incrementally *)
  mutable card : int;  (* cardinality of the state *)
  mutable up : node;
  mutable via : Op_id.t;
  mutable base : state;  (* the state of a base node; empty otherwise *)
  mutable edges : edge list;  (* sorted, leftmost first *)
}

and edge = {
  orig : Op_id.t;
  form : Op.t;
  dst : node;
}

type t = {
  (* Open addressing on the incremental state hash, linear probing,
     load at most one half; [vacant] marks an empty slot.  The rare
     same-hash states are told apart by cardinality and chain
     membership. *)
  mutable slots : node array;
  vacant : node;
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
  (* [final] is the one state handed out on every operation (it
     becomes the context of the replica's next message), so it is
     kept materialized: each operation grows it by one [Set.add] onto
     [final_src].  The two are the same set except after {!compact},
     which rebases each on its own — as it rebased the final state and
     the final node's copy of it when every node stored its set.  The
     provenance matters: message payload sizes are estimated with
     [Obj.reachable_words], which counts structure shared between the
     contexts of one batch once. *)
  mutable final : state;
  mutable final_src : state;
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

let is_base node = node.up == node

(* Base nodes carry no [via]; any identifier fills the field. *)
let no_via = Op_id.initial ~seq:1

let base_node ~shash state =
  let rec node =
    {
      shash;
      card = Op_id.Set.cardinal state;
      up = node;
      via = no_via;
      base = state;
      edges = [];
    }
  in
  node

(* --- The node table --------------------------------------------------- *)

let vacant_node () = base_node ~shash:0 Op_id.Set.empty

let slot_of slots shash = shash land (Array.length slots - 1)

let place slots vacant node =
  let mask = Array.length slots - 1 in
  let rec probe i =
    if slots.(i) == vacant then slots.(i) <- node else probe ((i + 1) land mask)
  in
  probe (slot_of slots node.shash)

let table_for vacant n =
  let rec pow2 c = if c >= 2 * n then c else pow2 (2 * c) in
  Array.make (pow2 64) vacant

let register t node =
  if 2 * (t.nstates + 1) > Array.length t.slots then begin
    let slots = Array.make (2 * Array.length t.slots) t.vacant in
    Array.iter
      (fun n -> if n != t.vacant then place slots t.vacant n)
      t.slots;
    t.slots <- slots
  end;
  place t.slots t.vacant node;
  t.nstates <- t.nstates + 1

(* The node with hash [shash] satisfying [matches], if any. *)
let lookup t shash matches =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  let rec probe i =
    let n = slots.(i) in
    if n == t.vacant then None
    else if n.shash = shash && matches n then Some n
    else probe ((i + 1) land mask)
  in
  probe (slot_of slots shash)

(* Slot order follows the state hashes and, within a probe run, the
   insertion order: deterministic, though not meaningful. *)
let fold_nodes t f acc =
  Array.fold_left (fun acc n -> if n == t.vacant then acc else f n acc) acc
    t.slots

(* A state known to be absent (every ladder state contains an
   operation no existing state does): no lookup.  Its hash is one
   addition away from [up]'s. *)
let fresh_node t ~up ~via ~mh =
  let node =
    {
      shash = up.shash + mh;
      card = up.card + 1;
      up;
      via;
      base = Op_id.Set.empty;
      edges = [];
    }
  in
  register t node;
  node

(* --- Materializing states ---------------------------------------------- *)

(* The state of one node: the base set of its chain plus every [via]
   above it, added bottom-up. *)
let state_of node =
  let rec climb node vias =
    if is_base node then
      List.fold_left (fun s id -> Op_id.Set.add id s) node.base vias
    else climb node.up (node.via :: vias)
  in
  climb node []

(* Many states at once: a per-call memo (nodes keyed by hash and told
   apart by identity) makes each node one [Set.add] onto its [up]'s
   materialized set. *)
let materializer () =
  let memo : (int, (node * state) list) Hashtbl.t = Hashtbl.create 256 in
  let known node =
    match Hashtbl.find_opt memo node.shash with
    | None -> None
    | Some bucket -> List.assq_opt node bucket
  in
  let remember node s =
    let bucket = Option.value (Hashtbl.find_opt memo node.shash) ~default:[] in
    Hashtbl.replace memo node.shash ((node, s) :: bucket)
  in
  let rec descend s = function
    | [] -> s
    | node :: rest ->
      let s = Op_id.Set.add node.via s in
      remember node s;
      descend s rest
  in
  let rec climb node pending =
    if is_base node then descend node.base pending
    else
      match known node with
      | Some s -> descend s pending
      | None -> climb node.up (node :: pending)
  in
  fun node -> climb node []

(* Whether [node]'s state is [s] ([card] elements), decided without
   materializing it: the cardinalities agree and every element of the
   chain is in [s]. *)
let holds node s ~card =
  let rec chain node =
    if is_base node then Op_id.Set.subset node.base s
    else Op_id.Set.mem node.via s && chain node.up
  in
  node.card = card && chain node

(* Whether [dst]'s state is [src]'s plus [o], decided from the chains
   alone.  A node made while processing an operation [x] has [via = x]
   and, in the ladder square that made it, either sits directly over
   the edge's source (the edge is [x]'s own) or copies an [o]-edge one
   level up: then [src] and [dst] both extend the ends of an [o]-edge
   below by [x], and that edge is checked the same way.  [false] only
   means undecided. *)
let rec extends_by_edge src dst o =
  dst.card = src.card + 1
  && (not (is_base dst))
  && (if dst.up == src then Op_id.equal dst.via o
      else
        (not (is_base src))
        && Op_id.equal src.via dst.via
        &&
        match List.find_opt (fun e -> Op_id.equal e.orig o) src.up.edges with
        | Some e -> e.dst == dst.up && extends_by_edge src.up dst.up o
        | None -> false)

(* The target of [edge] from [src], whose state is [src_state]: one
   [Set.add] when the chains show it extends [src] by [edge]'s
   operation (every edge a ladder made), a chain walk otherwise. *)
let target_of ~src ~src_state edge =
  if extends_by_edge src edge.dst edge.orig then
    Op_id.Set.add edge.orig src_state
  else state_of edge.dst

let transition_of ~src ~src_state edge =
  { orig = edge.orig; form = edge.form; target = target_of ~src ~src_state edge }

(* ------------------------------------------------------------------------ *)

let create ?(transform = Transform.xform) ?fastpath ~key_of () =
  let fp =
    match fastpath with Some fp -> fp | None -> Fastpath.create ()
  in
  let vacant = vacant_node () in
  let root_node = base_node ~shash:0 initial_state in
  let t =
    {
      slots = table_for vacant 1;
      vacant;
      nstates = 0;
      key_of;
      transform;
      fast_ok = transform == Transform.xform;
      fp;
      root = initial_state;
      final = initial_state;
      final_src = initial_state;
      final_node = root_node;
      ot_count = 0;
      ntransitions = 0;
      observer = None;
    }
  in
  register t root_node;
  t

let root t = t.root

let final t = t.final

let find_node_opt t state =
  let card = Op_id.Set.cardinal state in
  lookup t (state_hash state) (fun n -> holds n state ~card)

let find_node t state =
  match find_node_opt t state with
  | Some node -> node
  | None ->
    invalid_arg
      (Format.asprintf "State_space: no state matches context %a" Op_id.Set.pp
         state)

let mem_state t state = Option.is_some (find_node_opt t state)

let transitions t state =
  let src = find_node t state in
  List.map (transition_of ~src ~src_state:state) src.edges

(* In slot order (see {!fold_nodes}). *)
let states t =
  let state_of = materializer () in
  fold_nodes t (fun node acc -> state_of node :: acc) []

let num_states t = t.nstates

(* Maintained incrementally by {!insert_edge} / {!compact}: the growth
   observer reads it after every operation, so the O(states) fold is
   too slow to recompute each time. *)
let num_transitions t = t.ntransitions

let size t = num_states t + num_transitions t

(* Insert an edge among a node's ordered children; [key] is the
   ordering key of [edge.orig], which callers look up once per
   operation rather than once per insertion (a key may turn from
   [Pending] to [Serialized] between two operations, but never while
   one is processed, and the relative order never changes).  Equal
   keys cannot occur: an operation identifier labels at most one
   transition per state (Lemma 6.3's "parallel transitions" are at
   distinct states). *)
let insert_edge t node ~key edge =
  let rec insert = function
    | [] -> [ edge ]
    | e :: rest as all ->
      if Op_id.equal e.orig edge.orig then
        invalid_arg
          (Format.asprintf
             "State_space: operation %a already has a transition from state \
              %a"
             Op_id.pp edge.orig Op_id.Set.pp (state_of node))
      else if Order_key.compare key (t.key_of e.orig) < 0 then edge :: all
      else e :: insert rest
  in
  node.edges <- insert node.edges;
  t.ntransitions <- t.ntransitions + 1

(* Check that the leftmost path from [node] ends at the final node;
   the ladder walks below then follow it without re-checking. *)
let check_leftmost t ~start node =
  let rec walk n =
    match n.edges with
    | e :: _ -> walk e.dst
    | [] ->
      if n != t.final_node then
        invalid_arg
          (Format.asprintf
             "State_space: leftmost path from %a ends at %a, not at the \
              final state %a"
             Op_id.Set.pp start Op_id.Set.pp (state_of n) Op_id.Set.pp t.final)
  in
  walk node

let leftmost_path t state =
  let node = find_node t state in
  check_leftmost t ~start:state node;
  let rec walk src src_state acc =
    match src.edges with
    | [] -> List.rev acc
    | e :: _ ->
      let tr = transition_of ~src ~src_state e in
      walk e.dst tr.target (tr :: acc)
  in
  walk node state []

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
    notify ~level:t.final_node.card ~states:(num_states t)
      ~transitions:t.ntransitions ~ots:(t.ot_count - ot_before)

let check_fresh t id =
  if Op_id.Set.mem id t.final then
    invalid_arg
      (Format.asprintf "State_space: operation %a already processed" Op_id.pp
         id)

(* The final state gains [id]: one [Set.add], whatever the ladder
   did. *)
let grow_final t fnode id =
  let final = Op_id.Set.add id t.final_src in
  t.final <- final;
  t.final_src <- final;
  t.final_node <- fnode

let add_op t { Context.op; ctx } =
  let id = op.Op.id in
  check_fresh t id;
  let ot_before = t.ot_count in
  let mh = id_mix id in
  if context_is_final t ctx then begin
    (* Context-match fast path: O(1) node work, zero transformations,
       and — by Lemma 6.4 — exactly what the generic walk below would
       have produced from an empty leftmost path. *)
    t.fp.Fastpath.context_hits <- t.fp.Fastpath.context_hits + 1;
    let node = t.final_node in
    let fnode = fresh_node t ~up:node ~via:id ~mh in
    insert_edge t node ~key:(t.key_of id) { orig = id; form = op; dst = fnode };
    grow_final t fnode id;
    notify_growth t ~ot_before;
    op
  end
  else begin
    let entry = find_node t ctx in
    check_leftmost t ~start:ctx entry;
    let key = t.key_of id in
    (* One "square" of the commuting ladder per leftmost step: from
       the source [s] with leftmost edge [e : s -> s'], add
       [s -o-> s+o] (in its order among the children of [s]) and
       [s+o -e{o}-> s'+o], then continue from [s'] with [o{e}].  [s]'s
       leftmost edge is read before [s] gains the new edge, which is
       the path the walk checked above.  [s_plus] is [s + op]: fresh
       in the first square, the previous square's upper target
       afterwards. *)
    let rec ladder s s_plus o =
      match s.edges with
      | [] -> s, s_plus, o
      | e :: _ ->
        insert_edge t s ~key { orig = id; form = o; dst = s_plus };
        let tgt_plus = fresh_node t ~up:e.dst ~via:id ~mh in
        insert_edge t s_plus ~key:(t.key_of e.orig)
          { orig = e.orig; form = xform t e.form o; dst = tgt_plus };
        t.fp.Fastpath.generic_squares <- t.fp.Fastpath.generic_squares + 1;
        ladder e.dst tgt_plus (xform t o e.form)
    in
    let last, fnode, o = ladder entry (fresh_node t ~up:entry ~via:id ~mh) op in
    (* [last] is the final node: record the fully transformed form
       along the last op-labelled transition. *)
    insert_edge t last ~key { orig = id; form = o; dst = fnode };
    grow_final t fnode id;
    notify_growth t ~ot_before;
    o
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
  List.iter (fun { Context.op; _ } -> check_fresh t op.Op.id) seg;
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
  if quiescent then
    t.fp.Fastpath.context_hits <- t.fp.Fastpath.context_hits + k
  else check_leftmost t ~start:entry_ctx entry_node;
  let keys = Array.map t.key_of ids in
  (* While [Some q], the lanes form a pure append run starting at [q]. *)
  let run_q =
    ref (if t.fp.Fastpath.enabled && t.fast_ok then run_start_of forms else None)
  in
  (* Entry row: lane nodes [ctx ∪ {o1..oi}], each original operation
     saved along its transition in order (Algorithm 1's first step,
     once per operation of the run).  Every lane node is fresh: its
     state contains its operation, which no existing state does.  The
     path node's edges are read before the first lane edge joins
     them. *)
  let path = entry_node.edges in
  let entry = Array.make (k + 1) entry_node in
  for i = 1 to k do
    let below = entry.(i - 1) in
    let node = fresh_node t ~up:below ~via:ids.(i - 1) ~mh:mixes.(i - 1) in
    insert_edge t below ~key:keys.(i - 1)
      { orig = ids.(i - 1); form = forms.(i - 1); dst = node };
    entry.(i) <- node
  done;
  (* One level per leftmost step [e]: [prev] is the row of lane nodes
     above [e]'s source ([prev.(0)] the source, [prev.(i)] its state
     plus the run's first [i] operations), [cur] receives the row above
     [e]'s target; the two arrays swap roles level by level.  The
     target's edges are read before its first lane edge joins them. *)
  let rec levels prev cur = function
    | [] -> prev
    | e :: _ ->
      let tgt = e.dst in
      let path = tgt.edges in
      cur.(0) <- tgt;
      let path_key = t.key_of e.orig in
      let fast =
        match !run_q with
        | None -> None
        | Some q -> (
          match e.form.Op.action with
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
          let below = cur.(i - 1) in
          let node = fresh_node t ~up:below ~via:ids.(i - 1) ~mh:mixes.(i - 1) in
          if lane_shift <> 0 then
            forms.(i - 1) <- shift_by lane_shift forms.(i - 1);
          let f_i = if path_shifts then shift_by i e.form else e.form in
          insert_edge t below ~key:keys.(i - 1)
            { orig = ids.(i - 1); form = forms.(i - 1); dst = node };
          insert_edge t prev.(i) ~key:path_key
            { orig = e.orig; form = f_i; dst = node };
          cur.(i) <- node
        done;
        t.fp.Fastpath.append_hits <- t.fp.Fastpath.append_hits + k;
        run_q := Option.map (fun q -> q + lane_shift) !run_q
      | None ->
        let f = ref e.form in
        for i = 1 to k do
          let below = cur.(i - 1) in
          let node = fresh_node t ~up:below ~via:ids.(i - 1) ~mh:mixes.(i - 1) in
          let f' = xform t !f forms.(i - 1) in
          forms.(i - 1) <- xform t forms.(i - 1) !f;
          insert_edge t below ~key:keys.(i - 1)
            { orig = ids.(i - 1); form = forms.(i - 1); dst = node };
          insert_edge t prev.(i) ~key:path_key
            { orig = e.orig; form = f'; dst = node };
          f := f';
          cur.(i) <- node;
          t.fp.Fastpath.generic_squares <- t.fp.Fastpath.generic_squares + 1
        done;
        (* A tie level transforms lanes individually; the run shape
           may or may not survive. *)
        if Option.is_some !run_q then run_q := run_start_of forms);
      levels cur prev path
  in
  let last = levels entry (Array.make (k + 1) entry_node) path in
  Array.iter (fun id -> grow_final t last.(k) id) ids;
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

(* Whether [node]'s state holds every element of [s], [k = |s|]: count
   the chain's members of [s] until all are found or too few elements
   remain. *)
let covers node s ~k =
  let rec count node found =
    if found >= k then true
    else if node.card + found < k then false
    else if is_base node then
      Op_id.Set.fold
        (fun id n -> if Op_id.Set.mem id s then n + 1 else n)
        node.base found
      >= k
    else count node.up (if Op_id.Set.mem node.via s then found + 1 else found)
  in
  count node 0

let compact t ~stable ~base_doc =
  let stable_node =
    match find_node_opt t stable with
    | Some node -> node
    | None ->
      invalid_arg
        (Format.asprintf "State_space.compact: %a is not a state" Op_id.Set.pp
           stable)
  in
  if not (Op_id.Set.subset t.root stable) then
    invalid_arg "State_space.compact: stable state below the current root";
  let k = Op_id.Set.cardinal stable in
  (* The document at the stable state: the stable operations are the
     first ones in total order, so the leftmost path from the root
     passes through [stable] (Lemma 6.4); replay its prefix. *)
  let rec replay doc node state =
    if node == stable_node then doc
    else
      match node.edges with
      | [] ->
        invalid_arg
          (Format.asprintf
             "State_space.compact: stable state %a not reachable along the \
              leftmost path"
             Op_id.Set.pp stable)
      | e :: _ ->
        let target = target_of ~src:node ~src_state:state e in
        if not (Op_id.Set.subset target stable) then
          invalid_arg
            (Format.asprintf
               "State_space.compact: %a is not a prefix of the total order"
               Op_id.Set.pp stable)
        else replay (Op.apply e.form doc) e.dst target
  in
  let stable_doc = replay base_doc (find_node t t.root) t.root in
  (* Drop every state that does not contain the stable set: no future
     context can match it.  (A transition from a surviving state
     targets a superset of it, hence also survives — only the doomed
     nodes' own transitions leave the count.) *)
  let survivors =
    fold_nodes t
      (fun node survivors ->
        if covers node stable ~k then node :: survivors
        else begin
          t.ntransitions <- t.ntransitions - List.length node.edges;
          survivors
        end)
      []
  in
  (* Rebase the survivors: subtract the stable set from every retained
     state, in place, so set sizes track the live window rather than
     the full operation history — without this, every context lookup
     and state hash would cost O(total ops ever) and a long-running
     replica's per-op latency would grow with its uptime.  A survivor
     whose [via] is stable sits right above the frontier: its [up] is
     dropped, so it becomes a base node holding its rebased state.
     Every other survivor keeps its chain ([up] survives, [via] is not
     stable), and base survivors drop the stable elements from their
     base.  The new bases are computed before any node changes, since
     they read the old chains.  The Zobrist sum makes the hash update
     O(1) per node, and the root returns to the empty set: states are
     always relative to the current compaction frontier, which is why
     contexts crossing replica boundaries must be translated by the
     protocol (see Pruned_protocol).  The table is rebuilt because the
     hashes changed; node pointers (edges, [final_node]) survive
     untouched. *)
  let rebased =
    List.filter_map
      (fun node ->
        if is_base node then Some (node, Op_id.Set.diff node.base stable)
        else if Op_id.Set.mem node.via stable then
          Some (node, Op_id.Set.diff (state_of node) stable)
        else None)
      survivors
  in
  let stable_mix = state_hash stable in
  List.iter
    (fun node ->
      node.shash <- node.shash - stable_mix;
      node.card <- node.card - k)
    survivors;
  List.iter
    (fun (node, base) ->
      node.up <- node;
      node.via <- no_via;
      node.base <- base)
    rebased;
  t.slots <- table_for t.vacant (List.length survivors);
  t.nstates <- 0;
  List.iter (register t) survivors;
  t.root <- initial_state;
  t.final <- Op_id.Set.diff t.final stable;
  t.final_src <- Op_id.Set.diff t.final_src stable;
  stable_doc

let equal t1 t2 =
  Op_id.Set.equal t1.final t2.final
  && num_states t1 = num_states t2
  &&
  let state1 = materializer () and state2 = materializer () in
  let edge_equal e e' =
    Op_id.equal e.orig e'.orig && Op.equal e.form e'.form
    && Op_id.Set.equal (state1 e.dst) (state2 e'.dst)
  in
  fold_nodes t1
    (fun node acc ->
      acc
      &&
      let s = state1 node in
      match
        lookup t2 node.shash (fun n ->
            n.card = node.card && Op_id.Set.equal (state2 n) s)
      with
      | None -> false
      | Some node' ->
        List.length node.edges = List.length node'.edges
        && List.for_all2 edge_equal node.edges node'.edges)
    true

let of_raw ~key_of ~root ~final assoc =
  let vacant = vacant_node () in
  let t =
    {
      slots = table_for vacant (List.length assoc);
      vacant;
      nstates = 0;
      key_of;
      transform = Transform.xform;
      fast_ok = true;
      fp = Fastpath.create ();
      root;
      final;
      final_src = final;
      final_node = vacant (* patched below *);
      ot_count = 0;
      ntransitions = 0;
      observer = None;
    }
  in
  List.iter
    (fun (state, _) ->
      if mem_state t state then
        invalid_arg
          (Format.asprintf "State_space.of_raw: duplicate state %a"
             Op_id.Set.pp state);
      register t (base_node ~shash:(state_hash state) state))
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
        (fun (tr : transition) ->
          insert_edge t node ~key:(t.key_of tr.orig)
            { orig = tr.orig; form = tr.form; dst = require tr.target })
        transitions)
    assoc;
  t

let transition_equal (a : transition) (b : transition) =
  Op_id.equal a.orig b.orig && Op.equal a.form b.form
  && Op_id.Set.equal a.target b.target

let union a b =
  let listing space =
    List.map (fun s -> s, transitions space s) (states space)
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
        (fun acc (tr : transition) ->
          match
            List.find_opt
              (fun (tr' : transition) -> Op_id.equal tr'.orig tr.orig)
              acc
          with
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
  (* Sorted, so the listing [of_raw] sees does not depend on the
     table's iteration order. *)
  let assoc =
    List.sort
      (fun (s1, _) (s2, _) -> Op_id.Set.compare s1 s2)
      (Op_id.State_table.fold
         (fun state trs acc -> (state, trs) :: acc)
         merged []
       [@lint.allow "hashtbl-iter"])
  in
  of_raw ~key_of:a.key_of ~root:a.root ~final assoc

let pp_state ppf state =
  if Op_id.Set.is_empty state then Format.pp_print_string ppf "{0}"
  else Op_id.Set.pp ppf state

let pp ppf t =
  let all =
    List.sort
      (fun s1 s2 ->
        match
          Int.compare (Op_id.Set.cardinal s1) (Op_id.Set.cardinal s2)
        with
        | 0 -> Op_id.Set.compare s1 s2
        | c -> c)
      (states t)
  in
  Format.fprintf ppf "@[<v>final: %a@," pp_state t.final;
  List.iter
    (fun state ->
      Format.fprintf ppf "%a:@," pp_state state;
      List.iter
        (fun (tr : transition) ->
          Format.fprintf ppf "  -[%a %a]-> %a@," Op_id.pp tr.orig Op.pp tr.form
            pp_state tr.target)
        (transitions t state))
    all;
  Format.fprintf ppf "@]"
