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

(* The space is a struct-of-arrays store: nodes, edges and the
   operations they mention are dense indices into growable columns of
   int32 entries, so a ladder square writes a handful of integers,
   allocates nothing on the append path, and leaves nothing per node
   or edge for the major GC to scan.

   A node does not store its state.  Every state a ladder creates is a
   known node's state plus one operation, so a node records that node
   ([n_up]) and the operation ([n_via]); its state is [n_up]'s plus
   [n_via], materialized only when an accessor asks for it.  Only
   {e base} nodes — the root, every {!of_raw} node, and the survivors
   {!compact} rebases across the stable frontier — hold their state
   explicitly, in [bases]; a base node is its own [n_up].

   A node's ordered outgoing transitions are a chain of edges linked
   through [e_next] from [n_first], leftmost first.  An edge records
   its operation ([e_orig]), its target node ([e_dst]) and the
   position of its form ([e_pos], [none] for [Nop]), so the ladder
   walks follow indices and never touch a set.  Operations are
   interned: every identifier the space mentions has one index into
   [op_ids], so identifiers compare as [int]s.  A transformation moves
   an operation or turns it into [Nop], but keeps its identifier and
   element, so each interned operation keeps one form of its own
   ([op_form], the original for every operation Algorithm 1 saves) and
   an edge's form is that form at the edge's position, built only when
   a reader asks for it (see {!form_at}).

   Only base nodes are indexed by state ([base_index]); every other
   node is found by walking down from a base (see {!descend}).  A
   square that makes a node also inserts the edge [n_up -n_via-> node],
   and [n_via], the operation being processed, was interned after every
   other operation of the node's state.  So along the chain from a
   node's base up to the node the [n_via] indices increase, and at each
   chain node the next chain edge is the outgoing edge with the
   smallest operation index among those whose operation is in the
   node's state (an operation labels at most one transition per state,
   see {!splice}).  Ladder nodes therefore cost no index entry at
   all. *)

(* The absent node or edge. *)
let none = -1

(* --- Columns ------------------------------------------------------------ *)

(* A node or edge field is a column: a growable array of int32 entries
   kept as a spine of [Bytes] chunks, entry [i] the four bytes (in the
   machine's own order) at [4 * (i land chunk_mask)] of chunk
   [i lsr chunk_bits].  Every field is an index (node, edge or
   operation), a cardinality or a document position, so each fits in
   32 bits.  A [Bytes] chunk is opaque to the major GC, so its marker
   never scans the columns; a new chunk is one memset ([Bytes.make]);
   and an entry takes half a word.  The chunks are ordinary heap
   blocks, not Bigarrays: Bigarray data lies outside the heap, where
   [Gc.stat]'s [top_heap_words] and [Obj.reachable_words] do not see
   it, and its custom blocks measured more marking work, not less.

   Nothing wraps: node, edge and operation counts ({!new_node},
   {!new_edge}, {!new_op}) and positions ({!new_edge}, which {!of_raw}
   goes through too) are refused with [Invalid_argument] outside
   int32's range ({!fits}).  A cardinality is the size of a set held in
   memory, far below 2^31.

   A full column gains one chunk, so an entry is initialized once and
   never copied; doubling one flat array would re-initialize and copy
   every entry, at a cost comparable to the ladder squares that fill
   it.  Only the first chunk grows by doubling, never past one chunk,
   so a small space stays small.  Chunks of 512 entries measured faster
   on the unbatched lossy workload than chunks of 4 096, at the same
   allocation.

   An access checks [i] against the column's capacity [cap] with one
   branch and then reads the chunk unchecked.  [Bytes.get_int32_le]
   would instead work out the chunk's length from its header and last
   byte on every access: a build using it read the lossy workload's
   median apply time 8–36 % higher.  A read still costs a little more
   than an [int array] load, whatever form the check takes, since the
   entry is sign-extended and the byte offset untagged: about 5.3 ns
   against 4.4 ns per step of a cache-resident chain of reads, on an
   x86-64 Xeon. *)
type column = {
  mutable cap : int;  (* entries [0 .. cap - 1] have room *)
  mutable chunks : Bytes.t array;
}

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let chunk_bits = 9

let chunk_mask = (1 lsl chunk_bits) - 1

let max_entry = Int32.to_int Int32.max_int

let min_entry = Int32.to_int Int32.min_int

let[@inline] fits v = min_entry <= v && v <= max_entry

(* A chunk of [n] entries, each [fill]: 0 or [none], whose bytes are
   all equal. *)
let chunk n fill = Bytes.make (4 * n) (Char.unsafe_chr (fill land 0xff))

let column fill = { cap = 8; chunks = [| chunk 8 fill |] }

(* [a] copied into a fresh array of [n >= length a] entries. *)
let grown a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Whether [c] has room for entry [i]. *)
let[@inline] has_room c i = i < c.cap

(* Gives [c] room for entry [i], the first entry it has no room for.
   The spine doubles, empty chunks standing in for those not yet
   added. *)
let extend c i fill =
  if i <> c.cap then invalid_arg "State_space: a column grows at its end";
  let k = i lsr chunk_bits in
  if k = 0 then begin
    let n = min (2 * i) (chunk_mask + 1) in
    let b = chunk n fill in
    Bytes.blit c.chunks.(0) 0 b 0 (4 * c.cap);
    c.chunks.(0) <- b;
    c.cap <- n
  end
  else begin
    if k = Array.length c.chunks then
      c.chunks <- grown c.chunks (2 * k) Bytes.empty;
    c.chunks.(k) <- chunk (chunk_mask + 1) fill;
    c.cap <- (k + 1) lsl chunk_bits
  end

let no_entry = Invalid_argument "State_space: no such entry"

(* Refuses [i] unless [0 <= i < c.cap], with one branch: [i] and
   [c.cap - 1 - i] are both non-negative exactly then.  It raises
   rather than calling [invalid_arg], so that the caller's live values
   need not be saved around a call on every access. *)
let[@inline] check c i = if i lor (c.cap - 1 - i) < 0 then raise no_entry

let[@inline] iget c i =
  check c i;
  Int32.to_int
    (get32u
       (Array.unsafe_get c.chunks (i lsr chunk_bits))
       ((i land chunk_mask) lsl 2))

let[@inline] iset c i v =
  check c i;
  set32u
    (Array.unsafe_get c.chunks (i lsr chunk_bits))
    ((i land chunk_mask) lsl 2)
    (Int32.of_int v)

type t = {
  (* Nodes [0 .. nstates - 1]; a chain node's [n_up] is a smaller
     index, since it existed when the node was made. *)
  n_card : column;  (* cardinality of the state *)
  n_up : column;
  n_via : column;  (* an operation index; [none] on base nodes *)
  n_first : column;  (* the leftmost edge, or [none] *)
  mutable nstates : int;
  (* Every base node with its state, in index order, and each base
     node by its state. *)
  mutable bases : (int * state) array;
  base_index : int Op_id.State_table.t;
  (* Edges [0 .. ntransitions - 1]. *)
  e_orig : column;  (* an operation index *)
  e_dst : column;
  e_next : column;  (* the next edge from the source, or [none] *)
  e_pos : column;  (* the form's position; [none] for [Nop] *)
  mutable ntransitions : int;
  (* Interned operations [0 .. nops - 1], each with its form (see the
     comment on the store). *)
  mutable op_ids : Op_id.t array;
  mutable op_form : Op.t array;
  (* Lane [i]'s form as the last generic square built it (see
     {!levels}), reused from run to run. *)
  mutable lanes : Op.t array;
  (* Each operation's ordering key, valid while [op_epoch] is [epoch]:
     [key_of] is asked once per operation processed, not once per
     edge compared (a key may turn from [Pending] to [Serialized]
     between two operations, but never while one is processed). *)
  mutable op_key : Order_key.t array;
  mutable op_epoch : int array;
  mutable epoch : int;
  mutable nops : int;
  (* Every identifier the space mentions has one index.  A space grown
     by {!add_run} only ever meets an operation it does not hold yet
     (its states lie within [final], the operation does not), so only
     an {!of_raw} space, whose states need not, looks identifiers up
     here. *)
  op_index : int Op_id.Table.t option;
  key_of : Op_id.t -> Order_key.t;
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
  mutable final_node : int;
  mutable ot_count : int;
  (* Growth observer (observability layer): called once per run with
     the new final level and the post-growth totals.  [None]
     costs one branch per operation. *)
  mutable observer :
    (level:int -> states:int -> transitions:int -> ots:int -> unit) option;
}

let initial_state = Op_id.Set.empty

(* Fillers for the unused entries of the pointer arrays. *)
let no_id = Op_id.initial ~seq:1

let no_form = Op.nop ~id:no_id

let no_key = Order_key.Pending 0

let make ~key_of ~fp ~root ~final ~nodes ~op_index =
  let cap = 8 in
  {
    n_card = column 0;
    n_up = column none;
    n_via = column none;
    n_first = column none;
    nstates = 0;
    bases = [||];
    base_index = Op_id.State_table.create nodes;
    e_orig = column none;
    e_dst = column none;
    e_next = column none;
    e_pos = column none;
    ntransitions = 0;
    op_ids = Array.make cap no_id;
    op_form = Array.make cap no_form;
    lanes = [||];
    op_key = Array.make cap no_key;
    op_epoch = Array.make cap 0;
    epoch = 1;
    nops = 0;
    op_index;
    key_of;
    fp;
    root;
    final;
    final_src = final;
    final_node = none;
    ot_count = 0;
    observer = None;
  }

let[@inline] is_base t node = iget t.n_up node = node

(* The state of base node [node], by bisection. *)
let base_state t node =
  let rec search lo hi =
    let mid = (lo + hi) / 2 in
    let n, state = t.bases.(mid) in
    if n = node then state
    else if n < node then search (mid + 1) hi
    else search lo mid
  in
  search 0 (Array.length t.bases)

let[@inline] op_id t o = t.op_ids.(o)

(* The ordering key of operation [o] in the current epoch. *)
let[@inline] key_of_op t o =
  if t.op_epoch.(o) <> t.epoch then begin
    t.op_key.(o) <- t.key_of t.op_ids.(o);
    t.op_epoch.(o) <- t.epoch
  end;
  t.op_key.(o)

(* Keys looked up from here on may differ from those cached so far. *)
let new_epoch t = t.epoch <- t.epoch + 1

(* A new index for [f]'s operation, keeping [f] as its form. *)
let new_op t (f : Op.t) =
  let o = t.nops in
  if o = max_entry then invalid_arg "State_space: too many operations";
  if o = Array.length t.op_ids then begin
    t.op_ids <- grown t.op_ids (2 * o) no_id;
    t.op_form <- grown t.op_form (2 * o) no_form;
    t.op_key <- grown t.op_key (2 * o) no_key;
    t.op_epoch <- grown t.op_epoch (2 * o) 0
  end;
  t.op_ids.(o) <- f.id;
  t.op_form.(o) <- f;
  t.op_epoch.(o) <- 0;
  t.nops <- o + 1;
  o

(* [f], a form of the already interned operation [o], becomes [o]'s
   kept form unless it is a no-op; only its position may differ from
   the form kept so far, unless that one is a no-op (an {!of_raw} space
   may show an operation as [Nop] before, or without, any other
   form). *)
let keep_form t o (f : Op.t) =
  let kept = t.op_form.(o) in
  match kept.action, f.action with
  | _, Op.Nop -> ()
  | Op.Nop, (Op.Ins _ | Op.Del _) -> t.op_form.(o) <- f
  | Op.Ins (e, _), Op.Ins (e', _) | Op.Del (e, _), Op.Del (e', _)
    when Element.equal e e' ->
    t.op_form.(o) <- f
  | (Op.Ins _ | Op.Del _), (Op.Ins _ | Op.Del _) ->
    invalid_arg
      (Format.asprintf "State_space: operation %a has forms %a and %a" Op_id.pp
         f.id Op.pp kept Op.pp f)

(* The index of [f]'s operation, interned on first sight, with [f] as
   a form of it. *)
let intern t (f : Op.t) =
  match t.op_index with
  | None -> new_op t f
  | Some index -> (
    match Op_id.Table.find_opt index f.id with
    | Some o ->
      keep_form t o f;
      o
    | None ->
      let o = new_op t f in
      Op_id.Table.replace index f.id o;
      o)

(* The position of a form, [none] for [Nop]. *)
let pos_of (f : Op.t) =
  match f.action with Op.Ins (_, p) | Op.Del (_, p) -> p | Op.Nop -> none

(* Operation [o]'s form at position [pos] ([none]: the no-op): the kept
   form itself, no copy, when the position is its own. *)
let form_at t o pos =
  let kept = t.op_form.(o) in
  match kept.action with
  | Op.Ins (e, p) ->
    if p = pos then kept
    else if pos = none then Op.nop ~id:kept.id
    else Op.make_ins ~id:kept.id e pos
  | Op.Del (e, p) ->
    if p = pos then kept
    else if pos = none then Op.nop ~id:kept.id
    else Op.make_del ~id:kept.id e pos
  | Op.Nop -> kept

let[@inline] is_ins t o = Op.is_ins t.op_form.(o)

(* --- Nodes and edges ----------------------------------------------------- *)

(* A new node, taking the next index. *)
let[@inline] new_node t ~card ~up ~via =
  let i = t.nstates in
  if i = max_entry then invalid_arg "State_space: too many states";
  if not (has_room t.n_card i) then begin
    extend t.n_card i 0;
    extend t.n_up i none;
    extend t.n_via i none;
    extend t.n_first i none
  end;
  iset t.n_card i card;
  iset t.n_up i up;
  iset t.n_via i via;
  iset t.n_first i none;
  t.nstates <- i + 1;
  i

(* A base node holding [state], indexed; the caller lists it in
   [bases]. *)
let base_node t state =
  let i =
    new_node t ~card:(Op_id.Set.cardinal state) ~up:t.nstates ~via:none
  in
  Op_id.State_table.replace t.base_index state i;
  i, state

(* A state known to be absent (every ladder state contains an
   operation no existing state does): no lookup, and no index entry,
   since lookups reach it from [up] (see {!descend}). *)
let[@inline] fresh_node t ~up ~via =
  new_node t ~card:(iget t.n_card up + 1) ~up ~via

(* An edge heading the chain [next]; the caller links it in. *)
let[@inline] new_edge t ~orig ~pos ~dst ~next =
  let e = t.ntransitions in
  if e = max_entry then invalid_arg "State_space: too many transitions";
  if not (fits pos) then
    invalid_arg (Printf.sprintf "State_space: position %d beyond 32 bits" pos);
  if not (has_room t.e_orig e) then begin
    extend t.e_orig e none;
    extend t.e_dst e none;
    extend t.e_next e none;
    extend t.e_pos e none
  end;
  iset t.e_orig e orig;
  iset t.e_dst e dst;
  iset t.e_next e next;
  iset t.e_pos e pos;
  t.ntransitions <- e + 1;
  e

(* The edge labelled [o] in the chain from [e], or [none]. *)
let rec find_edge t e o =
  if e = none || iget t.e_orig e = o then e else find_edge t (iget t.e_next e) o

(* --- Materializing states ---------------------------------------------- *)

(* The state of one node: the base set of its chain plus every [via]
   above it, added bottom-up. *)
let state_of t node =
  let rec climb node vias =
    if is_base t node then
      List.fold_left (fun s id -> Op_id.Set.add id s) (base_state t node) vias
    else climb (iget t.n_up node) (op_id t (iget t.n_via node) :: vias)
  in
  climb node []

(* Many states at once: a per-call memo makes each node one [Set.add]
   onto its [up]'s materialized set.  The nodes must not change while
   it is in use. *)
let materializer t =
  let memo = Array.make t.nstates initial_state in
  let known = Bytes.make t.nstates '\000' in
  let rec descend s = function
    | [] -> s
    | node :: rest ->
      let s = Op_id.Set.add (op_id t (iget t.n_via node)) s in
      memo.(node) <- s;
      Bytes.set known node '\001';
      descend s rest
  in
  let rec climb node pending =
    if is_base t node then descend (base_state t node) pending
    else if Char.equal (Bytes.get known node) '\001' then
      descend memo.(node) pending
    else climb (iget t.n_up node) (node :: pending)
  in
  fun node -> climb node []

(* Whether [dst]'s state is [src]'s plus [o], decided from the chains
   alone.  A node made while processing an operation [x] has [via = x]
   and, in the ladder square that made it, either sits directly over
   the edge's source (the edge is [x]'s own) or copies an [o]-edge one
   level up: then [src] and [dst] both extend the ends of an [o]-edge
   below by [x], and that edge is checked the same way.  [false] only
   means undecided. *)
let rec extends_by_edge t src dst o =
  iget t.n_card dst = iget t.n_card src + 1
  && (not (is_base t dst))
  &&
  if iget t.n_up dst = src then iget t.n_via dst = o
  else
    (not (is_base t src))
    && iget t.n_via src = iget t.n_via dst
    &&
    let below = iget t.n_up src in
    let e = find_edge t (iget t.n_first below) o in
    e <> none
    && iget t.e_dst e = iget t.n_up dst
    && extends_by_edge t below (iget t.n_up dst) o

(* The target of edge [e] from [src], whose state is [src_state]: one
   [Set.add] when the chains show it extends [src] by [e]'s operation
   (every edge a ladder made), a chain walk otherwise. *)
let target_of t ~src ~src_state e =
  let orig = iget t.e_orig e and dst = iget t.e_dst e in
  if extends_by_edge t src dst orig then Op_id.Set.add (op_id t orig) src_state
  else state_of t dst

let[@inline] edge_form t e = form_at t (iget t.e_orig e) (iget t.e_pos e)

let transition_of t ~src ~src_state e =
  {
    orig = op_id t (iget t.e_orig e);
    form = edge_form t e;
    target = target_of t ~src ~src_state e;
  }

(* ------------------------------------------------------------------------ *)

let create ?fastpath ~key_of () =
  let fp =
    match fastpath with Some fp -> fp | None -> Fastpath.create ()
  in
  let t =
    make ~key_of ~fp ~root:initial_state ~final:initial_state
      ~nodes:1 ~op_index:None
  in
  let root = base_node t initial_state in
  t.bases <- [| root |];
  t.final_node <- fst root;
  t

let root t = t.root

let final t = t.final

(* --- Finding states ---------------------------------------------------- *)

(* Among the edges from [e] on whose operation is in [s], the one with
   the smallest operation index ([best] if none is smaller).  Toplevel,
   so a step allocates no closure. *)
let rec smallest_edge_in t s e best =
  if e = none then best
  else
    let o = iget t.e_orig e in
    let best =
      if (best = none || o < iget t.e_orig best) && Op_id.Set.mem (op_id t o) s
      then e
      else best
    in
    smallest_edge_in t s (iget t.e_next e) best

(* The node of [s] ([card] elements) reached from [node], whose state
   lies within [s], or [none].  Each step takes the outgoing edge with
   the smallest operation index whose operation is in [s]: from the
   base of [s]'s chain these are the chain edges (see the comment on
   the store).  An edge into a chain node adds its operation to its
   source's state, so every node reached lies within [s], and reaching
   [card] elements is reaching [s].  A step into a base node ends the
   walk; that base is tried on its own. *)
let rec descend t s ~card node =
  if iget t.n_card node = card then node
  else
    let e = smallest_edge_in t s (iget t.n_first node) none in
    if e = none then none
    else
      let dst = iget t.e_dst e in
      if is_base t dst then none else descend t s ~card dst

(* The node of [state], or [none]: a base node by its index entry, any
   other by a descent from each base within [state], in index order. *)
let find_node_opt t state =
  match Op_id.State_table.find_opt t.base_index state with
  | Some node -> node
  | None ->
    let card = Op_id.Set.cardinal state in
    let rec from k =
      if k = Array.length t.bases then none
      else
        let b, base = t.bases.(k) in
        let node =
          if iget t.n_card b < card && Op_id.Set.subset base state then
            descend t state ~card b
          else none
        in
        if node <> none then node else from (k + 1)
    in
    from 0

let find_node t state =
  let node = find_node_opt t state in
  if node = none then
    invalid_arg
      (Format.asprintf "State_space: no state matches context %a" Op_id.Set.pp
         state);
  node

let mem_state t state = find_node_opt t state <> none

let transitions t state =
  let src = find_node t state in
  let rec collect e acc =
    if e = none then List.rev acc
    else
      collect (iget t.e_next e)
        (transition_of t ~src ~src_state:state e :: acc)
  in
  collect (iget t.n_first src) []

(* In creation order. *)
let states t = List.init t.nstates (materializer t)

let listing t =
  let state_of = materializer t in
  let rec collect e acc =
    if e = none then List.rev acc
    else
      collect (iget t.e_next e)
        ({
           orig = op_id t (iget t.e_orig e);
           form = edge_form t e;
           target = state_of (iget t.e_dst e);
         }
        :: acc)
  in
  List.init t.nstates (fun node ->
      state_of node, collect (iget t.n_first node) [])

let num_states t = t.nstates

(* Kept by {!insert_edge} / {!compact}: the growth observer reads it
   after every operation. *)
let num_transitions t = t.ntransitions

let size t = num_states t + num_transitions t

(* Splice a new edge into [node]'s ordered chain, before the first edge
   [cur] whose key exceeds [key], the ordering key of [orig]; the keys
   of the edges passed come from the per-epoch cache ({!key_of_op}).
   Equal keys cannot occur: an operation identifier labels at most one
   transition per state (Lemma 6.3's "parallel transitions" are at
   distinct states).  A toplevel recursion, so a splice allocates no
   closure. *)
let rec splice t node ~key ~orig ~pos ~dst prev cur =
  let o = if cur = none then none else iget t.e_orig cur in
  if o = orig then
    invalid_arg
      (Format.asprintf
         "State_space: operation %a already has a transition from state %a"
         Op_id.pp (op_id t orig) Op_id.Set.pp (state_of t node))
  else if o = none || Order_key.compare key (key_of_op t o) < 0 then begin
    let e = new_edge t ~orig ~pos ~dst ~next:cur in
    if prev = none then iset t.n_first node e else iset t.e_next prev e
  end
  else splice t node ~key ~orig ~pos ~dst cur (iget t.e_next cur)

let[@inline] insert_edge t node ~key ~orig ~pos ~dst =
  splice t node ~key ~orig ~pos ~dst none (iget t.n_first node)

(* Check that the leftmost path from [node] ends at the final node;
   the ladder walks below then follow it without re-checking. *)
let check_leftmost t ~start node =
  let rec walk n =
    let e = iget t.n_first n in
    if e <> none then walk (iget t.e_dst e)
    else if n <> t.final_node then
      invalid_arg
        (Format.asprintf
           "State_space: leftmost path from %a ends at %a, not at the final \
            state %a"
           Op_id.Set.pp start Op_id.Set.pp (state_of t n) Op_id.Set.pp t.final)
  in
  walk node

let leftmost_path t state =
  let node = find_node t state in
  check_leftmost t ~start:state node;
  let rec walk src src_state acc =
    let e = iget t.n_first src in
    if e = none then List.rev acc
    else
      let tr = transition_of t ~src ~src_state e in
      walk (iget t.e_dst e) tr.target (tr :: acc)
  in
  walk node state []

(* Every operation's final node is made on the previous final node (a
   run's top lane builds it so), so the final node's chain down to its
   base visits every earlier final state. *)
let final_path t =
  let rec chain node above =
    if is_base t node then node :: above
    else chain (iget t.n_up node) (node :: above)
  in
  List.map (materializer t) (chain t.final_node [])

let[@inline] xform t o1 o2 =
  t.ot_count <- t.ot_count + 1;
  Transform.xform o1 o2

(* The context of a quiescent replica's next operation is its current
   final state: the leftmost path is empty, no transformation can
   happen, and the whole of Algorithm 1 collapses to appending the
   run's lanes at the final node.  The physical-equality test catches
   the common case (protocols pass [final t] through) without paying
   the set comparison. *)
let context_is_final t ctx = ctx == t.final || Op_id.Set.equal ctx t.final

let notify_growth t ~ot_before =
  match t.observer with
  | None -> ()
  | Some notify ->
    notify ~level:(iget t.n_card t.final_node) ~states:(num_states t)
      ~transitions:t.ntransitions ~ots:(t.ot_count - ot_before)

let check_fresh t id =
  if Op_id.Set.mem id t.final then
    invalid_arg
      (Format.asprintf "State_space: operation %a already processed" Op_id.pp
         id)

(* --- Algorithm 1 ------------------------------------------------------ *)

(* [extends_by ~prev ctx'] holds when [ctx'] is [prev]'s context
   extended by exactly [prev]'s operation — the shape of two
   operations generated back to back by one replica.  Within one FIFO
   stream contexts grow monotonically, so this test is also how a
   mixed batch is split back into contiguous runs.  Equality is
   decided by cardinality and inclusion, which allocates nothing when
   the two trees have the same shape — as they do when [ctx'] was
   built by the same [Set.add] — where [Op_id.Set.equal] allocates
   along both trees. *)
let extends_by ~prev ctx' =
  let ctx = Op_id.Set.add prev.Context.op.Op.id prev.Context.ctx in
  Op_id.Set.cardinal ctx' = Op_id.Set.cardinal ctx && Op_id.Set.subset ctx' ctx

(* Maximal contiguous runs of a batch, order preserved. *)
let rec segment_runs = function
  | [] -> []
  | first :: rest ->
    let rec run prev seg = function
      | oc :: rest when extends_by ~prev oc.Context.ctx -> run oc (oc :: seg) rest
      | rest -> List.rev seg :: segment_runs rest
    in
    run first [ first ] rest

(* The start position of a pure append run — [k] insertions at
   consecutive ascending positions, the shape the append-log and typing
   workloads emit — if the [k] lanes of [work] (see {!levels}) form
   one, or [none]. *)
let run_start t ~k work =
  let q = work.(k) in
  let rec ok i =
    i = k || (is_ins t work.(i) && work.(k + i) = q + i && ok (i + 1))
  in
  if ok 0 then q else none

(* The ladder levels of a run of [k] lanes, one per leftmost step [e].
   [work] holds lane [i]'s interned operation at [i - 1], the position
   of its form as transformed so far at [k + i - 1] ([none] once it is
   a no-op), and two rows of lane nodes, at offsets [prev] and [cur]:
   [prev] is the row above [e]'s source ([work.(prev)] the source,
   [work.(prev + i)] its state plus the run's first [i] operations),
   [cur] receives the row above [e]'s target; the two swap roles level
   by level.  The target's leftmost edge is read before its first lane
   edge joins its chain.  [keys] holds each lane's ordering key; while
   [run_q] is not [none], the lanes form a pure append run starting at
   [run_q].  [t.lanes.(i - 1)] is lane [i]'s form as the last generic
   square built it: the next generic square reuses it while the
   position is still its own (an arithmetic level moves the position
   alone).  Returns the offset of the top row. *)
let rec levels t ~k ~work ~keys ~run_q prev cur e =
  if e = none then prev
  else begin
    let tgt = iget t.e_dst e and e_orig = iget t.e_orig e in
    let e_pos = iget t.e_pos e in
    let path = iget t.n_first tgt in
    work.(cur) <- tgt;
    let path_key = key_of_op t e_orig in
    (* An arithmetic level: the path form acts strictly outside the
       append run, so every lane shifts by [lane_shift] and the path
       form, when [path_shifts], by one per insertion it passes. *)
    let arithmetic, lane_shift, path_shifts =
      if run_q = none then false, 0, false
      else if e_pos = none then true, 0, false
      else if is_ins t e_orig then
        if e_pos < run_q then true, 1, false
        else if e_pos > run_q then true, 0, true
        else false, 0, false (* position tie: element priority decides *)
      else if e_pos < run_q then true, -1, false
      else true, 0, true
    in
    (* [f] is the path form as it crosses lane [i], on generic levels
       only. *)
    let f = ref (if arithmetic then no_form else form_at t e_orig e_pos) in
    for i = 1 to k do
      let below = work.(cur + i - 1) and o = work.(i - 1) in
      let node = fresh_node t ~up:below ~via:o in
      let lane_pos, path_pos =
        if arithmetic then
          ( work.(k + i - 1) + lane_shift,
            if path_shifts then e_pos + i else e_pos )
        else begin
          let pos = work.(k + i - 1) and last = t.lanes.(i - 1) in
          let lane = if pos_of last = pos then last else form_at t o pos in
          let f' = xform t !f lane in
          let lane' = xform t lane !f in
          if lane' != last then t.lanes.(i - 1) <- lane';
          f := f';
          t.fp.Fastpath.generic_squares <- t.fp.Fastpath.generic_squares + 1;
          pos_of lane', pos_of f'
        end
      in
      work.(k + i - 1) <- lane_pos;
      insert_edge t below ~key:keys.(i - 1) ~orig:o ~pos:lane_pos ~dst:node;
      insert_edge t work.(prev + i) ~key:path_key ~orig:e_orig ~pos:path_pos
        ~dst:node;
      work.(cur + i) <- node
    done;
    let run_q =
      if run_q = none then none
      else if arithmetic then begin
        t.fp.Fastpath.append_hits <- t.fp.Fastpath.append_hits + k;
        run_q + lane_shift
      end
      else
        (* A tie level transforms lanes individually; the run shape
           may or may not survive. *)
        run_start t ~k work
    in
    levels t ~k ~work ~keys ~run_q cur prev path
  end

(* Algorithm 1 over one contiguous run of [k >= 1] operations, with a
   single leftmost-path walk; a single operation is the run [k = 1].
   The run enters the ladder as [k] stacked lanes, each operation
   saved at its context along the transition of its order; every
   leftmost step [e : s -> s'] is one level, and at each level lane
   [i] makes one square: [s_i+o -e{o}-> s'_i+o] and [s'_i -o{e}-> s'_i+o],
   continuing with [o{e}].  The squares of one level depend only on
   their neighbours, so the level-major order inserts exactly the
   transitions, with the same forms, that processing the operations one
   at a time would; without the append specialization below,
   [ot_count] therefore does not depend on how a batch is split into
   runs.  When the context is the final state (a quiescent replica),
   the path is empty and the walk is the context-match append: no
   square, no transformation.

   The append specialization (enabled by the run's {!Fastpath.t}, valid
   only for the standard view-position transform, and only for runs of
   [k >= 2], so a lone operation always takes the generic squares):
   when the lanes are a pure append run starting at [q] and the path
   form acts strictly outside the run — an insertion at [r <> q], any
   deletion, or a no-op — the whole level resolves by position
   arithmetic on the stored positions, replacing [2k] primitive
   transformations with [O(k)] additions that reproduce the
   transform's case analysis exactly (ties at [r = q], where element
   priority decides, fall back to the generic squares) and building no
   form at all. *)
let run_segment t seg =
  let k = List.length seg in
  List.iter (fun oc -> check_fresh t oc.Context.op.Op.id) seg;
  new_epoch t;
  let ot_before = t.ot_count in
  let entry_ctx = (List.hd seg).Context.ctx in
  let quiescent = context_is_final t entry_ctx in
  let entry_node =
    if quiescent then t.final_node else find_node t entry_ctx
  in
  if quiescent then
    t.fp.Fastpath.context_hits <- t.fp.Fastpath.context_hits + k
  else check_leftmost t ~start:entry_ctx entry_node;
  (* One array for the walk's integers (see {!levels}), the entry row
     at offset [2k]: each allocation here is a C call, which a lone
     operation would feel. *)
  let keys = Array.make k no_key in
  let work = Array.make ((4 * k) + 2) none in
  if Array.length t.lanes < k then t.lanes <- Array.make (2 * k) no_form;
  List.iteri
    (fun i { Context.op; _ } ->
      keys.(i) <- t.key_of op.Op.id;
      work.(i) <- intern t op;
      work.(k + i) <- pos_of op;
      t.lanes.(i) <- op)
    seg;
  let run_q =
    if t.fp.Fastpath.enabled && k >= 2 then run_start t ~k work else none
  in
  (* Entry row: lane nodes [ctx ∪ {o1..oi}], each original operation
     saved along its transition in order (Algorithm 1's first step,
     once per operation of the run).  Every lane node is fresh: its
     state contains its operation, which no existing state does.  The
     path node's leftmost edge is read before the first lane edge
     joins its chain. *)
  let path = iget t.n_first entry_node in
  let entry = 2 * k in
  work.(entry) <- entry_node;
  for i = 1 to k do
    let below = work.(entry + i - 1) in
    let node = fresh_node t ~up:below ~via:work.(i - 1) in
    insert_edge t below ~key:keys.(i - 1) ~orig:work.(i - 1)
      ~pos:work.(k + i - 1) ~dst:node;
    work.(entry + i) <- node
  done;
  let last = levels t ~k ~work ~keys ~run_q entry (entry + k + 1) path in
  (* The final state gains the run: one [Set.add] per operation,
     whatever the ladder did. *)
  for i = 0 to k - 1 do
    t.final_src <- Op_id.Set.add (op_id t work.(i)) t.final_src
  done;
  t.final <- t.final_src;
  t.final_node <- work.(last + k);
  notify_growth t ~ot_before;
  List.init k (fun i -> form_at t work.(i) work.(k + i))

let add_op t oc = List.hd (run_segment t [ oc ])

let add_run t ops = List.concat_map (run_segment t) (segment_runs ops)

let ot_count t = t.ot_count

let fastpath t = t.fp

let set_observer t notify = t.observer <- Some notify

(* [keep] with [none] for every dropped entry and, for the others,
   their new indices: ascending, from 0.  Returns the number kept. *)
let renumber keep =
  let n = ref 0 in
  Array.iteri
    (fun i k ->
      if k <> none then begin
        keep.(i) <- !n;
        incr n
      end)
    keep;
  !n

let compact t ~stable ~base_doc =
  let stable_node = find_node_opt t stable in
  if stable_node = none then
    invalid_arg
      (Format.asprintf "State_space.compact: %a is not a state" Op_id.Set.pp
         stable);
  if not (Op_id.Set.subset t.root stable) then
    invalid_arg "State_space.compact: stable state below the current root";
  let k = Op_id.Set.cardinal stable in
  (* The document at the stable state: the stable operations are the
     first ones in total order, so the leftmost path from the root
     passes through [stable] (Lemma 6.4); replay its prefix.  Every
     state on the way must lie within [stable]: the root does, and a
     step whose chains show it adds one operation stays within iff
     that operation is stable, so only the other steps materialize
     their target. *)
  let rec replay doc node =
    if node = stable_node then doc
    else
      let e = iget t.n_first node in
      if e = none then
        invalid_arg
          (Format.asprintf
             "State_space.compact: stable state %a not reachable along the \
              leftmost path"
             Op_id.Set.pp stable)
      else
        let orig = iget t.e_orig e and dst = iget t.e_dst e in
        let within =
          if extends_by_edge t node dst orig then
            Op_id.Set.mem (op_id t orig) stable
          else Op_id.Set.subset (state_of t dst) stable
        in
        if not within then
          invalid_arg
            (Format.asprintf
               "State_space.compact: %a is not a prefix of the total order"
               Op_id.Set.pp stable)
        else replay (Op.apply (edge_form t e) doc) dst
  in
  let stable_doc = replay base_doc (find_node t t.root) in
  (* Drop every state that does not contain the stable set: no future
     context can match it.  A transition from a surviving state
     targets a superset of it, hence also survives; so do the
     operations the surviving chains and edges mention.  Everything
     else is dropped and the survivors renumbered by index, in their
     old order, so each array compacts in place.

     Rebase the survivors: subtract the stable set from every retained
     state, so set sizes track the live window rather than the full
     operation history — without this, every context lookup and state
     hash would cost O(total ops ever) and a long-running replica's
     per-op latency would grow with its uptime.  A survivor whose
     [via] is stable sits right above the frontier: its [up] is
     dropped, so it becomes a base node holding its rebased state.
     Every other survivor keeps its chain ([up] survives, [via] is not
     stable), and base survivors drop the stable elements from their
     base.  The new bases are computed before any node changes, since
     they read the old chains, and only they are indexed again: a chain
     keeps its order of interned operations, so lookups still descend
     along it.  The root returns to the empty set: states are always
     relative to the current compaction frontier, which is why contexts
     crossing replica boundaries must be translated by the protocol (see
     Pruned_protocol). *)
  let nodes = t.nstates and edges = t.ntransitions in
  (* [inside.(i)]: how many stable operations node [i]'s state holds.
     A chain node's [up] precedes it in index order, so one ascending
     pass counts them all, one membership test per node. *)
  let inside = Array.make nodes 0 in
  let node_map = Array.make nodes none in
  let edge_map = Array.make edges none in
  let op_map = Array.make t.nops none in
  let rebased = Bytes.make nodes '\000' in
  let new_bases = ref [] in
  for i = 0 to nodes - 1 do
    inside.(i) <-
      (if is_base t i then
         Op_id.Set.fold
           (fun id n -> if Op_id.Set.mem id stable then n + 1 else n)
           (base_state t i) 0
       else
         inside.(iget t.n_up i)
         + if Op_id.Set.mem (op_id t (iget t.n_via i)) stable then 1 else 0);
    if inside.(i) = k then begin
      node_map.(i) <- i;
      let rec mark e =
        if e <> none then begin
          edge_map.(e) <- e;
          op_map.(iget t.e_orig e) <- 0;
          mark (iget t.e_next e)
        end
      in
      mark (iget t.n_first i);
      if is_base t i then begin
        Bytes.set rebased i '\001';
        new_bases := (i, Op_id.Set.diff (base_state t i) stable) :: !new_bases
      end
      else if Op_id.Set.mem (op_id t (iget t.n_via i)) stable then begin
        Bytes.set rebased i '\001';
        new_bases := (i, Op_id.Set.diff (state_of t i) stable) :: !new_bases
      end
      else op_map.(iget t.n_via i) <- 0
    end
  done;
  let survivors = renumber node_map in
  let kept_edges = renumber edge_map in
  let kept_ops = renumber op_map in
  for o = 0 to t.nops - 1 do
    let o' = op_map.(o) in
    if o' <> none then begin
      t.op_ids.(o') <- t.op_ids.(o);
      t.op_form.(o') <- t.op_form.(o)
    end
  done;
  Array.fill t.op_ids kept_ops (t.nops - kept_ops) no_id;
  Array.fill t.op_form kept_ops (t.nops - kept_ops) no_form;
  t.nops <- kept_ops;
  Option.iter
    (fun index ->
      Op_id.Table.reset index;
      for o = 0 to kept_ops - 1 do
        Op_id.Table.replace index t.op_ids.(o) o
      done)
    t.op_index;
  let remap map i = if i = none then none else map.(i) in
  for e = 0 to edges - 1 do
    let e' = edge_map.(e) in
    if e' <> none then begin
      iset t.e_orig e' (op_map.(iget t.e_orig e));
      iset t.e_dst e' (node_map.(iget t.e_dst e));
      iset t.e_next e' (remap edge_map (iget t.e_next e));
      iset t.e_pos e' (iget t.e_pos e)
    end
  done;
  t.ntransitions <- kept_edges;
  for i = 0 to nodes - 1 do
    let i' = node_map.(i) in
    if i' <> none then begin
      iset t.n_card i' (iget t.n_card i - k);
      if Char.equal (Bytes.get rebased i) '\001' then begin
        iset t.n_up i' i';
        iset t.n_via i' none
      end
      else begin
        iset t.n_up i' (node_map.(iget t.n_up i));
        iset t.n_via i' (op_map.(iget t.n_via i))
      end;
      iset t.n_first i' (remap edge_map (iget t.n_first i))
    end
  done;
  t.nstates <- survivors;
  Op_id.State_table.reset t.base_index;
  t.bases <-
    Array.of_list
      (List.rev_map
         (fun (i, base) ->
           let i' = node_map.(i) in
           Op_id.State_table.replace t.base_index base i';
           i', base)
         !new_bases);
  t.final_node <- node_map.(t.final_node);
  t.root <- initial_state;
  t.final <- Op_id.Set.diff t.final stable;
  t.final_src <- Op_id.Set.diff t.final_src stable;
  stable_doc

let equal t1 t2 =
  Op_id.Set.equal t1.final t2.final
  && num_states t1 = num_states t2
  &&
  let state1 = materializer t1 and state2 = materializer t2 in
  let rec chains_equal e e' =
    if e = none || e' = none then e = none && e' = none
    else
      Op_id.equal (op_id t1 (iget t1.e_orig e)) (op_id t2 (iget t2.e_orig e'))
      && Op.equal (edge_form t1 e) (edge_form t2 e')
      && Op_id.Set.equal (state1 (iget t1.e_dst e)) (state2 (iget t2.e_dst e'))
      && chains_equal (iget t1.e_next e) (iget t2.e_next e')
  in
  let rec nodes_equal node =
    node = t1.nstates
    ||
    let node' = find_node_opt t2 (state1 node) in
    node' <> none
    && chains_equal (iget t1.n_first node) (iget t2.n_first node')
    && nodes_equal (node + 1)
  in
  nodes_equal 0

let of_raw ~key_of ~root ~final assoc =
  let t =
    make ~key_of ~fp:(Fastpath.create ()) ~root
      ~final ~nodes:(List.length assoc)
      ~op_index:(Some (Op_id.Table.create 16))
  in
  t.bases <-
    Array.of_list
      (List.map
         (fun (state, _) ->
           if Op_id.State_table.mem t.base_index state then
             invalid_arg
               (Format.asprintf "State_space.of_raw: duplicate state %a"
                  Op_id.Set.pp state);
           base_node t state)
         assoc);
  let require state =
    let node = find_node_opt t state in
    if node = none then
      invalid_arg
        (Format.asprintf "State_space.of_raw: missing state %a" Op_id.Set.pp
           state);
    node
  in
  ignore (require root);
  t.final_node <- require final;
  List.iter
    (fun (state, transitions) ->
      let node = require state in
      List.iter
        (fun (tr : transition) ->
          let dst = require tr.target in
          if not (Op_id.equal tr.form.id tr.orig) then
            invalid_arg
              (Format.asprintf
                 "State_space.of_raw: the transition of %a carries form %a"
                 Op_id.pp tr.orig Op.pp tr.form);
          insert_edge t node ~key:(t.key_of tr.orig) ~orig:(intern t tr.form)
            ~pos:(pos_of tr.form) ~dst)
        transitions)
    assoc;
  t

let transition_equal (a : transition) (b : transition) =
  Op_id.equal a.orig b.orig && Op.equal a.form b.form
  && Op_id.Set.equal a.target b.target

let union a b =
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
      (fun (s1, _) (s2, _) ->
        match
          Int.compare (Op_id.Set.cardinal s1) (Op_id.Set.cardinal s2)
        with
        | 0 -> Op_id.Set.compare s1 s2
        | c -> c)
      (listing t)
  in
  Format.fprintf ppf "@[<v>final: %a@," pp_state t.final;
  List.iter
    (fun (state, transitions) ->
      Format.fprintf ppf "%a:@," pp_state state;
      List.iter
        (fun (tr : transition) ->
          Format.fprintf ppf "  -[%a %a]-> %a@," Op_id.pp tr.orig Op.pp tr.form
            pp_state tr.target)
        transitions)
    all;
  Format.fprintf ppf "@]"
