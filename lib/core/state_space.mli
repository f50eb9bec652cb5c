(** The n-ary ordered state-space (paper, Section 6.1) and the uniform
    operation processing of the CSS protocol (Section 6.2,
    Algorithm 1).

    States are sets of (original) operation identifiers — the
    operations a replica passing through that state has processed
    (Definition 4.5).  A transition between two states is labelled
    with the (original or transformed) operation involved; the
    transitions leaving a state are totally ordered by the server's
    serialization order ({!Order_key}).  Unlike a 2D state-space, a
    state may have up to [n] children (Lemma 6.1).

    {!add_op} and {!add_run} implement Algorithm 1: look up the state
    matching the operation's context, save the operation there along
    the transition of the right order, transform it iteratively along
    the {e leftmost} transitions to the final state — arranging every
    new transition in its appropriate order — and return the fully
    transformed form for execution.  Both go through one walk over a
    run of operations; a single operation is a one-operation run.

    Nodes do not store their states: a node created by a ladder square
    records the node it extends and the operation it adds, and a
    transition records its operation, the position of its form and its
    target node.  A transformation only moves an operation or makes it
    [Nop], so each operation keeps one form of its own (the original
    for every operation Algorithm 1 saves) and a transition's form is
    rebuilt from it and the position when read; a form at the kept
    form's own position is returned as is, not copied.  Nodes,
    transitions and operations are indices into growable [int] arrays,
    so a ladder square writes a few integers, allocates nothing on the
    append path and only its transient transformed forms otherwise, and
    Algorithm 1 ({!add_op}, {!add_run}) never builds a set beyond the
    final state.  The accessors that return
    states — {!states}, {!listing}, {!transitions}, {!leftmost_path},
    {!final_path}, and {!equal}, {!union}, {!pp} on top of them —
    materialize the sets on demand, at up to O(|state| log |state|) per
    state returned.  They serve analysis, rendering and tests, not the
    protocol hot path.

    A state given as an argument, an operation's context included, is
    found without a per-node index.  Only the root, the {!of_raw} nodes
    and the survivors {!compact} rebases are indexed by state; any other
    state is reached from such a base within it by a descent that takes,
    at each node, the transition of the earliest-processed operation the
    state holds: O(|state| log |state|) per lookup, times the branching
    (at most [n], Lemma 6.1). *)

open Rlist_model
open Rlist_ot

type state = Op_id.Set.t

type transition = {
  orig : Op_id.t;  (** Identity of the (original) operation. *)
  form : Op.t;  (** The possibly-transformed operation labelling this
                    transition. *)
  target : state;
}

type t

(** [create ~key_of ()] builds a state-space containing only the
    initial state [{}].  [key_of] maps an operation identifier to its
    current ordering key; it is consulted at every insertion, so it
    may answer [Pending] early on and [Serialized] later (the relative
    order never changes, see {!Order_key}).

    Algorithm 1's ladders transform with the Jupiter view-position
    functions, {!Rlist_ot.Transform.xform}.  (The adOPTed-style
    protocol, which needs CP2-satisfying TTF functions, builds its own
    [Jupiter_ttf.Lattice] instead.) *)
val create :
  ?fastpath:Rlist_ot.Fastpath.t ->
  key_of:(Op_id.t -> Order_key.t) ->
  unit ->
  t

(** The empty state every space starts from. *)
val initial_state : state

(** The current root of the space.  Always {!initial_state}: states
    are represented {e relative} to the compaction frontier, and
    {!compact} rebases every survivor back onto the empty set.  Kept
    in the signature (rather than hard-coding the constant at call
    sites) so compaction-frontier bookkeeping reads explicitly. *)
val root : t -> state

val final : t -> state

val mem_state : t -> state -> bool

(** Ordered outgoing transitions of a state (leftmost first).
    @raise Invalid_argument if the state is absent. *)
val transitions : t -> state -> transition list

(** Every state, in the order the space created its nodes. *)
val states : t -> state list

(** Every state with its ordered outgoing transitions, in the order of
    {!states}, from one walk of the space (calling {!transitions} on
    each of {!states} would look every state up again). *)
val listing : t -> (state * transition list) list

val num_states : t -> int

val num_transitions : t -> int

(** States plus transitions: the replica's metadata footprint. *)
val size : t -> int

(** The operations along the leftmost transitions from [state] to the
    final state — the sequence [L] of Algorithm 1 (empty iff [state]
    is final, Lemma 6.4).
    @raise Invalid_argument if the state is absent. *)
val leftmost_path : t -> state -> transition list

(** The final states the space's owner went through, oldest first: its
    path through the space (Example 6.3), which each {!add_op} or
    {!add_run} extends by one state per operation.  It starts at
    {!initial_state} for a space built by {!create} and at the final
    state of an {!of_raw} one, keeps only its rebased part above the
    stable frontier after {!compact}, and ends at {!final}.
    Materialized from the final node's chain on every call. *)
val final_path : t -> state list

(** [add_op t op_in_ctx] processes one operation per Algorithm 1 and
    returns its fully transformed form [o{L}], which the caller must
    execute on its document.  The final state gains the operation.  It
    returns the one form of [add_run t [op_in_ctx]]: the run walk with
    one lane.

    When the operation's context {e is} the current final state (a
    quiescent replica), the leftmost path is empty and the whole
    algorithm collapses to appending one transition — this
    context-match shortcut is taken unconditionally (it is a pure
    strength reduction) and counted in the space's {!Fastpath.t}.

    @raise Invalid_argument if no state matches the operation's
    context (a protocol violation), or if the operation was already
    processed. *)
val add_op : t -> Context.op_in_context -> Op.t

(** [add_run t ops] processes a batch of operations — in order — and
    returns their fully transformed forms, in order.  The batch is
    split into maximal {e contiguous} runs (each operation's context
    extends the previous one's by exactly that operation, the shape of
    operations generated back to back by one replica); each run is
    walked through Algorithm 1's ladder with a single leftmost-path
    lookup instead of one per operation.

    The resulting space — states, transitions and forms — is the one
    Algorithm 1 builds processing the batch one operation at a time:
    each run is walked level by level, every path step advancing all
    of its operations, and each ladder square depends only on its
    neighbours.  So is {!ot_count}, except when the space's
    {!Fastpath.t} is enabled: then runs of at least two consecutive
    ascending insertions (pure appends) resolve path steps by position
    arithmetic, skipping primitive transformations — forms and
    structure are still identical, but {!ot_count} grows more slowly.

    The growth observer is notified once per contiguous run, with the
    run's aggregate transformation count.

    @raise Invalid_argument under the same conditions as {!add_op}. *)
val add_run : t -> Context.op_in_context list -> Op.t list

(** Fast-path configuration and accounting, re-exported from
    {!Rlist_ot.Fastpath}: an engine-scoped record passed to {!create}
    and shared by every space of one engine run — [enabled] switches
    the append specialization of {!add_run} on; the counters attribute
    the speedup ([context_hits] and [append_hits] count operations
    that skipped ladder work, [generic_squares] counts ladder squares
    processed the ordinary way). *)
module Fastpath = Rlist_ot.Fastpath

(** The fast-path record this space was created with ({!create}'s
    [?fastpath], or a private fresh record when none was passed). *)
val fastpath : t -> Fastpath.t

(** Number of primitive transformation-function calls performed by
    this state-space so far. *)
val ot_count : t -> int

(** Install a growth observer (the observability layer's per-level
    hook): after every {!add_op}, and after every run of an
    {!add_run}, it receives the new final level (operations in the
    final state), the post-growth totals of states and transitions,
    and the number of primitive OT calls that operation or run
    caused.  At most one observer; uninstalled spaces pay
    one branch per operation. *)
val set_observer :
  t ->
  (level:int -> states:int -> transitions:int -> ots:int -> unit) ->
  unit

(** [compact t ~stable ~base_doc] prunes every state that is not a
    superset of [stable], then {e rebases} the survivors: [stable] is
    subtracted from every retained state and transition target, so the
    root returns to the empty set and set sizes track the live window
    rather than the full operation history — the garbage collection
    addressing the metadata-overhead question the paper's conclusion
    raises, and the property that keeps a long-running replica's
    per-op cost flat (an absolute representation would make every
    context hash and lookup O(total ops ever)).  [stable] must be
    safe: every operation context that can still arrive covers it (in
    the pruning protocol, the set of operations acknowledged by every
    client), and after the rebase such contexts must be translated to
    the new frontier before lookup — the pruning protocol's job.
    [base_doc] is the document at the current root; the document at
    the new root is returned.

    @raise Invalid_argument if [stable] is not a state of the space or
    is not reachable from the root along serialized operations. *)
val compact : t -> stable:state -> base_doc:Rlist_model.Document.t ->
  Rlist_model.Document.t

(** Structural equality: same states, and the same ordered transition
    lists (identity, form, and target) at every state.  This is the
    equality of Proposition 6.6. *)
val equal : t -> t -> bool

(** {2 Algebra}

    The paper's second future-work direction is to "algebraically
    manipulate and reason about n-ary ordered state-spaces".  These
    operations support the executable counterparts of Examples 8.2
    and 8.3: taking the union of replica state-spaces {e without} the
    guarantee of Proposition 6.6 produces spaces on which the
    Section 8 lemmas fail. *)

(** [of_raw ~key_of ~root ~final assoc] builds a space from an explicit
    state/transition listing (analysis and testing only — protocol
    spaces are built through {!add_op}).  Transitions are re-sorted by
    [key_of].
    @raise Invalid_argument if [root], [final], or a transition target
    is missing from [assoc], if a state repeats, if a transition's form
    has another identifier than its operation, or if two forms of one
    operation that are not [Nop] differ in anything but their
    position. *)
val of_raw :
  key_of:(Op_id.t -> Order_key.t) ->
  root:state ->
  final:state ->
  (state * transition list) list ->
  t

(** [union a b] merges two spaces state by state (ordering keys and
    root from [a]; the final state is the larger of the two finals).
    Transitions with the same origin from the same state must agree.
    The result need not satisfy the Section 8 lemmas — that is the
    point of Example 8.2. *)
val union : t -> t -> t

val pp_state : Format.formatter -> state -> unit

val pp : Format.formatter -> t -> unit
