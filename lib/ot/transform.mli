(** Operational transformation functions for the replicated list.

    These are the classic position-adjusting transformation functions
    for character-wise insertions and deletions (Ellis and Gibbs 1989;
    Imine et al. 2006), the ones the Jupiter protocols are built on
    (paper, Section 4.2).

    The central requirement is CP1 (Convergence Property 1,
    Definition 4.4): if [OT(o1, o2) = (o1', o2')] for [o1], [o2]
    defined on the same state [sigma], then
    [sigma; o1; o2' = sigma; o2; o1'].  {!xform} satisfies CP1 (the
    insert/insert tie is broken by {!Rlist_model.Element.priority});
    this is checked exhaustively by the property-based test suite.

    {!xform_no_priority} is a deliberately broken variant — it keeps
    the position of both inserts on a tie — used to reproduce the
    paper's running "counterexample" produced by an incorrect protocol
    (Figure 8). *)

open Rlist_model

(** [xform o1 o2] transforms [o1] to take into account the effect of
    [o2]: both must be defined on the same state, and the result
    [o1{o2}] is defined on that state extended with [o2]
    (Definition 4.6).  Written [o1' = OT(o1, o2)] in the paper. *)
val xform : Op.t -> Op.t -> Op.t

(** [xform_pos o1 p1 o2 p2] is {!xform} on positions: the position of
    [xform (Op.at o1 p1) (Op.at o2 p2)], {!Op.no_pos} for [Nop].  The
    kinds and elements are [o1]'s and [o2]'s, their positions [p1] and
    [p2].  It allocates nothing; {!xform} is this case analysis
    followed by {!Op.at}, so it returns [o1] itself whenever the
    position does not move. *)
val xform_pos : Op.t -> int -> Op.t -> int -> int

(** [xform_pair o1 o2 = (xform o1 o2, xform o2 o1)], the paper's
    [(o1', o2') = OT(o1, o2)]. *)
val xform_pair : Op.t -> Op.t -> Op.t * Op.t

(** [xform_seq o l] transforms [o] against the operation sequence [l]
    left to right, returning [o{l}] together with [l{o}] (every
    operation of [l] transformed against the appropriate form of [o]),
    as in the protocols' [OT(o, L) = (o{L}, L{o})]. *)
val xform_seq : Op.t -> Op.t list -> Op.t * Op.t list

(** [check_cp1 doc o1 o2] executes both orders of the transformed pair
    on [doc] and reports whether the results agree — a direct check of
    Definition 4.4 on one instance.  [o1] and [o2] must be defined on
    [doc]. *)
val check_cp1 : Document.t -> Op.t -> Op.t -> bool

(** [check_cp2 o1 o2 o3] checks Convergence Property 2 on one
    instance of three operations defined on the same state:
    transforming [o3] against [o1; o2{o1}] and against [o2; o1{o2}]
    must give the same operation.  The paper is "not concerned with
    CP2" (footnote 4) for a deep reason: the classic list
    transformation functions — including {!xform} — do {e not} satisfy
    it (the property tests exhibit witnesses), which is exactly why
    every Jupiter variant pins down a single total transformation
    order (server serialization, a sequencer, or Lamport timestamps)
    instead of transforming in arbitrary orders. *)
val check_cp2 : Op.t -> Op.t -> Op.t -> bool

(** The broken transformation used by the incorrect protocol of the
    paper's Figure 8: identical to {!xform} except that an
    insert/insert tie leaves {e both} positions unchanged, so
    concurrent inserts at the same position commute to different
    lists. *)
val xform_no_priority : Op.t -> Op.t -> Op.t
