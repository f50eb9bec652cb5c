(** The list order (paper, Definition 8.1) as a digraph over elements.

    For elements [a, b] of an abstract execution, [a -lo-> b] iff some
    event returned a list in which [a] appears before [b].  The strong
    list specification needs this relation to extend to a strict total
    order over {e all} elements — i.e. the digraph must be acyclic —
    while the weak specification only needs it to restrict to a strict
    total order on each returned list, which is exactly pairwise state
    compatibility (Definition 8.2, Lemma 8.3). *)

open Rlist_model

type t

(** Build the list-order digraph from the lists returned by a set of
    events. *)
val of_documents : Document.t list -> t

val num_nodes : t -> int

(** [mem_edge t a b] reports whether [a] is ordered before [b]. *)
val mem_edge : t -> Element.t -> Element.t -> bool

(** A cycle witness, as a sequence of elements each ordered before the
    next and the last before the first; [None] when acyclic. *)
val find_cycle : t -> Element.t list option

(** A strict total order (as a list, smallest first) extending the
    relation; [None] when the relation is cyclic. *)
val linear_extension : t -> Element.t list option

(** First pair of pairwise-incompatible documents (Definition 8.2)
    among the given ones, with two common elements witnessing the
    disagreement; [None] when all pairs are compatible. *)
val first_incompatible :
  Document.t list -> (Document.t * Document.t * Element.t * Element.t) option
