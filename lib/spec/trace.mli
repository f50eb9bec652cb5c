(** Traces: concrete histories of do events, ready for specification
    checking.

    A trace is the checker-facing image of an abstract execution
    [A = (H, vis)] (Definition 2.9): the history [H] of do events in
    order, with the visibility relation recorded extensionally in each
    event ([e1 -vis-> e2] iff the update of [e1] is in [e2.visible]).

    A trace may start from a non-empty initial document; its elements
    behave as insertions visible to every event (they let us reproduce
    the paper's worked examples, which start from lists such as
    "efecte" or "abc"). *)

open Rlist_model

type t = {
  initial : Document.t;
  events : Event.t list;  (** In history ([H]) order. *)
}

val make : initial:Document.t -> events:Event.t list -> t

val events : t -> Event.t list

val updates : t -> Event.t list

val reads : t -> Event.t list

(** All elements ever inserted, including the initial ones —
    [elems(A)] in the paper. *)
val elems : t -> Element.t list

(** [inserted_element t id] is the element inserted by update [id]:
    either an insertion event's element or an initial element. *)
val inserted_element : t -> Op_id.t -> Element.t option

(** Structural well-formedness: event identifiers are positions in the
    history; per-replica visible sets grow monotonically (thread of
    execution, Definition 2.7); updates are visible to themselves;
    every visible identifier resolves to an update (or initial
    element); update identifiers are unique.  Returns a description of
    the first problem found. *)
val validate : t -> (unit, string) result

val pp : Format.formatter -> t -> unit
