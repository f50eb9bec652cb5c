(** List operations, in original and transformed form.

    Following the paper (Section 3.1 and footnote 2), an operation
    carries both the element it concerns and a position: operational
    transformation acts on positions, while the strong/weak list
    specifications refer to the element itself.

    An operation keeps its identity ({!Op_id.t}) across
    transformations: [o{L}] — the result of transforming [o] against a
    sequence [L] — is a different {e form} of the same original
    operation [org(o)] (Definition 4.5).  A delete transformed against
    the deletion of the same element degenerates to [Nop], the idle
    operation (paper, footnote 10). *)

open Rlist_model

type action =
  | Ins of Element.t * int  (** Insert the element at the position. *)
  | Del of Element.t * int  (** Delete the element at the position. *)
  | Nop  (** Idle: the effect was cancelled by a transformation. *)

type t = {
  id : Op_id.t;  (** Identity of the original operation. *)
  action : action;
}

val make_ins : id:Op_id.t -> Element.t -> int -> t

val make_del : id:Op_id.t -> Element.t -> int -> t

val nop : id:Op_id.t -> t

val is_nop : t -> bool

val is_del : t -> bool

(** The element an operation inserts or deletes; [None] for [Nop]. *)
val element : t -> Element.t option

(** The position an operation acts on; [None] for [Nop]. *)
val position : t -> int option

(** The position that stands for [Nop] where positions are plain
    integers: [-1]. *)
val no_pos : int

(** [pos t] is [t]'s position, {!no_pos} for [Nop]. *)
val pos : t -> int

(** [at t p] is [t]'s form at position [p] ({!no_pos}: the no-op): the
    same identity, kind and element.  It is [t] itself, not a copy,
    when [p] is [t]'s own position, and whenever [t] is [Nop].
    @raise Invalid_argument if [p] is negative and not {!no_pos}. *)
val at : t -> int -> t

(** [apply op doc] executes [op] on [doc].

    @raise Invalid_argument if the position is out of bounds, or if a
    delete's position does not hold the operation's element — both
    indicate a protocol bug (an operation applied outside the state it
    is defined on). *)
val apply : t -> Document.t -> Document.t

(** Structural equality of forms: same identity {e and} same action. *)
val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val to_string : t -> string
