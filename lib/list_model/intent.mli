(** User intents: the operations a user asks a replica to perform.

    An intent is the user-level view of the three replicated-list
    operations (paper, Section 3.1).  The replica turns an [Insert]
    intent into a concrete [Ins(a, p)] operation by minting a fresh
    element, and a [Delete] intent into [Del(a, p)] by looking up the
    element currently at the given position. *)

type t =
  | Insert of char * int  (** [Insert (c, p)]: insert character [c] at
                              position [p]. *)
  | Delete of int  (** [Delete p]: delete the element currently at
                       position [p]. *)
  | Read  (** Return the current list contents. *)

(** [valid_for ~doc_length i] checks that the positions in [i] are in
    bounds for a document of the given length. *)
val valid_for : doc_length:int -> t -> bool

val pp : Format.formatter -> t -> unit
