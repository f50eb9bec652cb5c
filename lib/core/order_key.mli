(** Ordering keys for transitions of the n-ary ordered state-space.

    The child transitions of a state are totally ordered "according to
    the total order among operations established by the server"
    (paper, Section 6.1).  A replica knows the serial number of every
    operation the server has broadcast; its own not-yet-acknowledged
    operations are ordered after all serialized ones (the server will
    necessarily assign them later serials) and among themselves by
    generation order.  FIFO channels make this local view consistent
    with the eventual global total order. *)

type t =
  | Serialized of int  (** Server serial number. *)
  | Pending of int  (** Own unacknowledged operation, by generation
                        sequence number. *)

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

(** [of_serials ~who ~own_client serials] keys an operation by its
    serial in [serials], or as {!Pending} if it is [own_client]'s own
    (none at the server, [own_client = 0]).
    @raise Invalid_argument naming [who] for any other operation. *)
val of_serials :
  who:string -> own_client:int -> int Rlist_model.Op_id.Table.t ->
  Rlist_model.Op_id.t -> t
