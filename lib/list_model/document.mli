(** Documents: the state of a replicated list replica.

    A document is a finite sequence of unique {!Element.t} values.  It
    is the value returned by the [Read] operation and by every [do]
    event (paper, Section 3.1: all three user operations return the
    updated list).

    The representation is a balanced rope (size-annotated balanced
    tree) plus a per-version identifier index built on demand:
    {!insert}, {!delete} and {!nth} are O(log n) and never touch the
    index; {!to_string}, {!elements}, {!iter} and {!fold} are single
    O(n) traversals.  The first {!mem}, {!index_of}, {!compatible} or
    {!has_duplicates} query on a version builds its index in
    O(n log n); later queries on that version cost O(log n) for {!mem}
    and O(1) for {!has_duplicates}.  {!Document_reference} keeps the
    original linked-list implementation as a differential-testing
    oracle. *)

type t

val empty : t

(** [of_string s] builds an initial document whose elements carry the
    characters of [s], identified as pre-existing elements
    ({!Op_id.initial}). *)
val of_string : string -> t

val of_elements : Element.t list -> t

val elements : t -> Element.t list

(** [iter f d] applies [f] to every element in document order, without
    materialising an intermediate list. *)
val iter : (Element.t -> unit) -> t -> unit

(** [fold f acc d] folds [f] left-to-right over the elements. *)
val fold : ('a -> Element.t -> 'a) -> 'a -> t -> 'a

(** [to_seq d] is the elements as a lazy sequence, in document order. *)
val to_seq : t -> Element.t Seq.t

(** The user-visible content, one character per element. *)
val to_string : t -> string

val length : t -> int

val is_empty : t -> bool

(** [nth d p] is the element at position [p] (0-based).
    @raise Invalid_argument if [p] is out of bounds. *)
val nth : t -> int -> Element.t

(** [insert d ~pos e] inserts [e] at position [pos], shifting later
    elements right.  Positions run from [0] to [length d] inclusive.
    @raise Invalid_argument if [pos] is out of bounds. *)
val insert : t -> pos:int -> Element.t -> t

(** [delete d ~pos] removes the element at position [pos] and returns
    it together with the shorter document.
    @raise Invalid_argument if [pos] is out of bounds. *)
val delete : t -> pos:int -> Element.t * t

(** [index_of d e] is the position of element [e] in [d], if present. *)
val index_of : t -> Element.t -> int option

val mem : t -> Element.t -> bool

val equal : t -> t -> bool

val compare : t -> t -> int

(** [compatible d1 d2] decides state compatibility (paper,
    Definition 8.2): for any two elements common to [d1] and [d2],
    their relative order is the same in both.  Pairwise compatibility
    of all returned lists is equivalent to irreflexivity of the list
    order (Lemma 8.3) and is the heart of the weak-list-specification
    proof. *)
val compatible : t -> t -> bool

(** [order_pairs d] is the list of all ordered pairs [(a, b)] with [a]
    before [b] in [d] — the contribution of [d] to the list order
    (Definition 8.1). *)
val order_pairs : t -> (Element.t * Element.t) list

(** [has_duplicates d] reports whether some element identity occurs
    twice.  Well-formed protocol states never contain duplicates
    (Lemma 6.3). *)
val has_duplicates : t -> bool

val pp : Format.formatter -> t -> unit

(** Like {!pp} but prints element identities too. *)
val pp_detailed : Format.formatter -> t -> unit
