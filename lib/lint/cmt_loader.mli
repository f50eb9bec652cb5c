(** The typed front end: a corpus of [.cmt] artifacts (the Typedtree
    the compiler saved next to each object file) indexed for the
    interprocedural passes.

    Loading is forgiving by design: unreadable or non-implementation
    [.cmt]s are skipped (and recorded in {!errors}) rather than
    aborting the run — the analyzer must stay usable on a partially
    built tree. *)

type unit_info = {
  modname : string;
      (** flat compilation-unit name, e.g. ["Rlist_net__Transport"]
          for dune's wrapped [lib/net/transport.ml] *)
  source : string;  (** normalized source path recorded in the .cmt *)
  str : Typedtree.structure;
}

type t

val load_dir : ?roots:string list -> string -> t
(** Scan [dir] recursively (dot-directories included — that is where
    dune keeps [.objs]) for [.cmt] files and load every implementation
    unit.  [roots], when non-empty, keeps only units whose recorded
    source path lies under one of the given '/'-separated prefixes
    (e.g. [["lib"]]). *)

val units : t -> unit_info list
(** Loaded units, sorted by unit name. *)

val errors : t -> string list
(** Files that could not be read as [.cmt] implementations. *)

val resolve_qualified : t -> string list -> (string * string list) option
(** Map the dot-components of a path as spelled at a use site
    (["Rlist_net"; "Faults"; "validate"]) onto [(flat_unit,
    remaining_components)] — here [("Rlist_net__Faults",
    ["validate"])].  [None] when the head does not resolve to a
    corpus unit (an external reference). *)

val visibly_comparable : ?home:string -> t -> Types.type_expr -> bool
(** Would polymorphic [=]/[compare] at this type be structurally
    deterministic and total "by inspection"?  Builtin scalars and
    containers of comparable things are; records/variants whose
    components all are (resolved through the corpus across modules)
    are too.  Abstract, functional, polymorphic or unresolvable types
    are not — conservative in the direction that produces a
    finding. *)

val type_to_string : Types.type_expr -> string
(** Render a type for a finding message (best effort). *)

val strip_stdlib : string -> string
(** Drop a leading ["Stdlib."] from a printed path. *)

val short_base : string -> string
(** ["Rlist_net__Transport"] -> ["Transport"]: the display base of a
    flat unit name, shared by every pass that prints module paths. *)

val inert_type : ?home:string -> t -> Types.type_expr -> bool
(** Can a value of this type provably {e not} carry mutable state
    (directly or nested)?  Scalars and immutable compositions of inert
    things are inert; arrows, abstract, polymorphic and unresolvable
    types are not — conservative in the direction that keeps a
    value-flow pass tracking.  Used by the escape pass to prune flows
    through scalar-typed intermediaries. *)

val mutable_kind : t -> Types.type_expr -> string option
(** What kind of mutability, if any, does a value at this type
    expose?  ["ref"], ["array"], ["Hashtbl.t"], ["record with mutable
    fields"], … — containers are looked through one level, record
    types resolve through the corpus.  [None] for immutable types. *)

val normalize : string -> string
(** Strip a leading ["./"]. *)
