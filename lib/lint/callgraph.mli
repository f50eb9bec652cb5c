(** The cross-module call graph over a {!Cmt_loader} corpus.

    One node per module-level value binding (nested non-functor
    modules included; bindings that introduce no variables, like
    [let () = ...], collapse into a per-module ["(init)"] node).
    Edges are resolved through the typer's [Path.t]s: same-unit
    references by [Ident] stamp, cross-unit references through the
    wrapped-library alias scheme — never by string matching on
    source text.

    While building, every occurrence of a nondeterministic primitive
    (the determinism sinks: global [Random.*], [Hashtbl.iter/fold] and
    polymorphic hashing, wall clocks, float formatting, direct
    printing, and polymorphic [=]/[<>]/[compare] at types that are not
    visibly comparable) is recorded on the enclosing node together
    with the [[@lint.allow]] suppressions in scope at the site. *)

type sink = {
  s_rule : string;  (** the untyped rule this primitive maps to *)
  s_what : string;  (** e.g. ["Random.int"] *)
  s_file : string;
  s_line : int;
  s_col : int;
  s_suppressed : bool;
      (** an in-scope [[@lint.allow]] named this rule, ["det-reach"],
          or ["all"] *)
}

type def = {
  d_id : string;  (** ["Flat_unit.Sub.name"] — the node key *)
  d_unit : string;  (** flat compilation-unit name *)
  d_disp : string;  (** short display name, e.g. ["Transport.flush"] *)
  d_file : string;
  d_line : int;
  mutable d_calls : string list;  (** callee node ids, sorted *)
  mutable d_sinks : sink list;
}

type t

val build : Cmt_loader.t -> t

val allows_of_attrs : Parsetree.attributes -> string list
(** Rule names carried by [lint.allow] attributes (Typedtree nodes
    keep their Parsetree attributes, so this serves both passes). *)

val pat_vars :
  'k Typedtree.general_pattern ->
  (Ident.t * string * Location.t * Types.type_expr) list
(** The variables a pattern binds, with their types — including
    through aliases (a type-constrained [let x : t = ...] typechecks
    to an alias pattern, not a plain var). *)

val find : t -> string -> def option
val order : t -> string list
(** Node ids in deterministic (definition) order. *)

val dot_escape : string -> string
(** Escape a string for a double-quoted DOT id or label: quotes,
    backslashes, newlines and angle brackets (nested-module spellings
    like ["M.(init)"] or operator names can carry any of these;
    unescaped angle brackets make Graphviz read the label as
    HTML-like). *)

val dot : ?entries:string list -> ?reached:string list -> t -> string
(** Graphviz rendering; entry nodes are blue, sink-bearing nodes
    salmon, other reached nodes yellow. *)

val json :
  ?entries:string list -> ?reached:string list -> t -> Rlist_obs.Json.t
(** Machine-readable [{nodes; edges}] rendering. *)
