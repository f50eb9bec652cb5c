(** The analysis driver: parse OCaml sources into the Parsetree
    (compiler-libs front end) and run the {!Rules} registry over them
    with an attribute-aware AST walk.

    Suppressions are scoped attributes read from the AST, not magic
    comments:
    {ul
    {- [[@lint.allow "rule"]] on an expression and [[@@lint.allow
       "rule"]] on a [let] binding or module binding silence the named
       rule(s) for that subtree only.}
    {- [[@@@lint.allow "rule"]] (floating, anywhere in the file)
       silences the rule(s) for the whole file — including the
       file-level [missing-mli] check.}}
    The payload is a string of one or more rule names separated by
    spaces or commas; ["all"] silences every rule. *)

val check_source :
  ?mli_exists:bool ->
  ?rules:string list ->
  ?tables:string list list ->
  path:string ->
  string ->
  Finding.t list
(** Analyze one compilation unit given as a string.  [path] decides
    which rules apply (see {!Rules.applies}) and whether the unit is an
    implementation or an interface (by extension; interfaces are only
    parsed, the expression rules have nothing to say about them).
    [mli_exists] (default [true]) feeds the [missing-mli] check.
    [rules], when given, restricts the run to the named rules.
    [tables] are the corpus's [Hashtbl.Make] modules as qualified
    paths (e.g. [["Op_id"; "Table"]]): their [iter]/[fold] are
    [hashtbl-iter] sinks like [Hashtbl.iter]/[Hashtbl.fold], and so
    are those of the unit's own [Hashtbl.Make] modules.
    Findings come back sorted. *)

val walk : string list -> string list
(** All [.ml]/[.mli] files under the given roots (files are accepted
    as roots too), sorted, [_build] and dot-directories excluded. *)

val run : ?rules:string list -> string list -> Finding.t list
(** [run roots] — {!walk}, collect the [Hashtbl.Make] modules of every
    [.ml] file, then read and {!check_source} every file against them
    ([mli_exists] taken from the file system), sorted. *)

(** {1 Baselines} *)

type baseline
(** A set of accepted findings: the CLI's [--baseline] file, one
    [path:rule] pair per line ([#] comments and blank lines ignored).
    Matching is by file and rule, not line number, so baselined
    findings survive unrelated edits. *)

val load_baseline : string -> (baseline, string) result
(** Read a baseline file through {!Rlist_obs.Line_format}: an
    unreadable file, or a line that is not one [path:rule] token, is
    an [Error] naming the line. *)

val apply_baseline :
  ran:(path:string -> rule:string -> bool) -> baseline -> Finding.t list ->
  Finding.t list
(** Drop the findings the baseline accepts.  A baseline entry is a
    suppression, so an entry whose rule ran over its file
    ([ran ~path ~rule]) but which matches none of the findings is
    stale: it comes back as an [unused-allow] finding at its line of
    the baseline file. *)

val dedupe : Finding.t list -> Finding.t list
(** Drop Parsetree findings that a typed finding at the same
    [(file, line)] subsumes (see {!Rules.subsumed_by}): the typed rule
    is the more precise report of the same defect, and shares its
    exit-code family with the rules it subsumes. *)

(** {1 Reporting} *)

val exit_code : Finding.t list -> int
(** Bitwise OR of {!Rules.family_bit} over the findings' families:
    0 means clean, and e.g. 6 means determinism + exception-safety
    findings (and nothing else). *)

val report_json : Finding.t list -> Rlist_obs.Json.t
(** The full machine-readable report: version, totals, per-rule
    counts, exit code, and the findings array. *)
