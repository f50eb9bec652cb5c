(** The repository's one JSON writer and reader.

    Every JSON output — trace events, the metrics registry, CLI
    [--json] reports, lint artifacts and the [BENCH_*.json] rows — is
    built as a {!t} and printed by {!to_string}, so syntax, escaping
    and number formatting are decided here and nowhere else.

    One layout: the value prints on one line, members separated by
    [", "] and keys by [": "]:
    {[ {"seq": 0, "type": "send", "op": null, "ok": true} ]}

    Strings escape quotes, backslashes, newlines, tabs and carriage
    returns with their short escapes and every other control character
    as [\u00XX]; every other byte, UTF-8 included, is copied as is. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
      (** [Fixed (d, x)] prints [x] with [d] decimals ([%.{d}f]); a
          non-finite [x] prints as [null]. *)
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** Members in print order. *)

val to_string : t -> string

(** [opt f v] is [Null] for [None], [f x] for [Some x]. *)
val opt : ('a -> t) -> 'a option -> t

(** Parse one JSON value (surrounding whitespace allowed).  Integers
    without fraction or exponent become [Int]; other numbers become
    [Fixed (d, x)] with [d] their fraction digits, so a printed value
    reads back equal.  Escapes decode to UTF-8.  Never raises: any
    malformed input is [Error] with the offending byte offset. *)
val of_string : string -> (t, string) result

(** [member key v] is the value of [key] in object [v]; [None] when
    [v] is not an object or has no such member. *)
val member : string -> t -> t option
