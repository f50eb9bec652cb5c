(** A line-oriented text format for schedules, so that an execution
    found by the random driver (e.g. a specification violation of an
    experimental protocol) can be saved, shared, and replayed
    verbatim against any protocol.

    Format (one directive per line, [#] starts a comment):

    {v
    clients 3
    initial abc
    gen 1 ins x 2
    gen 2 del 1
    gen 3 read
    c2s 3
    s2c 1
    v}

    [initial] is optional (defaults to the empty document).  Inserted
    characters and the initial document must be printable and
    non-blank.  This module owns the intent text after [gen i]; the
    engines' flight recorder stores intents in the same text.  Files
    are read through {!Line_format}. *)

open Rlist_model

type file = {
  nclients : int;
  initial : Document.t;
  events : Schedule.t;
}

(** The intent text: [ins c p], [del p] or [read]. *)
val intent_to_string : Intent.t -> string

(** Parse an intent from its space-separated tokens; [None] if they do
    not spell one. *)
val intent_of_tokens : string list -> Intent.t option

val to_string : ?initial:Document.t -> nclients:int -> Schedule.t -> string

(** Parse; errors mention the offending line.  Never raises. *)
val of_string : string -> (file, string) result

val save : path:string -> ?initial:Document.t -> nclients:int -> Schedule.t
  -> unit

val load : path:string -> (file, string) result
