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
    non-blank.  The intent text after [gen i] is
    {!Rlist_model.Intent.to_string}'s, read back with
    {!Rlist_model.Intent.of_string}, the codec the flight recorder's
    dumps use too; an event line is printed as the recorder prints the
    same decision ({!Rlist_obs.Recorder.decision_to_string}).  Files
    are read through {!Rlist_obs.Line_format}. *)

open Rlist_model

type file = {
  nclients : int;
  initial : Document.t;
  events : Schedule.t;
}

(** @raise Invalid_argument if an inserted character or the initial
    document is not printable and non-blank: such a text would not
    read back. *)
val to_string : ?initial:Document.t -> nclients:int -> Schedule.t -> string

(** Parse; errors mention the offending line.  Never raises. *)
val of_string : string -> (file, string) result

(** {!to_string} written to [path].
    @raise Invalid_argument as {!to_string} does. *)
val save : path:string -> ?initial:Document.t -> nclients:int -> Schedule.t
  -> unit

val load : path:string -> (file, string) result
