(** The one reader of the repository's line-oriented text formats:
    schedule files ({!Schedule_text}) and CSS snapshots
    ([Jupiter_css.Snapshot]).

    A text is split into lines; each line is trimmed, blank lines and
    lines starting with [#] are skipped, and every other line is split
    on single spaces and handed to the caller's directive handler.  A
    line the handler rejects — through {!fail}, or because a
    constructor it calls raises [Invalid_argument] (say [Char.chr] or
    [Op_id.make]) — ends the parse with [Error "line N: …"].  No other
    outcome of a bad input is possible: the reader never raises. *)

(** Reject the current line from a directive handler, or the whole
    text from [finish]. *)
val fail : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** An integer token; {!fail}s on anything else. *)
val int : string -> int

(** [parse ?header text directive finish] feeds every directive line
    of [text] to [directive], then returns [finish ()].  With
    [~header:(name, version)], a line whose first token is [name] is
    the header: it must read exactly ["name version"], and a text
    without one is rejected.  A failure inside [finish] is an [Error]
    without a line number. *)
val parse :
  ?header:string * string -> string -> (string list -> unit) ->
  (unit -> 'a) -> ('a, string) result

(** Write [text] to [path].  @raise Sys_error as [open_out] does. *)
val save : path:string -> string -> unit

(** Read [path] and parse its contents; an unreadable file is an
    [Error]. *)
val load : path:string -> (string -> ('a, string) result) ->
  ('a, string) result
