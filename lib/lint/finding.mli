(** A single analyzer finding, anchored to a precise source location. *)

type t = {
  file : string;  (** normalized, '/'-separated, repo-relative *)
  line : int;  (** 1-based *)
  col : int;  (** 1-based *)
  rule : string;  (** rule name, see {!Rules.all} *)
  msg : string;
  chain : string list;
      (** witness call chain for interprocedural findings (entry point
          first, sink last); empty for single-site findings *)
}

val v :
  ?chain:string list ->
  file:string ->
  line:int ->
  col:int ->
  rule:string ->
  string ->
  t
(** Build a finding; [chain] defaults to empty. *)

val compare : t -> t -> int
(** Order by file, then line, column, rule — the report order. *)

val pp : Format.formatter -> t -> unit
(** [file:line:col: [rule] msg], the greppable text form; findings
    with a witness chain print it on a continuation line. *)

val to_json : t -> Rlist_obs.Json.t
(** One finding as a JSON object (file/line/col/rule/family/message,
    plus [chain] when the finding carries a witness call chain). *)

