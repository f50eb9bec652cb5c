(** Fast-path configuration and accounting for Algorithm 1's batched
    ladder walks — one record per engine run, threaded from the
    engine's constructor down to every {!State_space} it creates.

    This used to be a module-level switch with module-level counters;
    the escape/confinement pass (DESIGN.md §15) demands instance
    scoping: under the multi-domain sharded server (ROADMAP item 2)
    each document's spaces live on one domain, and a process-global
    knob written by one domain while another walks a ladder is a data
    race.  An engine passes the {e same} record to its server and all
    its clients, so the counters still aggregate per run — per-domain
    confinement, per-run accounting. *)

type t = {
  mutable enabled : bool;
      (** Switches the append specialization of
          {!Jupiter_css.State_space.add_run} on, for runs of two or
          more operations.  The context-match shortcut is a pure
          strength reduction and is always on. *)
  mutable context_hits : int;
      (** Operations whose context matched the final state (ladder
          collapsed to one appended transition). *)
  mutable append_hits : int;
      (** Operations resolved by append-run position arithmetic
          instead of primitive transformations. *)
  mutable generic_squares : int;
      (** Ladder squares processed the ordinary way. *)
}

(** A fresh record, counters at zero.  [enabled] defaults to
    [false]. *)
val create : ?enabled:bool -> unit -> t

(** Reset the counters (not [enabled]). *)
val reset : t -> unit

(** The counters as metric fields, for publication:
    [("fastpath.context_hits", n); ...]. *)
val fields : t -> (string * int) list
