(** Accounting for Algorithm 1's ladder walks — one record per engine
    run, threaded from the engine's constructor down to every
    {!State_space} it creates.

    This used to be a module-level switch with module-level counters;
    the escape/confinement pass (DESIGN.md §15) demands instance
    scoping: under the multi-domain sharded server (ROADMAP item 2)
    each document's spaces live on one domain, and a process-global
    counter written by one domain while another walks a ladder is a data
    race.  An engine passes the {e same} record to its server and all
    its clients, so the counters still aggregate per run — per-domain
    confinement, per-run accounting. *)

type t = {
  mutable context_hits : int;
      (** Operations whose context matched the final state (ladder
          collapsed to one appended transition). *)
  mutable generic_squares : int;
      (** Ladder squares processed: two primitive transformations
          each. *)
}

(** A fresh record, counters at zero.  [enabled] is ignored: it
    switched an append specialization of the ladder walk that no longer
    exists, and stays only until its last caller drops it. *)
val create : ?enabled:bool -> unit -> t

(** The counters as metric fields, for publication:
    [("fastpath.context_hits", n); ...]. *)
val fields : t -> (string * int) list
