(** Workload profiles for collaborative-editing simulations.

    A profile describes {e how} users edit; instantiating it with an
    RNG yields a stateful intent generator that plugs into
    [Engine.run_random].  The profiles model the editing behaviours
    collaborative-text-editing papers exercise: interactive typing,
    mixed revising, everyone fighting over one hot region, append-only
    logging, and uniformly random churn. *)

open Rlist_model

type profile =
  | Uniform  (** Positions uniform over the document; ~30% deletes. *)
  | Typing  (** Each client keeps a cursor: mostly consecutive inserts,
                occasional backspace, rare cursor jumps. *)
  | Hotspot  (** All clients edit near the front of the document
                 (geometric positions) — maximal conflict rate. *)
  | Append_log  (** Inserts only, always at the end of the document. *)
  | Churn  (** Half deletions: the document stays short while the
               operation history grows. *)

val all_profiles : profile list

val profile_name : profile -> string

val profile_of_name : string -> profile option

(** [intent_generator profile ~nclients ~rng] creates the stateful
    per-client generator.  Every produced intent is valid for the
    document length passed in. *)
val intent_generator :
  profile ->
  nclients:int ->
  rng:Random.State.t ->
  client:int ->
  doc_length:int ->
  Intent.t

(** Scheduling parameters that suit the profile (concurrency level,
    read mix) with the given number of updates. *)
val params : profile -> updates:int -> Rlist_sim.Schedule.random_params

(** Timed-scheduler counterpart of {!params}, for long-horizon soaks
    ([Engine.run_timed]).  Each profile picks a channel {e utilization}
    (its concurrency level); the mean latency is derived from it so
    that every FIFO channel — a single-server queue under the timed
    model's arrival discipline — stays stable.  An unstable channel's
    backlog, and with it the transform lattice, would grow linearly
    with the horizon; a stable one keeps the in-flight window at a
    bounded steady state over millions of operations.  The read and
    delete fractions stay {!Rlist_sim.Schedule.default_timed_params}'s:
    a profile's operation mix comes from {!intent_generator}, passed
    to [Engine.run_timed] as [~intent]. *)
val timed_params :
  profile -> nclients:int -> updates:int -> Rlist_sim.Schedule.timed_params
