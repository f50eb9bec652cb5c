(** The protocol registry: the one table from a protocol's CLI key to
    its implementation.  Every driver — the CLI's subcommands, the
    recorded runs, the long-horizon soak, the tests — looks a name up
    here, so adding a protocol is one line in this table.

    A protocol runs on one of two channel shapes: a star (one server,
    [n] clients, {!Rlist_sim.Engine}) or a full mesh ([n] peers, a
    channel per ordered pair, {!Rlist_sim.P2p_engine}).  {!engine}
    hides that difference from whole-run drivers, so a run body is
    written once for both. *)

open Rlist_model

type t =
  | Star of (module Rlist_sim.Protocol_intf.PROTOCOL)
  | Mesh of (module Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL)

(** Every protocol by CLI key, in the order the CLI lists them. *)
val all : (string * t) list

(** The keys of {!all}, in order. *)
val keys : string list

val find : string -> t option

(** One engine instance's run-level calls, the same for both shapes.
    Star replicas are named ["server"] (only when the protocol keeps a
    server replica) and ["c1"].. ["cN"]; mesh replicas ["p1"].. ["pN"]. *)
module type ENGINE = sig
  (** The protocol's own name ([P.name]), not its CLI key. *)
  val name : string

  type t

  (** As {!Rlist_sim.Engine.Make.create}; [nclients] counts clients on
      a star and peers on a mesh.
      @raise Invalid_argument when the engine refuses the count. *)
  val create :
    ?net:Rlist_net.Transport.config ->
    ?batching:bool ->
    ?gc:Rlist_gc.policy ->
    ?fastpath:Rlist_ot.Fastpath.t ->
    nclients:int ->
    unit ->
    t

  val attach_obs : t -> Rlist_obs.Obs.t -> unit

  val attach_recorder : t -> Rlist_obs.Recorder.t -> unit

  (** As {!Rlist_sim.Engine.Make.run_random}; returns the length of
      the schedule performed. *)
  val run_random :
    ?intent:(client:int -> doc_length:int -> Intent.t) ->
    t ->
    rng:Random.State.t ->
    params:Rlist_sim.Schedule.random_params ->
    int

  val converged : t -> bool

  (** Every replica's document by replica name, server first. *)
  val documents : t -> (string * Document.t) list

  val trace : t -> Rlist_spec.Trace.t

  val total_ot_count : t -> int

  val total_metadata_size : t -> int
end

val engine : t -> (module ENGINE)
