(** Recorded runs: one driver for every protocol over the unreliable
    network, and the one summary and text report of a run, shared by
    the CLI's simulate/fuzz/soak/replay and figure commands, the
    benchmarks, and the tests.

    A run here is fully determined by its {!spec}: the engine draws
    its randomness from [Random.State.make [| seed |]] and the
    transport from a state derived from the same seed, so re-executing
    a spec reproduces the original run bit for bit.  The flight
    recorder does not drive the replay — it is the {e witness}: replay
    re-executes from the spec and then checks the fresh decision
    stream and outcome digest against the recording, flagging the
    first divergence. *)

module Recorder = Rlist_obs.Recorder
module Workload = Rlist_workload.Workload

(** Everything that determines a run. *)
type spec = {
  protocol : string;  (** A {!Protocols} key. *)
  profile : Workload.profile;
  nclients : int;  (** Clients, or peers for the p2p protocols. *)
  updates : int;
  seed : int;
  faults : Rlist_net.Faults.spec;
  shim : bool;  (** Reliability shim on the wire. *)
  rto : int;  (** Retransmission timeout (ticks). *)
  batching : bool;
  fastpath : bool;  (** CSS append fast path. *)
  gc : Rlist_gc.policy option;
      (** Continuous metadata GC; [None] (the default) runs
          unbounded.  GC cycles are out of band, so the decision
          stream and digest of a run are identical with and without a
          policy — the header records it only so a replay reproduces
          the same memory profile and GC accounting. *)
}

(** A spec with the soak defaults: uniform profile, 4 clients, 100
    updates, seed 1, no faults, shim on, rto 12, no batching, no fast
    path, no GC. *)
val default : protocol:string -> spec

(** What a run produced: the paper's three verdicts on its trace, its
    final documents and its counters.  Every CLI report of a run and
    the replay digest are read off this one record. *)
type outcome = {
  o_protocol : string;
  o_events : int;  (** Schedule length. *)
  o_converged : bool;
  o_finals : (string * string) list;
      (** Final document per replica: ["server"] (when the protocol
          keeps a server replica), ["c1"].. for clients, ["p1"].. for
          peers. *)
  o_ots : int;
  o_metadata : int;
  o_convergence : Rlist_spec.Check.result;
  o_weak : Rlist_spec.Check.result;  (** The weak list specification. *)
  o_strong : Rlist_spec.Check.result;
      (** The strong list specification, which the OT protocols
          violate (Thm 8.1). *)
  o_stats : (string * int) list;
      (** Network counters plus the fast-path counters; empty for a
          schedule replay. *)
  o_net : Rlist_net.Stats.t;
      (** The live counter record, for {!Rlist_net.Stats.pp} /
          [to_json]; all zero for a schedule replay. *)
}

(** Run one spec.  [obs] attaches the observability bundle to the
    engine and the wire (and publishes the network and fast-path
    counters into its metrics registry after the run); [recorder]
    attaches the flight recorder to both.  Raises [Invalid_argument]
    on an unknown protocol name, and propagates the engine's
    [Invalid_argument] when a shim-less run violates a channel
    contract. *)
val run : ?obs:Rlist_obs.Obs.t -> ?recorder:Recorder.t -> spec -> outcome

(** Replay a concrete client/server schedule from [initial] on perfect
    channels; [obs], [batching] and [fastpath] as in
    {!Rlist_sim.Engine.Make.create} / [attach_obs].
    @raise Invalid_argument when the schedule does not fit the protocol
    (an empty channel, an out-of-bounds intent, a protocol crash). *)
val replay_schedule :
  ?obs:Rlist_obs.Obs.t ->
  ?batching:bool ->
  ?fastpath:Rlist_ot.Fastpath.t ->
  (module Rlist_sim.Protocol_intf.PROTOCOL) ->
  initial:Rlist_model.Document.t ->
  nclients:int ->
  Rlist_sim.Schedule.t ->
  outcome

(** The text report of a run, one field per line: the first replica's
    final document, the counters, and each verdict as
    {!Rlist_spec.Check.pp} renders it (a violation with its reason and
    witnesses). *)
val pp_outcome : Format.formatter -> outcome -> unit

(** Refuse a spec the run would refuse before it starts: an unknown
    protocol, a replica count the engine rejects, a bad [rto].
    @raise Invalid_argument with the refusing constructor's message. *)
val check : spec -> unit

(** The soak gate: converged, convergence spec, and weak spec.  Strong
    violations are expected for the OT protocols (Thm 8.1) and do not
    fail a run. *)
val passed : outcome -> bool

(** Header key/value pairs stored in a recording: the full spec plus
    the recorder capacity (default {!Recorder.default_capacity}). *)
val header_of : ?capacity:int -> spec -> (string * string) list

(** Inverse of {!header_of}; missing keys take the soak defaults. *)
val spec_of_header : (string * string) list -> (spec, string) result

(** The outcome rendered as key/value pairs: verdicts, counters, and
    one ["final.<replica>"] entry per replica. *)
val digest_of : outcome -> (string * string) list

(** Run a spec with a fresh recorder attached. *)
val record :
  ?obs:Rlist_obs.Obs.t -> ?capacity:int -> spec -> outcome * Recorder.t

(** Dump a recorded run to [path] (see {!Recorder.dump}): [result] is
    the run's outcome, stored as its digest, or the message the run
    aborted with, stored as the digest's ["aborted"] key.  [capacity]
    (default {!Recorder.default_capacity}) must be the recorder's, so a
    replay aligns its window with the recording.
    @raise Sys_error when [path] cannot be written. *)
val save :
  spec:spec ->
  ?capacity:int ->
  (outcome, string) result ->
  Recorder.t ->
  string ->
  unit

(** Replay verdict: the fresh outcome plus every digest mismatch
    [(key, expected, got)] and the first decision divergence
    [(index, expected, got)] if any. *)
type verdict = {
  v_spec : spec;
  v_outcome : outcome;
  v_total_expected : int;
  v_total_got : int;
  v_mismatches : (string * string * string) list;
  v_divergence : (int * string * string) option;
  v_ok : bool;
}

(** Re-execute [spec] (read off the recording's header by
    {!spec_of_header}) and check the fresh run against the recording's
    stored digest and decision window. *)
val verify : ?obs:Rlist_obs.Obs.t -> spec -> Recorder.recording -> verdict

(** Reconstruct the engine schedule from a recording's decision stream
    for the ddmin shrinker.  [Error] when the ring wrapped (early
    decisions lost) or the recording is peer-to-peer. *)
val schedule_of_recording :
  Recorder.recording -> (Rlist_sim.Schedule.t, string) result
