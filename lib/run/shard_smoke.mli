(** The two-domain smoke harness: the dynamic witness behind the
    escape pass's [shard_ready] verdict (DESIGN.md §15).

    Two independent documents run the same soak workload
    ({!Longrun.run}) under two seeds — once sequentially on the
    calling domain, once with each document pinned to a fresh
    [Domain].  The static analysis says every engine-reachable mutable
    allocation is stack- or instance-confined, so the two runs must
    produce identical digests; a mismatch (or a crash) means some
    state is shared across engine instances after all. *)

type result = {
  s_protocol : string;
  s_profile : Rlist_workload.Workload.profile;
  s_updates : int;
  s_seed_a : int;  (** seed of document A ([seed]) *)
  s_seed_b : int;  (** seed of document B ([seed + 1]) *)
  s_single : string * string;
      (** digests of A and B run sequentially on one domain *)
  s_sharded : string * string;
      (** digests of A and B run on one domain each *)
  s_equal : bool;  (** componentwise equality of the two pairs *)
}

(** [run ~now ~protocol ~profile ~nclients ~updates ~chunk ~seed ()]
    soaks both documents through {!Longrun.run} (same parameters and
    protocol names) and compares digests.  [now] is only used for
    latency sampling and never affects the digests; pass a constant
    function for a fully deterministic run.
    @raise Invalid_argument as {!Longrun.run}. *)
val run :
  ?gc:Rlist_gc.policy ->
  ?faults:Rlist_net.Faults.spec ->
  now:(unit -> float) ->
  protocol:string ->
  profile:Rlist_workload.Workload.profile ->
  nclients:int ->
  updates:int ->
  chunk:int ->
  seed:int ->
  unit ->
  result

(** One JSON object, for the CI artifact and [--json]. *)
val result_to_json : result -> Rlist_obs.Json.t

val pp : Format.formatter -> result -> unit
