(* The three workloads.  Each runs in episodes: one episode is a fresh
   engine driven through a fixed amount of work chosen by a seed.  The
   workloads are functors over the protocol so the same code runs the
   wrapped protocol (the benchmark) and the bare one (the transparency
   test). *)

open Rlist_model
module Schedule = Rlist_sim.Schedule
module Fastpath = Rlist_ot.Fastpath
module Transport = Rlist_net.Transport
module Workload = Rlist_workload.Workload

let nclients = 4

(* Every client types this many characters per typing-burst round. *)
let burst = 64

let hotspot_faults = "drop=0.3,dup=0.1,reorder=0.2"

let soak_gc_policy = "ops=256"

(* What an episode leaves behind: the final documents (server first
   when it is a replica) and the counters it moved.  [counters] are
   totals over the episode except the [peak.*] and [last.*] entries,
   which are levels. *)
type outcome = {
  docs : string list;
  counters : (string * int) list;
}

let is_level name =
  String.starts_with ~prefix:"peak." name
  || String.starts_with ~prefix:"last." name

(* Combine the counters of two episodes: totals add, levels take the
   larger. *)
let merge a b =
  List.map2
    (fun (k, x) (k', y) ->
      if not (String.equal k k') then invalid_arg "Workloads.merge";
      (k, if is_level k then max x y else x + y))
    a b

let converged = function
  | [] -> true
  | d :: rest -> List.for_all (String.equal d) rest

let parse what of_string s =
  match of_string s with
  | Ok v -> v
  | Error msg -> invalid_arg (what ^ ": " ^ msg)

module Make (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  module E = Rlist_sim.Engine.Make (P)

  let docs t =
    (if P.server_is_replica then [ Document.to_string (E.server_document t) ]
     else [])
    @ List.init nclients (fun i ->
          Document.to_string (E.client_document t (i + 1)))

  (* A fresh engine's counters start at zero, so its cumulative counters
     at the end are the episode's totals.  [peaks] are the metadata and
     dedup-key levels sampled while the episode ran. *)
  let outcome t ~fp ~net ~recorder ~peaks:(meta, dedup) =
    let gc =
      match E.gc_stats t with
      | None -> []
      | Some s -> Rlist_gc.stats_fields s
    in
    let counters =
      [
        "ot.transforms", E.total_ot_count t;
        ( "obs.decisions",
          match recorder with Some r -> Rlist_obs.Recorder.total r | None -> 0 );
        "peak.metadata", max meta (E.total_metadata_size t);
        "peak.dedup_keys", max dedup (E.dedup_keys t);
        "last.doc_length", Document.length (E.server_document t);
      ]
      @ List.map (fun (k, v) -> "ot." ^ k, v) (Fastpath.fields fp)
      @ List.map
          (fun (k, v) -> "net." ^ k, v)
          (Rlist_net.Stats.fields
             (match net with
             | Some cfg -> Transport.stats cfg
             | None -> Rlist_net.Stats.create ()))
      @ List.map
          (fun (k, v) ->
            match k with
            | "last_snapshot_bytes" | "meta_peak" -> "last.gc." ^ k, v
            | _ -> "gc." ^ k, v)
          gc
    in
    { docs = docs t; counters }

  let create ?net ?gc ~batching ~fp () =
    let t =
      Probe.call Probe.Create (fun () ->
          E.create ?net ?gc ~batching ~history:false ~fastpath:fp ~nclients ())
    in
    Probe.begin_engine ~nclients ~server_is_replica:P.server_is_replica
      ~clock:(fun () -> E.clock t);
    t

  let sample t (meta, dedup) =
    (max meta (E.total_metadata_size t), max dedup (E.dedup_keys t))

  (* typing-burst: each round, every client types its slice of [text]
     at the end of its own view, then the round quiesces.  Batching and
     the append fast path are on; the wire is perfect. *)
  let typing_episode text =
    let rounds = String.length text / (nclients * burst) in
    let fp = Fastpath.create ~enabled:true () in
    let t = create ~batching:true ~fp () in
    let peaks = ref (0, 0) in
    for round = 0 to rounds - 1 do
      for i = 1 to nclients do
        let len = Document.length (E.client_document t i) in
        let base = ((round * nclients) + i - 1) * burst in
        for j = 0 to burst - 1 do
          let ev =
            Schedule.Generate (i, Intent.Insert (text.[base + j], len + j))
          in
          Probe.call Probe.Apply_event (fun () -> E.apply_event t ev)
        done
      done;
      ignore (Probe.call Probe.Quiesce (fun () -> E.quiesce t));
      peaks := sample t !peaks
    done;
    outcome t ~fp ~net:None ~recorder:None ~peaks:!peaks

  (* hotspot-lossy: an unbatched random walk under the hotspot profile
     over a lossy, duplicating, reordering wire with the reliability
     shim on, and the flight recorder armed as [jupiter_sim soak] arms
     it. *)
  let hotspot_episode ~updates ~seed =
    let faults = parse "faults" Rlist_net.Faults.of_string hotspot_faults in
    let net = Transport.config ~shim:true ~faults ~seed () in
    let fp = Fastpath.create () in
    let recorder = Rlist_obs.Recorder.create () in
    let t = create ~net ~batching:false ~fp () in
    E.attach_recorder t recorder;
    let rng = Random.State.make [| seed |] in
    let intent = Workload.intent_generator Workload.Hotspot ~nclients ~rng in
    let params = Workload.params Workload.Hotspot ~updates in
    ignore
      (Probe.call Probe.Run_random (fun () ->
           E.run_random ~intent t ~rng ~params));
    outcome t ~fp ~net:(Some net) ~recorder:(Some recorder) ~peaks:(0, 0)

  (* soak-gc: the pruned protocol under continuous GC and the
     reliability shim on a fault-free wire, driven in [chunks] chunks
     through the timed (open-loop) scheduler, as [Longrun] soaks. *)
  let soak_episode ~chunks ~chunk ~seed =
    (* Twenty op-intervals of retransmission headroom.  Longrun's ten
       still let about one fault-free episode in a hundred retransmit a
       healthy message from the latency tail and then storm (metadata
       and heap grow until the run is killed); at twenty no episode
       retransmitted at all over 600 000 updates. *)
    let rto = 20 * (nclients + 2) in
    let net =
      Transport.config ~shim:true ~rto ~faults:Rlist_net.Faults.none ~seed ()
    in
    let gc = parse "gc policy" Rlist_gc.of_string soak_gc_policy in
    let fp = Fastpath.create () in
    let t = create ~net ~gc ~batching:false ~fp () in
    let rng = Random.State.make [| seed |] in
    let intent = Workload.intent_generator Workload.Uniform ~nclients ~rng in
    let params =
      Workload.timed_params Workload.Uniform ~nclients ~updates:chunk
    in
    let peaks = ref (0, 0) in
    for _ = 1 to chunks do
      ignore
        (Probe.call Probe.Run_timed (fun () ->
             E.run_timed ~intent t ~rng ~params));
      peaks := sample t !peaks
    done;
    outcome t ~fp ~net:(Some net) ~recorder:None ~peaks:!peaks

  (* Replay a logical schedule (the one [Probe] logged) on a fresh
     engine over the perfect wire; returns the final documents. *)
  let replay ~batching schedule =
    let t = E.create ~batching ~history:false ~nclients () in
    E.run t schedule;
    docs t
end
