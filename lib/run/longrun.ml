(* See longrun.mli. *)

open Rlist_model
module Workload = Rlist_workload.Workload

type sample = {
  x_ops : int;
  x_us_per_op : float;
  x_meta : int;
  x_heap_words : int;
  x_gc_cycles : int;
  x_reclaimed : int;
  x_dedup_keys : int;
}

type result = {
  l_protocol : string;
  l_profile : Workload.profile;
  l_updates : int;
  l_chunk : int;
  l_seed : int;
  l_gc : Rlist_gc.policy option;
  l_samples : sample list;
  l_meta_peak : int;
  l_heap_peak : int;
  l_p50_us : float;
  l_p99_us : float;
  l_flat_meta : float;
  l_flat_latency : float;
  l_digest : string;
  l_converged : bool;
  l_gc_stats : Rlist_gc.stats option;
  l_elapsed_s : float;
}

(* Nearest rank (truncated), unlike {!Rlist_obs.Metrics.interpolate}:
   C18's p50/p99 and the CLI's longrun report use this rule, and
   interpolating would shift every figure already published. *)
let percentile sorted q =
  match Array.length sorted with
  | 0 -> 0.
  | n ->
    let i = int_of_float (Float.of_int (n - 1) *. q) in
    sorted.(min (n - 1) (max 0 i))

(* Mean of the last quarter over mean of the first quarter — the
   flatness ratio both the CLI gate and the C18 bench report.  A
   bounded curve hovers near 1; unbounded growth scales with the
   horizon.  With fewer than 4 samples the ratio degenerates to
   last/first. *)
let flatness values =
  match values with
  | [] | [ _ ] -> 1.
  | _ ->
    let arr = Array.of_list values in
    let n = Array.length arr in
    let quarter = max 1 (n / 4) in
    let mean lo hi =
      let sum = ref 0. in
      for i = lo to hi - 1 do
        sum := !sum +. arr.(i)
      done;
      !sum /. Float.of_int (hi - lo)
    in
    let early = mean 0 quarter in
    let late = mean (n - quarter) n in
    if early <= 0. then 1. else late /. early

let star protocol =
  match Protocols.find protocol with
  | Some (Protocols.Star p) -> p
  | Some (Protocols.Mesh _) ->
    invalid_arg "Longrun.run: peer-to-peer protocols are not soakable here"
  | None ->
    invalid_arg (Printf.sprintf "Longrun.run: unknown protocol %S" protocol)

let check ~protocol ~nclients ~updates ~chunk =
  if updates < 1 then invalid_arg "Longrun.run: need updates >= 1";
  if chunk < 1 then invalid_arg "Longrun.run: need chunk >= 1";
  if nclients < 1 then invalid_arg "Longrun.run: need nclients >= 1";
  ignore (star protocol)

let run ?gc ?(faults = Rlist_net.Faults.none) ~now ~protocol ~profile
    ~nclients ~updates ~chunk ~seed () =
  check ~protocol ~nclients ~updates ~chunk;
  let (module P : Rlist_sim.Protocol_intf.PROTOCOL) = star protocol in
  let module E = Rlist_sim.Engine.Make (P) in
  (* The shim's retransmission timer counts ticks, and the timed driver
     ticks once per agenda event — about [nclients + 2] of those per
     update (one generation, one server delivery, one broadcast arrival
     per client).  An rto near the per-op event count retransmits
     perfectly healthy in-flight messages (the exponential latency tail
     regularly exceeds it); every duplicate occupies an arrival slot and
     pushes real deliveries further out through the per-channel FIFO
     stamp, which expires more timers — a retransmission storm that
     grows the in-flight window (and the transform lattice) linearly
     with the horizon.  Ten op-intervals of headroom keeps spurious
     retransmissions out of a fault-free soak while still recovering
     promptly when a fault model actually drops messages. *)
  let rto = 10 * (nclients + 2) in
  let net = Rlist_net.Transport.config ~shim:true ~rto ~faults ~seed () in
  let t = E.create ~net ?gc ~history:false ~nclients () in
  let rng = Random.State.make [| seed |] in
  let intent = Workload.intent_generator profile ~nclients ~rng in
  let samples = ref [] in
  let applied = ref 0 in
  let meta_peak = ref 0 in
  let heap_peak = ref 0 in
  let started = now () in
  while !applied < updates do
    let todo = min chunk (updates - !applied) in
    (* The timed scheduler, not the random one: a long random walk
       lets the unacked window — and with it the transform lattice —
       grow without bound, so per-op cost would scale with the
       horizon.  The latency model keeps the in-flight window at its
       steady state no matter how many ops flow. *)
    let params = Workload.timed_params profile ~nclients ~updates:todo in
    let t0 = now () in
    ignore (E.run_timed ~intent t ~rng ~params);
    let dt = now () -. t0 in
    applied := !applied + todo;
    let meta = E.total_metadata_size t in
    let heap = (Stdlib.Gc.quick_stat ()).Stdlib.Gc.heap_words in
    if meta > !meta_peak then meta_peak := meta;
    if heap > !heap_peak then heap_peak := heap;
    let gc_cycles, reclaimed =
      match E.gc_stats t with
      | None -> 0, 0
      | Some s ->
        ( s.Rlist_gc.cycles,
          s.Rlist_gc.reclaimed_states + s.Rlist_gc.reclaimed_log
          + s.Rlist_gc.reclaimed_keys )
    in
    samples :=
      {
        x_ops = !applied;
        x_us_per_op = dt *. 1e6 /. Float.of_int todo;
        x_meta = meta;
        x_heap_words = heap;
        x_gc_cycles = gc_cycles;
        x_reclaimed = reclaimed;
        x_dedup_keys = E.dedup_keys t;
      }
      :: !samples
  done;
  let elapsed = now () -. started in
  let samples = List.rev !samples in
  let finals =
    (if P.server_is_replica then
       [ Document.to_string (E.server_document t) ]
     else [])
    @ List.init nclients (fun i ->
          Document.to_string (E.client_document t (i + 1)))
  in
  let latencies = List.map (fun s -> s.x_us_per_op) samples in
  let sorted = Array.of_list latencies in
  Array.sort Float.compare sorted;
  {
    l_protocol = P.name;
    l_profile = profile;
    l_updates = updates;
    l_chunk = chunk;
    l_seed = seed;
    l_gc = gc;
    l_samples = samples;
    l_meta_peak = !meta_peak;
    l_heap_peak = !heap_peak;
    l_p50_us = percentile sorted 0.5;
    l_p99_us = percentile sorted 0.99;
    l_flat_meta =
      flatness (List.map (fun s -> Float.of_int s.x_meta) samples);
    l_flat_latency = flatness latencies;
    l_digest = Digest.to_hex (Digest.string (String.concat "\x00" finals));
    l_converged = E.converged t;
    l_gc_stats = E.gc_stats t;
    l_elapsed_s = elapsed;
  }

let result_to_json r =
  let open Rlist_obs.Json in
  let f3 x = Fixed (3, x) in
  let gc_stats s =
    let ints = List.map (fun (k, v) -> (k, Int v)) (Rlist_gc.stats_fields s) in
    [ "gc_stats", Obj ints ]
  in
  let sample s =
    Obj
      [ "ops", Int s.x_ops; "us_per_op", f3 s.x_us_per_op; "meta", Int s.x_meta;
        "heap_words", Int s.x_heap_words; "gc_cycles", Int s.x_gc_cycles;
        "reclaimed", Int s.x_reclaimed; "dedup_keys", Int s.x_dedup_keys ]
  in
  Obj
    ([ "protocol", Str r.l_protocol;
       "profile", Str (Workload.profile_name r.l_profile);
       "updates", Int r.l_updates; "chunk", Int r.l_chunk; "seed", Int r.l_seed;
       "gc", opt (fun p -> Str (Rlist_gc.to_string p)) r.l_gc;
       "meta_peak", Int r.l_meta_peak; "heap_peak_words", Int r.l_heap_peak;
       "p50_us_per_op", f3 r.l_p50_us; "p99_us_per_op", f3 r.l_p99_us;
       "flat_meta", f3 r.l_flat_meta; "flat_latency", f3 r.l_flat_latency;
       "digest", Str r.l_digest; "converged", Bool r.l_converged;
       "elapsed_s", f3 r.l_elapsed_s ]
    @ Option.fold ~none:[] ~some:gc_stats r.l_gc_stats
    @ [ "samples", List (List.map sample r.l_samples) ])

let pp ppf r =
  Format.fprintf ppf
    "@[<v>%s/%s: %d ops (chunks of %d, seed %d)%s@,\
     converged:   %b@,\
     digest:      %s@,\
     meta peak:   %d (flatness %.2f)@,\
     heap peak:   %d words@,\
     latency:     p50 %.2f us/op, p99 %.2f us/op (flatness %.2f)@,\
     elapsed:     %.1fs"
    r.l_protocol
    (Workload.profile_name r.l_profile)
    r.l_updates r.l_chunk r.l_seed
    (match r.l_gc with
    | None -> ", gc off"
    | Some p -> Printf.sprintf ", gc %s" (Rlist_gc.to_string p))
    r.l_converged r.l_digest r.l_meta_peak r.l_flat_meta r.l_heap_peak
    r.l_p50_us r.l_p99_us r.l_flat_latency r.l_elapsed_s;
  (match r.l_gc_stats with
  | None -> ()
  | Some s ->
    Format.fprintf ppf "@,gc:          ";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Format.fprintf ppf ", ";
        Format.fprintf ppf "%s %d" k v)
      (Rlist_gc.stats_fields s));
  Format.fprintf ppf "@]"
