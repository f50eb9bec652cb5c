(* Property-based differential testing across the protocol zoo, on
   reliable channels and under every fault model through the
   reliability shim (the acceptance gate of the unreliable-network
   layer).

   Each property is a function of a single integer seed, and QCheck
   prints the failing seed on a counterexample; promote one into the
   regression corpus with

     dune exec bin/jupiter_sim.exe -- record --seed N -o test/seeds/<name>.sched

   Determinism is what makes the differential properties work: two
   engines driven by the same RNG seed over the same network
   configuration seed make identical scheduling and fault decisions,
   so behaviour-equivalent protocols must produce identical schedules
   and identical behaviours — even through drops, duplicates, reorder
   and partitions. *)

open Rlist_model
module Faults = Rlist_net.Faults
module Transport = Rlist_net.Transport

(* Helpers.qtest, plus a printer so a failure names its seed. *)
let qtest ?(count = 50) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count ~print:string_of_int gen prop)

let seed_gen = QCheck2.Gen.int_range 0 1_000_000

let params = { Rlist_sim.Schedule.default_params with updates = 25 }

let fault_models =
  List.map
    (fun n -> n, Option.get (Faults.preset n))
    [ "drop"; "dup"; "reorder"; "partition"; "chaos"; "heavy-loss" ]

(* The fault model under which a seed runs is itself seed-determined,
   so the corpus of counterexamples covers all models over time. *)
let net_for seed =
  let _, faults = List.nth fault_models (seed mod List.length fault_models) in
  Transport.config ~faults ~seed ()

type outcome = {
  schedule : Rlist_sim.Schedule.t;
  behavior : (Replica_id.t * Document.t) list;
  converged : bool;
  trace : Rlist_spec.Trace.t;
}

let run_cs (module P : Rlist_sim.Protocol_intf.PROTOCOL) ?(batching = false)
    ~faulty seed =
  let module E = Rlist_sim.Engine.Make (P) in
  let net = if faulty then Some (net_for seed) else None in
  let t = E.create ?net ~batching ~nclients:3 () in
  let rng = Random.State.make [| seed; 0xFA17 |] in
  let schedule = E.run_random t ~rng ~params in
  {
    schedule;
    behavior = E.behavior t;
    converged = E.converged t;
    trace = E.trace t;
  }

let behavior_equal =
  List.equal (fun (r1, d1) (r2, d2) ->
      Replica_id.equal r1 r2 && Document.equal d1 d2)

let satisfied = function
  | Rlist_spec.Check.Satisfied -> true
  | Rlist_spec.Check.Violated _ -> false

let quiescent_ok o =
  o.converged
  && satisfied (Rlist_spec.Convergence.check o.trace)
  && satisfied (Rlist_spec.Weak_spec.check o.trace)

(* --- Theorem 7.1: CSS and CSCW are behaviourally equivalent -------- *)

(* With [batching] the equivalence gates the batched delivery path:
   both engines coalesce identically (same RNG, same deliverable
   counts), so the differential catches any divergence between a
   protocol's batch entry points and one-by-one receipt. *)
let css_equiv_cscw ?(batching = false) ~faulty seed =
  let a = run_cs (module Jupiter_css.Protocol) ~batching ~faulty seed in
  let b = run_cs (module Jupiter_cscw.Protocol) ~batching ~faulty seed in
  a.schedule = b.schedule
  && behavior_equal a.behavior b.behavior
  && quiescent_ok a && quiescent_ok b

(* --- Pruned Jupiter is observationally identical to CSS ------------ *)

let pruned_equiv_css ?(batching = false) ~faulty seed =
  let a = run_cs (module Jupiter_css.Protocol) ~batching ~faulty seed in
  let b = run_cs (module Jupiter_css.Pruned_protocol) ~batching ~faulty seed in
  a.schedule = b.schedule
  && behavior_equal a.behavior b.behavior
  && quiescent_ok b

(* --- Every protocol converges at quiescence ------------------------ *)

let cs_protocols =
  List.map
    (fun (name, p) -> name, run_cs p)
    (Helpers.registry_protocols ~expect:7 Helpers.star)

let run_p2p (module P : Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL)
    ?(batching = false) ~faulty seed =
  let module E = Rlist_sim.P2p_engine.Make (P) in
  let net = if faulty then Some (net_for seed) else None in
  let t = E.create ?net ~batching ~npeers:3 () in
  let rng = Random.State.make [| seed; 0xFA17 |] in
  ignore (E.run_random t ~rng ~params);
  let trace = E.trace t in
  E.converged t
  && satisfied (Rlist_spec.Convergence.check trace)
  && satisfied (Rlist_spec.Weak_spec.check trace)

let p2p_protocols =
  List.map
    (fun (name, p) -> name, run_p2p p)
    (Helpers.registry_protocols ~expect:2 Helpers.mesh)

let all_converge ?(batching = false) ~faulty seed =
  List.for_all
    (fun ((name : string), run) ->
      let o = run ?batching:(Some batching) ~faulty seed in
      quiescent_ok o
      ||
      (Printf.printf "protocol %s failed at seed %d\n%!" name seed;
       false))
    cs_protocols
  && List.for_all
       (fun ((name : string), run) ->
         run ?batching:(Some batching) ~faulty seed
         ||
         (Printf.printf "protocol %s failed at seed %d\n%!" name seed;
          false))
       p2p_protocols

(* The naive foil diverges even on perfect channels (its remote
   applies can go out of bounds on a diverged replica), so it is
   excluded from the convergence gate; what the shim still owes it is
   a clean FIFO-exactly-once channel.  The property: a naive run under
   chaos records zero contract violations, and any abort is the
   foil's own doing — never the channels failing to quiesce. *)
let naive_completes_cleanly seed =
  let net = Transport.config ~faults:(snd (List.nth fault_models 4)) ~seed () in
  let module E = Rlist_sim.Engine.Make (Jupiter_cscw.Naive_p2p) in
  let t = E.create ~net ~nclients:3 () in
  let rng = Random.State.make [| seed; 0xFA17 |] in
  (try ignore (E.run_random t ~rng ~params) with
  | Invalid_argument msg when not (Helpers.contains msg "quiesce") -> ());
  (Transport.stats net).Rlist_net.Stats.contract_violations = 0

(* --- The negative control ------------------------------------------ *)

(* Without the shim, lossy channels break the protocols' channel
   assumption and the runs demonstrably do NOT converge: the CSS
   delivery either throws (a transformation against a state its space
   no longer matches) or quiesces diverged.  With the shim, the very
   same seeds all converge.  This is the experiment that justifies the
   shim's existence. *)
let test_shimless_diverges () =
  let faults = { Faults.none with drop = 0.3 } in
  let seeds = List.init 10 (fun i -> i + 1) in
  let broken = ref 0 in
  List.iter
    (fun seed ->
      let net = Transport.config ~shim:false ~faults ~seed () in
      let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
      let t = E.create ~net ~nclients:3 () in
      let rng = Random.State.make [| seed; 0xFA17 |] in
      match E.run_random t ~rng ~params with
      | _ -> if not (E.converged t) then incr broken
      | exception Invalid_argument _ -> incr broken)
    seeds;
  Alcotest.(check bool)
    (Printf.sprintf "shim-less lossy runs break the protocol (%d/10 broke)"
       !broken)
    true (!broken >= 8);
  (* Positive control: the same seeds, same fault model, shim on. *)
  List.iter
    (fun seed ->
      let net = Transport.config ~faults ~seed () in
      let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
      let t = E.create ~net ~nclients:3 () in
      let rng = Random.State.make [| seed; 0xFA17 |] in
      ignore (E.run_random t ~rng ~params);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d converges with the shim" seed)
        true (E.converged t))
    seeds

let () =
  Alcotest.run "properties"
    [
      ( "differential",
        [
          qtest ~count:50 "css = cscw (reliable)" seed_gen
            (css_equiv_cscw ~batching:false ~faulty:false);
          qtest ~count:50 "css = cscw (faulty, shimmed)" seed_gen
            (css_equiv_cscw ~batching:false ~faulty:true);
          qtest ~count:25 "pruned = css (reliable)" seed_gen
            (pruned_equiv_css ~batching:false ~faulty:false);
          qtest ~count:25 "pruned = css (faulty, shimmed)" seed_gen
            (pruned_equiv_css ~batching:false ~faulty:true);
        ] );
      ( "differential-batched",
        [
          qtest ~count:50 "css = cscw (batched, reliable)" seed_gen
            (css_equiv_cscw ~batching:true ~faulty:false);
          qtest ~count:50 "css = cscw (batched, faulty, shimmed)" seed_gen
            (css_equiv_cscw ~batching:true ~faulty:true);
          qtest ~count:25 "pruned = css (batched, reliable)" seed_gen
            (pruned_equiv_css ~batching:true ~faulty:false);
          qtest ~count:25 "pruned = css (batched, faulty, shimmed)" seed_gen
            (pruned_equiv_css ~batching:true ~faulty:true);
        ] );
      ( "convergence",
        [
          qtest ~count:10 "all protocols converge (reliable)" seed_gen
            (all_converge ~batching:false ~faulty:false);
          qtest ~count:10 "all protocols converge (faulty, shimmed)" seed_gen
            (all_converge ~batching:false ~faulty:true);
          qtest ~count:10 "all protocols converge (batched, faulty)" seed_gen
            (all_converge ~batching:true ~faulty:true);
          qtest ~count:10 "naive foil gets a clean channel" seed_gen
            naive_completes_cleanly;
        ] );
      ( "negative-control",
        [
          Alcotest.test_case "no shim, lossy: divergence" `Quick
            test_shimless_diverges;
        ] );
    ]
