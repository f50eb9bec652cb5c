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

(* --- Robustness: the text readers never raise (ROADMAP item 1) ----- *)

module Snapshot = Jupiter_css.Snapshot
module Schedule_text = Rlist_sim.Schedule_text

(* The texts a seed's run writes: its schedule file, every client's
   snapshot (plain CSS) and the last stable snapshot of an eager-GC
   css-pruned run.  Even seeds start from a non-empty document, so the
   initial elements' client-0 ids are in the texts. *)
let texts_of seed =
  let initial =
    if seed mod 2 = 0 then Document.of_string "seed" else Document.empty
  in
  let rng () = Random.State.make [| seed; 0xFA17 |] in
  let module E = Rlist_sim.Engine.Make (Jupiter_css.Protocol) in
  let t = E.create ~initial ~nclients:3 () in
  let schedule = E.run_random t ~rng:(rng ()) ~params in
  let module P = Rlist_sim.Engine.Make (Jupiter_css.Pruned_protocol) in
  let gc = Result.get_ok (Rlist_gc.of_string "ops=4,retain=2,snap=1") in
  let p = P.create ~gc ~initial ~nclients:3 () in
  ignore (P.run_random p ~rng:(rng ()) ~params);
  ( (initial, schedule),
    List.map (fun i -> Snapshot.client_to_string (E.client t i)) [ 1; 2; 3 ],
    P.gc_last_snapshot p )

let readers =
  [
    "client snapshot", (fun s -> Result.is_ok (Snapshot.client_of_string s));
    "stable snapshot", (fun s -> Result.is_ok (Snapshot.stable_of_string s));
    "schedule", (fun s -> Result.is_ok (Schedule_text.of_string s));
  ]

(* Every reader returns on [text]; an escaping exception fails. *)
let never_raises text =
  List.for_all
    (fun (what, read) ->
      match read text with
      | _ -> true
      | exception e ->
        QCheck2.Test.fail_reportf "%s reader raised %s on %S" what
          (Printexc.to_string e) text)
    readers

let roundtrips seed =
  let (initial, schedule), clients, stable = texts_of seed in
  let again print parse s = Result.map print (parse s) = Ok s in
  let text = Schedule_text.to_string ~initial ~nclients:3 schedule in
  (match Schedule_text.of_string text with
  | Ok f ->
    f.nclients = 3 && f.events = schedule && Document.equal f.initial initial
  | Error _ -> false)
  && List.for_all
       (again Snapshot.client_to_string Snapshot.client_of_string)
       clients
  && Option.fold ~none:false
       ~some:(again Snapshot.stable_to_string Snapshot.stable_of_string)
       stable

(* Tokens a corrupted line is likely to carry: out-of-range char codes,
   client 0 and negative ids, non-numbers, overflow, stray keywords. *)
let bad_tokens =
  [| "0"; "1"; "-1"; "300"; "-5"; "0.0"; "1.1"; "x"; ""; "nop"; "ins";
     "del"; "4611686018427387904"; "99999999999999999999"; "\x01" |]

(* Corrupt a valid text a few times: replace a token, drop, duplicate
   or swap lines, or cut the text short. *)
let mutate rng text =
  let lines = Array.of_list (String.split_on_char '\n' text) in
  let n = Array.length lines in
  for _ = 1 to 1 + Random.State.int rng 3 do
    let i = Random.State.int rng n in
    match Random.State.int rng 5 with
    | 0 ->
      let tokens = Array.of_list (String.split_on_char ' ' lines.(i)) in
      tokens.(Random.State.int rng (Array.length tokens)) <-
        bad_tokens.(Random.State.int rng (Array.length bad_tokens));
      lines.(i) <- String.concat " " (Array.to_list tokens)
    | 1 -> lines.(i) <- ""
    | 2 -> lines.(i) <- lines.(i) ^ "\n" ^ lines.(i)
    | 3 ->
      let j = Random.State.int rng n in
      let l = lines.(i) in
      lines.(i) <- lines.(j);
      lines.(j) <- l
    | _ ->
      let l = lines.(i) in
      lines.(i) <- String.sub l 0 (Random.State.int rng (String.length l + 1))
  done;
  String.concat "\n" (Array.to_list lines)

let mutants_never_raise seed =
  let (initial, schedule), clients, stable = texts_of seed in
  let rng = Random.State.make [| seed; 0x3A7E |] in
  let valid =
    (Schedule_text.to_string ~initial ~nclients:3 schedule :: clients)
    @ Option.to_list stable
  in
  List.for_all
    (fun text ->
      List.for_all never_raises (List.init 20 (fun _ -> mutate rng text)))
    valid

(* Arbitrary short texts built from the formats' own vocabulary, after
   an optional header, plus raw bytes. *)
let gen_text =
  let open QCheck2.Gen in
  let keyword =
    oneofl
      [ "css-client"; "css-stable"; "client"; "delt"; "serial"; "root";
        "final"; "node"; "tr"; "at"; "clients"; "initial"; "gen"; "c2s";
        "s2c"; "ins"; "del"; "read"; "nop"; "#" ]
  in
  let line =
    map2
      (fun k ts -> String.concat " " (k :: ts))
      keyword
      (list_size (int_bound 6) (oneofl (Array.to_list bad_tokens)))
  in
  oneof
    [
      string;
      map2 ( ^ )
        (oneofl [ ""; "css-client 1\n"; "css-stable 1\n"; "clients 2\n" ])
        (map (String.concat "\n") (list_size (int_bound 12) line));
    ]

(* Inputs a constructor rejects while a line is decoded ([Char.chr] on
   code 300, [Op_id.make] on a negative id) or that break a snapshot's
   own invariants must each be a line-numbered [Error], not an
   exception or a success. *)
let test_reader_regressions () =
  let line_error what n result =
    match result with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error e ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %S names line %d" what e n)
        true
        (String.starts_with ~prefix:(Printf.sprintf "line %d: " n) e)
  in
  let client = "css-client 1\nclient 1 1\nroot \nfinal \nnode \n" in
  Alcotest.(check bool) "a minimal client snapshot reads" true
    (Result.is_ok (Snapshot.client_of_string client));
  line_error "char code 300" 3
    (Snapshot.stable_of_string "css-stable 1\nat 1\ndelt 300 1 1\n");
  line_error "negative client id" 3
    (Snapshot.stable_of_string "css-stable 1\nat 1\ndelt 97 -1 1\n");
  line_error "char code 300 (client)" 6
    (Snapshot.client_of_string (client ^ "delt 300 1 1\n"));
  line_error "negative state id" 4
    (Snapshot.client_of_string
       "css-client 1\nclient 1 1\nroot \nfinal -1.1\n");
  line_error "next_seq 0" 2
    (Snapshot.client_of_string
       "css-client 1\nclient 1 0\nroot \nfinal \nnode \n");
  line_error "unprintable initial" 2
    (Schedule_text.of_string "clients 2\ninitial \x01\n");
  line_error "unprintable insert" 2
    (Schedule_text.of_string "clients 2\ngen 1 ins \x01 0\n");
  let rejected what result =
    Alcotest.(check bool) what true (Result.is_error result)
  in
  rejected "duplicate element ids (stable)"
    (Snapshot.stable_of_string
       "css-stable 1\nat 0\ndelt 97 1 1\ndelt 98 1 1\n");
  rejected "duplicate element ids (client)"
    (Snapshot.client_of_string (client ^ "delt 97 0 1\ndelt 98 0 1\n"));
  (* A position is stored in 32 bits: the largest one round-trips, the
     next one is refused, never wrapped. *)
  let at pos =
    Printf.sprintf
      "css-client 1\nclient 1 2\nroot \nfinal 1.1\nnode \n\
       tr 1 1 ins 97 1 1 %d\nnode 1.1\n"
      pos
  in
  let top = Int32.to_int Int32.max_int in
  (match Snapshot.client_of_string (at top) with
  | Ok c ->
    Alcotest.(check string) "largest position round-trips" (at top)
      (Snapshot.client_to_string c)
  | Error e -> Alcotest.failf "largest position: %s" e);
  rejected "position 2^31" (Snapshot.client_of_string (at (top + 1)))

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
      ( "robustness",
        [
          qtest ~count:25 "snapshots and schedules round-trip" seed_gen
            roundtrips;
          qtest ~count:25 "mutated texts never raise" seed_gen
            mutants_never_raise;
          QCheck_alcotest.to_alcotest
            (QCheck2.Test.make ~name:"arbitrary texts never raise"
               ~count:1000 ~print:(Printf.sprintf "%S") gen_text never_raises);
          Alcotest.test_case "reader regressions" `Quick
            test_reader_regressions;
        ] );
      ( "negative-control",
        [
          Alcotest.test_case "no shim, lossy: divergence" `Quick
            test_shimless_diverges;
        ] );
    ]
