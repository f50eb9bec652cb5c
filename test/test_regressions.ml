(* The regression corpus: every schedule in test/seeds/*.sched is
   replayed verbatim against every client/server protocol, asserting
   convergence and the weak list specification, plus behavioural
   equality of the two Jupiter formulations (Theorem 7.1).

   To promote a failing seed found by the fuzzers into the corpus:

     dune exec bin/jupiter_sim.exe -- record --seed N -o test/seeds/<name>.sched

   (or save the schedule the failing property printed), add a comment
   saying what it witnesses, and `dune runtest` picks it up — the glob
   in test/dune needs no edit. *)

open Rlist_model

(* `dune runtest` runs in _build/default/test; `dune exec` keeps the
   caller's directory. *)
let seeds_dir =
  if Sys.file_exists "seeds" then "seeds" else Filename.concat "test" "seeds"

let corpus () =
  Sys.readdir seeds_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".sched")
  |> List.sort compare
  |> List.map (fun f -> Filename.concat seeds_dir f)

let load path =
  match Rlist_sim.Schedule_text.load ~path with
  | Ok file -> file
  | Error msg -> Alcotest.failf "%s: %s" path msg

type result = {
  converged : bool;
  behavior : (Replica_id.t * Document.t) list;
  trace : Rlist_spec.Trace.t;
}

let replay (module P : Rlist_sim.Protocol_intf.PROTOCOL)
    (file : Rlist_sim.Schedule_text.file) =
  let module E = Rlist_sim.Engine.Make (P) in
  let t = E.create ~initial:file.initial ~nclients:file.nclients () in
  E.run t file.events;
  { converged = E.converged t; behavior = E.behavior t; trace = E.trace t }

(* Every correct client/server protocol.  The naive foil is excluded:
   the corpus exists precisely because these schedules break it.  The
   strong spec is not asserted — figure7/thm81 refute it for the OT
   protocols (Theorem 8.1), by design. *)
let protocols =
  List.map
    (fun (name, p) -> name, replay p)
    (Helpers.registry_protocols ~expect:7 Helpers.star)

let behavior_equal =
  List.equal (fun (r1, d1) (r2, d2) ->
      Replica_id.equal r1 r2 && Document.equal d1 d2)

let check_seed path () =
  let file = load path in
  let results =
    List.map
      (fun (name, run) ->
        let r = run file in
        Alcotest.(check bool) (name ^ ": converged") true r.converged;
        Helpers.check_satisfied
          (name ^ ": convergence")
          (Rlist_spec.Convergence.check r.trace);
        Helpers.check_satisfied
          (name ^ ": weak spec")
          (Rlist_spec.Weak_spec.check r.trace);
        name, r)
      protocols
  in
  let css = List.assoc "css" results and cscw = List.assoc "cscw" results in
  Alcotest.(check bool)
    "css and cscw behaviours identical (Thm 7.1)" true
    (behavior_equal css.behavior cscw.behavior)

(* The corpus witnesses must actually witness: figure7 / thm81 refute
   the strong spec under css (that is why they are here). *)
let check_strong_refuted path () =
  let file = load path in
  let r = replay (module Jupiter_css.Protocol) file in
  Helpers.check_violated
    (path ^ ": strong spec refuted under css")
    (Rlist_spec.Strong_spec.check r.trace)

let () =
  let corpus = corpus () in
  if corpus = [] then failwith "empty regression corpus: test/seeds/*.sched";
  Alcotest.run "regressions"
    [
      ( "corpus",
        List.map
          (fun path -> Alcotest.test_case path `Quick (check_seed path))
          corpus );
      ( "witnesses",
        List.map
          (fun path ->
            Alcotest.test_case (path ^ " refutes strong") `Quick
              (check_strong_refuted path))
          [
            Filename.concat seeds_dir "figure7.sched";
            Filename.concat seeds_dir "thm81.sched";
          ] );
    ]
