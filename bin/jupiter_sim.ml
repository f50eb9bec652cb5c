(* jupiter-sim: command-line driver for the replicated-list protocols.

   One subcommand per task (`jupiter_sim --help` lists all thirteen):
   random runs (simulate, fuzz, soak, longrun, shard-smoke), bounded
   model checking (check), the paper's figure scenarios (figures, viz,
   stats, trace), schedules and flight recordings (record, replay), and
   offline trace analysis (report).  Every run is driven and reported
   through Rlist_run.Recorded: one outcome record with the three
   specification verdicts, and one text report of it. *)

open Rlist_model
open Cmdliner

module Json = Rlist_obs.Json
module Recorded = Rlist_run.Recorded
module Protocols = Rlist_run.Protocols

let print_json v = print_endline (Json.to_string v)

(* Every PROTOCOL argument is a registry key; the converter rejects
   anything else, so the lookup behind it cannot fail. *)
let protocol_conv = Arg.enum (List.map (fun k -> k, k) Protocols.keys)

let lookup key = List.assoc key Protocols.all

(* An argument the engine or checker refuses is a usage error: one
   line, and cmdliner's exit code for a bad command line. *)
let usage_error cmd msg =
  Printf.eprintf "%s: %s\n" cmd msg;
  exit Cmd.Exit.cli_error

(* Refuse arguments before a run starts, so a refusal is a usage error
   and leaves nothing behind; a crash during the run still exits 1. *)
let check_args cmd check =
  try check () with Invalid_argument msg -> usage_error cmd msg

(* Replay a schedule under a client/server protocol; [obs], [batching]
   and [fastpath] as in [Recorded.replay_schedule]. *)
let replay_one ?obs ?batching ?fastpath key ~initial ~nclients events =
  match lookup key with
  | Protocols.Mesh _ ->
    prerr_endline
      "replay: peer-to-peer protocols use a different schedule shape; use \
       simulate instead";
    exit 1
  | Protocols.Star p ->
    Recorded.replay_schedule ?obs ?batching ?fastpath p ~initial ~nclients
      events

(* --- arguments -------------------------------------------------------- *)

let protocol_arg =
  Arg.(value & opt protocol_conv "css"
       & info [ "p"; "protocol" ] ~docv:"PROTOCOL"
           ~doc:
             "Protocol to run: css, cscw, rga, logoot, treedoc, css-pruned, \
              css-seq, css-p2p, ttf, or naive (the broken foil).")

let profile_arg =
  let parse s =
    match Rlist_workload.Workload.profile_of_name s with
    | Some p -> Ok p
    | None -> Error (`Msg (Printf.sprintf "unknown workload profile %S" s))
  in
  let print ppf p =
    Format.pp_print_string ppf (Rlist_workload.Workload.profile_name p)
  in
  Arg.(value
       & opt (conv (parse, print)) Rlist_workload.Workload.Uniform
       & info [ "w"; "workload" ] ~docv:"PROFILE"
           ~doc:"Workload profile: uniform, typing, hotspot, append-log, churn.")

let clients_arg =
  Arg.(value & opt int 4 & info [ "n"; "clients" ] ~docv:"N"
         ~doc:"Number of clients.")

let updates_arg =
  Arg.(value & opt int 100 & info [ "u"; "updates" ] ~docv:"K"
         ~doc:"Number of update operations to generate.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED"
         ~doc:"Random seed (runs are deterministic per seed).")

let seeds_arg =
  Arg.(value & opt int 100 & info [ "seeds" ] ~docv:"COUNT"
         ~doc:"How many seeds to explore.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit a machine-readable JSON report.")

let batch_arg =
  Arg.(value & flag
       & info [ "batch" ]
           ~doc:
             "Coalesce consecutive sends per channel into one batch message \
              (one sequence number, one retransmission unit), delivered \
              through the protocols' batch entry points.")

let fastpath_arg =
  Arg.(value & flag
       & info [ "fastpath" ]
           ~doc:
             "Enable the CSS transform fast paths (pure-append run \
              specialization) alongside the always-on context-match \
              shortcut; the fastpath.* counters attribute the skipped \
              ladder work.")

let gc_conv =
  Arg.conv
    ( (fun s ->
        match Rlist_gc.of_string s with
        | Ok p -> Ok p
        | Error msg -> Error (`Msg msg)),
      fun ppf p -> Format.pp_print_string ppf (Rlist_gc.to_string p) )

(* A bad fault spec is a usage error (exit 124), like a bad --gc. *)
let faults_conv =
  Arg.conv
    ( (fun s ->
        match Rlist_net.Faults.of_string s with
        | Ok f -> Ok f
        | Error msg -> Error (`Msg msg)),
      fun ppf f -> Format.pp_print_string ppf (Rlist_net.Faults.to_string f) )

let gc_arg =
  Arg.(value & opt (some gc_conv) None
       & info [ "gc" ] ~docv:"POLICY"
           ~doc:
             "Continuous metadata GC: $(b,default) or a field list like \
              $(b,ops=64,meta=4096,lag=256,retain=64,snap=4) (at least one \
              of ops/meta/lag).  Compaction cycles run out of band, so the \
              run's schedule, digest, and final documents are bit-identical \
              to the same seed without GC — it just retains less metadata.")

(* --- simulate ----------------------------------------------------------- *)

(* One random run on perfect channels: a soak spec without faults or
   shim.  A protocol that crashes mid-run (the naive foil) aborts it. *)
let simulate protocol profile nclients updates seed =
  let spec =
    { (Recorded.default ~protocol) with profile; nclients; updates; seed;
      shim = false }
  in
  check_args "simulate" (fun () -> Recorded.check spec);
  match Recorded.run spec with
  | exception Invalid_argument msg ->
    Printf.printf "simulate aborted: %s\n" msg;
    exit 1
  | outcome -> Format.printf "%a@." Recorded.pp_outcome outcome

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run one random collaborative-editing session and report on it.")
    Term.(const simulate $ protocol_arg $ profile_arg $ clients_arg
          $ updates_arg $ seed_arg)

(* --- fuzz and soak ------------------------------------------------------ *)

(* The body fuzz's seeds and soak's run share: refuse [spec] before it
   starts (a usage error, leaving no recording behind), run it with
   the flight recorder on, and return the outcome, or the message the
   run aborted with, plus [save], which dumps the recording to [path]
   (default <cmd>-<protocol>-<seed>.jfr) and returns the path written.
   A dumped run re-executes bit-identically under `jupiter_sim replay`. *)
let run_recorded ~cmd ?obs spec =
  check_args cmd (fun () -> Recorded.check spec);
  let recorder = Rlist_obs.Recorder.create () in
  let result =
    try Ok (Recorded.run ?obs ~recorder spec)
    with Invalid_argument msg -> Error msg
  in
  let save ?(path = Printf.sprintf "%s-%s-%d.jfr" cmd spec.Recorded.protocol
                 spec.Recorded.seed) () =
    match Recorded.save ~spec result recorder path with
    | () -> Some path
    | exception Sys_error msg ->
      Printf.eprintf "cannot write recording %s: %s\n" path msg;
      None
  in
  result, save

let print_recording = Option.iter (Printf.printf "recording:   %s\n")

let fuzz protocol profile nclients updates seeds gc =
  let violations = ref 0 in
  let crashes = ref 0 in
  for seed = 1 to seeds do
    let spec =
      { (Recorded.default ~protocol) with profile; nclients; updates;
        seed; gc }
    in
    match run_recorded ~cmd:"fuzz" spec with
    | Ok outcome, _ when Recorded.passed outcome -> ()
    | Ok outcome, save ->
      incr violations;
      if !violations = 1 then begin
        Printf.printf "first violation at seed %d:\n" seed;
        Format.printf "%a@." Recorded.pp_outcome outcome;
        print_recording (save ())
      end
    | Error msg, save ->
      incr crashes;
      if !crashes = 1 then begin
        Printf.printf "first crash at seed %d: %s\n" seed msg;
        print_recording (save ())
      end
  done;
  Printf.printf
    "checked %d seeds: %d convergence/weak-spec violations, %d crashes\n"
    seeds !violations !crashes;
  if !violations + !crashes > 0 then exit 1

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Hunt for convergence or weak-list-specification violations across \
          many random seeds.  Exits non-zero when any is found (expected for \
          the naive protocol only).  For exhaustive checking at small bounds \
          use $(b,check).")
    Term.(const fuzz $ protocol_arg $ profile_arg $ clients_arg $ updates_arg
          $ seeds_arg $ gc_arg)

(* Run one protocol through a random workload over an unreliable
   network: a fault specification plus (by default) the reliability
   shim that restores the FIFO-exactly-once channels the protocols
   assume.  The recording is dumped when the gate fails, or always with
   --record-out. *)
let soak protocol faults no_shim rto batching fastpath gc nclients
    profile updates seed record_out json =
  let shim = not no_shim in
  let spec =
    {
      Recorded.protocol;
      profile;
      nclients;
      updates;
      seed;
      faults;
      shim;
      rto;
      batching;
      fastpath;
      gc;
    }
  in
  let obs = Rlist_obs.Obs.make () in
  let result, save = run_recorded ~cmd:"soak" ~obs spec in
  let recording =
    match record_out, result with
    | Some path, _ -> save ~path ()
    | None, Ok outcome when Recorded.passed outcome -> None
    | None, _ -> save ()
  in
  let recording_json =
    Option.fold recording ~none:[] ~some:(fun p -> [ "recording", Json.Str p ])
  in
  let faults = Rlist_net.Faults.to_string faults in
  match result with
  | Error msg ->
    (* a channel contract violation crashed the protocol, or the
       network could not quiesce: with the shim on neither happens *)
    if json then
      print_json
        Json.(
          Obj
            ([ "faults", Str faults; "shim", Bool shim; "seed", Int seed;
               "aborted", Str msg ]
            @ recording_json))
    else begin
      Printf.printf "soak aborted: %s\n" msg;
      print_recording recording
    end;
    exit 1
  | Ok o ->
    let sat = Rlist_spec.Check.is_satisfied in
    if json then
      print_json
        Json.(
          Obj
            ([ "protocol", Str o.Recorded.o_protocol; "faults", Str faults;
               "shim", Bool shim; "batch", Bool batching;
               "fastpath", Bool fastpath; "seed", Int seed;
               "events", Int o.o_events; "converged", Bool o.o_converged;
               "convergence", Bool (sat o.o_convergence);
               "weak", Bool (sat o.o_weak); "strong", Bool (sat o.o_strong);
               "net", Rlist_net.Stats.to_json o.o_net;
               "metrics", Rlist_obs.Metrics.to_json obs.metrics ]
            @ recording_json))
    else begin
      Format.printf "%a@." Recorded.pp_outcome o;
      Printf.printf "faults:      %s\n" faults;
      Printf.printf "shim:        %b\n" shim;
      if batching || fastpath then
        Printf.printf "batch:       %b  fastpath: %b\n" batching fastpath;
      Format.printf "%a@." Rlist_net.Stats.pp o.o_net;
      print_recording recording
    end;
    (* Strong-spec violations are a theorem for the OT protocols
       (Thm 8.1), so the gate is convergence + weak, like fuzz. *)
    if not (Recorded.passed o) then exit 1

let soak_protocol_arg =
  Arg.(required
       & pos 0 (some protocol_conv) None
       & info [] ~docv:"PROTOCOL"
           ~doc:"Protocol to soak (same names as $(b,simulate)).")

let faults_arg =
  Arg.(value & opt faults_conv (Option.get (Rlist_net.Faults.preset "chaos"))
       & info [ "faults" ] ~absent:"chaos" ~docv:"SPEC"
           ~doc:
             "Fault model: a preset (none, drop, dup, reorder, partition, \
              chaos, heavy-loss) or a field list like \
              $(b,drop=0.3,dup=0.1,reorder=0.2,delay=4,partition=60:20).")

let no_shim_arg =
  Arg.(value & flag
       & info [ "no-shim" ]
           ~doc:
             "Disable the reliability shim: faults reach the protocol \
              unfiltered (the negative control — expect divergence or an \
              aborted run at any positive loss).")

let rto_arg =
  Arg.(value & opt int 12
       & info [ "rto" ] ~docv:"TICKS"
           ~doc:"Shim retransmission timeout in virtual-clock ticks.")

let record_out_arg =
  Arg.(value & opt (some string) None
       & info [ "record-out" ] ~docv:"FILE"
           ~doc:
             "Always dump the flight recording to FILE (by default a \
              recording is dumped only when the gate fails, to \
              soak-<protocol>-<seed>.jfr).")

let soak_cmd =
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run a random workload over an unreliable network (drops, \
          duplicates, reordering, partitions) with the reliability shim \
          restoring the FIFO-exactly-once channel contract, and report \
          convergence plus the network counters (retransmissions, \
          suppressed duplicates, message amplification).  Exits non-zero \
          on a convergence or weak-specification violation.")
    Term.(const soak $ soak_protocol_arg $ faults_arg $ no_shim_arg $ rto_arg
          $ batch_arg $ fastpath_arg $ gc_arg $ clients_arg $ profile_arg
          $ updates_arg $ seed_arg $ record_out_arg $ json_arg)

(* --- longrun ----------------------------------------------------------- *)

(* Million-op soak through one engine (lib/run/longrun): chunked
   sampling of metadata, heap, and per-op latency, to demonstrate the
   continuous GC keeps both flat where the unbounded run grows.  The
   digest line is the CI gate's handle for GC-on/GC-off equality. *)

(* The body longrun and shard-smoke share: refuse the arguments before
   the run starts, run, print the result (JSON or [pp]), then exit 1
   naming every gate the result fails. *)
let run_gated ~cmd ~protocol ~nclients ~updates ~chunk ~run ~to_json ~pp
    ~gate json =
  check_args cmd (fun () ->
      Rlist_run.Longrun.check ~protocol ~nclients ~updates ~chunk);
  let r =
    try run ()
    with Invalid_argument msg ->
      Printf.eprintf "%s: %s\n" cmd msg;
      exit 1
  in
  if json then print_json (to_json r) else Format.printf "%a@." pp r;
  match gate r with
  | [] -> ()
  | failures ->
    List.iter (Printf.eprintf "%s: GATE: %s\n" cmd) failures;
    exit 1

let longrun protocol profile nclients updates chunk seed faults gc
    assert_flat max_meta json =
  let module L = Rlist_run.Longrun in
  let gate (r : L.result) =
    let failures = ref [] in
    let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
    if not r.l_converged then fail "run did not converge";
    (match max_meta with
    | Some bound when r.l_meta_peak > bound ->
      fail "metadata peak %d exceeds --max-meta %d" r.l_meta_peak bound
    | _ -> ());
    if assert_flat && r.l_flat_meta > 2.0 then
      fail "metadata is not flat: late/early ratio %.2f > 2.0" r.l_flat_meta;
    List.rev !failures
  in
  run_gated ~cmd:"longrun" ~protocol ~nclients ~updates ~chunk
    ~run:(fun () ->
      L.run ?gc ~faults ~now:Unix.gettimeofday ~protocol ~profile ~nclients
        ~updates ~chunk ~seed ())
    ~to_json:L.result_to_json ~pp:L.pp ~gate json

let longrun_cmd =
  let updates_arg =
    Arg.(value & opt int 1_000_000
         & info [ "u"; "updates" ] ~docv:"K"
             ~doc:"Total update operations over the whole horizon.")
  in
  let chunk_arg =
    Arg.(value & opt int 10_000
         & info [ "chunk" ] ~docv:"K"
             ~doc:
               "Updates per sampled chunk (the engine quiesces between \
                chunks).")
  in
  let faults_arg =
    Arg.(value & opt faults_conv Rlist_net.Faults.none
         & info [ "faults" ] ~absent:"none" ~docv:"SPEC"
             ~doc:"Fault model for the wire (as in $(b,soak)); default none.")
  in
  let assert_flat_arg =
    Arg.(value & flag
         & info [ "assert-flat" ]
             ~doc:
               "Exit non-zero unless live metadata stays flat (mean over \
                the last quarter of chunks at most 2x the first quarter) — \
                the CI gate for GC-on runs.")
  in
  let max_meta_arg =
    Arg.(value & opt (some int) None
         & info [ "max-meta" ] ~docv:"NODES"
             ~doc:"Exit non-zero if peak live metadata ever exceeds NODES.")
  in
  Cmd.v
    (Cmd.info "longrun"
       ~doc:
         "Soak one client/server protocol through a very long horizon \
          (default one million updates) in sampled chunks, reporting \
          metadata, heap, and per-op latency curves plus a final-document \
          digest.  With $(b,--gc) the continuous compaction keeps the \
          curves flat; without it they grow with the horizon — the \
          digest is identical either way (compaction is semantically \
          transparent).")
    Term.(const longrun $ soak_protocol_arg $ profile_arg $ clients_arg
          $ updates_arg $ chunk_arg $ seed_arg $ faults_arg $ gc_arg
          $ assert_flat_arg $ max_meta_arg $ json_arg)

(* --- shard-smoke ------------------------------------------------------- *)

(* Two documents, two domains (lib/run/shard_smoke): the dynamic
   witness behind the escape pass's shard_ready verdict.  Exits
   non-zero when the two-domain digests differ from the single-domain
   reference run. *)

let shard_smoke protocol profile nclients updates chunk seed gc json =
  let module S = Rlist_run.Shard_smoke in
  run_gated ~cmd:"shard-smoke" ~protocol ~nclients ~updates ~chunk
    ~run:(fun () ->
      S.run ?gc ~now:Unix.gettimeofday ~protocol ~profile ~nclients ~updates
        ~chunk ~seed ())
    ~to_json:S.result_to_json
    ~pp:(fun ppf r -> Format.fprintf ppf "@[<v>%a@]" S.pp r)
    ~gate:(fun r ->
      if r.S.s_equal then []
      else [ "two-domain digests differ from the single-domain run" ])
    json

let shard_smoke_cmd =
  let updates_arg =
    Arg.(value & opt int 50_000
         & info [ "u"; "updates" ] ~docv:"K"
             ~doc:"Update operations per document.")
  in
  let chunk_arg =
    Arg.(value & opt int 5_000
         & info [ "chunk" ] ~docv:"K" ~doc:"Updates per sampled chunk.")
  in
  Cmd.v
    (Cmd.info "shard-smoke"
       ~doc:
         "Run two independent documents through the soak workload, once \
          sequentially and once pinned to one Domain each, and require \
          bit-identical digests — the dynamic witness that every \
          engine-reachable mutable allocation really is instance-confined \
          (the lint's shard_ready gate, DESIGN.md sec. 15).  Exits \
          non-zero on a digest mismatch.")
    Term.(const shard_smoke $ soak_protocol_arg $ profile_arg $ clients_arg
          $ updates_arg $ chunk_arg $ seed_arg $ gc_arg $ json_arg)

(* --- check (bounded model checking) ----------------------------------- *)

(* Uniform per-workload result shape shared by the client/server and
   peer-to-peer checkers, for text and JSON rendering. *)
type mc_result = {
  r_workload : string;
  r_updates : int;
  r_states : int;
  r_terminals : int;
  r_pruned_state : int;
  r_pruned_sleep : int;
  r_truncated : bool;
  r_elapsed : float;
  r_violations : (string * int * string) list;
      (** spec, witness length, rendered witness *)
}

(* Explore each workload with [check], timing it and rendering its
   witnesses with [pp_violation]. *)
let mc_run ~check ~pp_violation workloads =
  List.map
    (fun (workload : Rlist_mc.Workload.t) ->
      let t0 = Unix.gettimeofday () in
      let outcome = check workload in
      let elapsed = Unix.gettimeofday () -. t0 in
      let stats = outcome.Rlist_mc.Mc.stats in
      {
        r_workload = workload.Rlist_mc.Workload.wname;
        r_updates = Rlist_mc.Workload.total_updates workload;
        r_states = stats.Rlist_mc.Explore.states;
        r_terminals = stats.Rlist_mc.Explore.terminals;
        r_pruned_state = stats.Rlist_mc.Explore.pruned_state;
        r_pruned_sleep = stats.Rlist_mc.Explore.pruned_sleep;
        r_truncated = stats.Rlist_mc.Explore.truncated;
        r_elapsed = elapsed;
        r_violations =
          List.map
            (fun (v : _ Rlist_mc.Explore.violation) ->
              ( v.Rlist_mc.Explore.v_spec,
                List.length v.Rlist_mc.Explore.v_schedule,
                Format.asprintf "%a" pp_violation v ))
            outcome.Rlist_mc.Mc.violations;
      })
    workloads

let mc_check protocol nclients ops specs equiv_partner gc por max_states
    batching expect_violation json =
  if nclients < 2 || nclients > 8 then
    usage_error "check"
      (Printf.sprintf "--clients %d is out of range (2-8)" nclients);
  if ops < 1 then
    usage_error "check" (Printf.sprintf "--ops %d must be at least 1" ops);
  let specs =
    match specs with
    | [] -> Rlist_mc.Mc.all_specs
    | specs -> specs
  in
  let equiv =
    match Option.map lookup equiv_partner with
    | None -> None
    | Some (Protocols.Star p) ->
      Some ("equiv", Rlist_mc.Mc.behavior_of ~batching p)
    | Some (Protocols.Mesh _) ->
      prerr_endline "check: --equiv partner must be a client/server protocol";
      exit 1
  in
  let catalog = Rlist_mc.Workload.catalog ~nclients ~ops in
  let results =
    match lookup protocol with
    | Protocols.Star (module P) ->
      let module M = Rlist_mc.Mc.Cs (P) in
      (* With GC on, also enumerate the compaction-vs-delivery race:
         the workload whose interleavings fire a cycle between an
         update's generation and its delivery (client/server engines
         only; the p2p cycles are shim-level and raceless). *)
      let race =
        if Option.is_some gc then [ Rlist_mc.Workload.compaction_race ] else []
      in
      mc_run (catalog () @ race) ~pp_violation:M.pp_violation
        ~check:(fun workload ->
          M.check ?equiv ?gc ~por ~max_states ~batching ~specs ~workload ())
    | Protocols.Mesh (module P) ->
      if Option.is_some equiv then begin
        prerr_endline
          "check: --equiv is not supported for peer-to-peer protocols";
        exit 1
      end;
      let module M = Rlist_mc.Mc.P2p (P) in
      (* The Thm 8.1 scenario is part of the client/server catalog; on
         the broadcast engines its interleaving space is orders of
         magnitude larger, so peer-to-peer protocols check the
         combinatorial workload only. *)
      mc_run (catalog ~include_thm81:false ()) ~pp_violation:M.pp_violation
        ~check:(fun workload ->
          M.check ?gc ~por ~max_states ~batching ~specs ~workload ())
  in
  let checked_specs =
    List.map Rlist_mc.Mc.spec_name specs
    @ (match equiv with Some (name, _) -> [ name ] | None -> [])
  in
  let observed spec =
    List.exists
      (fun r ->
        List.exists (fun (s, _, _) -> String.equal s spec) r.r_violations)
      results
  in
  let truncated = List.exists (fun r -> r.r_truncated) results in
  let mismatches =
    List.filter
      (fun spec ->
        let expected = List.mem spec expect_violation in
        observed spec <> expected)
      checked_specs
  in
  if json then
    let strs l = Json.List (List.map (fun s -> Json.Str s) l) in
    let violation (spec, events, _) =
      Json.(Obj [ "spec", Str spec; "events", Int events ])
    in
    let workload r =
      Json.(
        Obj
          [ "workload", Str r.r_workload; "updates", Int r.r_updates;
            "states", Int r.r_states; "interleavings", Int r.r_terminals;
            "pruned_state", Int r.r_pruned_state;
            "pruned_sleep", Int r.r_pruned_sleep;
            "truncated", Bool r.r_truncated;
            "elapsed_s", Fixed (6, r.r_elapsed);
            "violations", List (List.map violation r.r_violations) ])
    in
    print_json
      Json.(
        Obj
          [ "workloads", List (List.map workload results);
            "expected_violations", strs expect_violation;
            "mismatches", strs mismatches;
            "pass", Bool (mismatches = [] && not truncated) ])
  else begin
    List.iter
      (fun r ->
        Printf.printf
          "%-20s %7d states, %6d interleavings, pruned %d (cache) + %d \
           (sleep)%s, %.2fs (%.0f states/s)\n"
          r.r_workload r.r_states r.r_terminals r.r_pruned_state
          r.r_pruned_sleep
          (if r.r_truncated then ", TRUNCATED" else "")
          r.r_elapsed
          (float_of_int r.r_states /. Float.max 1e-9 r.r_elapsed);
        List.iter
          (fun (spec, _, rendered) ->
            Printf.printf "  %s spec violated:\n%s\n" spec rendered)
          r.r_violations)
      results;
    List.iter
      (fun spec ->
        if List.mem spec expect_violation then
          Printf.printf
            "GATE: expected a %s violation but none was found\n" spec
        else Printf.printf "GATE: unexpected %s violation\n" spec)
      mismatches;
    if truncated then
      print_endline "GATE: state budget exhausted (raise --max-states)";
    if mismatches = [] && not truncated then
      Printf.printf "GATE: pass (%s)\n" (String.concat ", " checked_specs)
  end;
  if mismatches <> [] || truncated then exit 1

let mc_protocol_arg =
  Arg.(required
       & pos 0 (some protocol_conv) None
       & info [] ~docv:"PROTOCOL"
           ~doc:"Protocol to model-check (same names as $(b,simulate)).")

let mc_clients_arg =
  Arg.(value & opt int 2
       & info [ "clients" ] ~docv:"N"
           ~doc:"Clients in the bounded workload (2-8).")

let mc_ops_arg =
  Arg.(value & opt int 2
       & info [ "ops" ] ~docv:"K" ~doc:"Script operations per client.")

let mc_spec_arg =
  let spec_conv =
    Arg.conv
      ( (fun s ->
          match Rlist_mc.Mc.spec_of_name s with
          | Some spec -> Ok spec
          | None -> Error (`Msg (Printf.sprintf "unknown spec %S" s))),
        fun ppf s -> Format.pp_print_string ppf (Rlist_mc.Mc.spec_name s) )
  in
  Arg.(value & opt_all spec_conv []
       & info [ "spec" ] ~docv:"SPEC"
           ~doc:
             "Specification to check: convergence, weak, or strong.  \
              Repeatable; default all three.")

let mc_equiv_arg =
  Arg.(value & opt (some protocol_conv) None
       & info [ "equiv" ] ~docv:"PROTOCOL"
           ~doc:
             "Also check behavioural equivalence against this protocol on \
              every interleaving (Theorem 7.1: css vs cscw).")

let mc_no_por_arg =
  Arg.(value & flag
       & info [ "no-por" ]
           ~doc:
             "Disable partial-order reduction and state caching (naive \
              enumeration, the cross-check baseline).")

let mc_max_states_arg =
  Arg.(value & opt int 500_000
       & info [ "max-states" ] ~docv:"COUNT"
           ~doc:"State budget; exceeding it fails the gate.")

let mc_batching_arg =
  Arg.(value & flag
       & info [ "batching" ]
           ~doc:
             "Model-check the batched delivery path: the engine coalesces \
              sends per channel and delivers through the protocols' batch \
              entry points.  Partial-order reduction stays on with a \
              batching-aware (stricter) independence relation — deliveries \
              no longer commute with the sends feeding their outbox.")

let mc_expect_arg =
  Arg.(value & opt_all string []
       & info [ "expect-violation" ] ~docv:"SPEC"
           ~doc:
             "The gate passes only if this specification IS violated \
              somewhere in the catalog — mechanizing a negative theorem \
              (Thm 8.1: $(b,--expect-violation strong) for the OT \
              protocols).  Repeatable.")

let mc_cmd =
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Bounded model checking: exhaustively enumerate every delivery \
          interleaving of a small workload catalog (a combinatorial \
          N-client script plus the fixed 3-client Theorem 8.1 scenario), \
          check convergence and the weak/strong list specifications on \
          each terminal execution, and shrink any counterexample to a \
          1-minimal witness.  Partial-order reduction (sleep sets + state \
          caching) is on by default and preserves all verdicts.")
    Term.(const mc_check $ mc_protocol_arg $ mc_clients_arg $ mc_ops_arg
          $ mc_spec_arg $ mc_equiv_arg $ gc_arg
          $ Term.app (Term.const not) mc_no_por_arg
          $ mc_max_states_arg $ mc_batching_arg $ mc_expect_arg $ json_arg)

(* --- figure scenarios ---------------------------------------------------- *)

module Css = Rlist_sim.Engine.Make (Jupiter_css.Protocol)

(* The figure scenario called [name]; an unknown name exits 1, listing
   the available ones. *)
let find_scenario name =
  match Rlist_sim.Figures.find name with
  | Some scenario -> scenario
  | None ->
    Printf.eprintf "unknown scenario %S; available: %s\n" name
      (String.concat ", "
         (List.map
            (fun (s : Rlist_sim.Figures.scenario) -> s.sname)
            Rlist_sim.Figures.all));
    exit 1

(* The CSS run behind viz, stats and trace: replay [events] from
   [initial].  With [obs] attached, every replica's state-space growth
   lands in the trace too, level by level (the paper's Figure 4). *)
let css_run ?obs ?batching ?fastpath ~initial ~nclients events =
  let t = Css.create ~initial ?batching ?fastpath ~nclients () in
  Option.iter
    (fun obs ->
      Css.attach_obs t obs;
      let wire replica set =
        set (fun ~level ~states ~transitions ~ots:_ ->
            if Rlist_obs.Obs.tracing obs then
              Rlist_obs.Obs.emit obs
                (Rlist_obs.Event.State_space_grow
                   { replica; level; states; transitions }))
      in
      wire "server"
        (Jupiter_css.Protocol.server_set_space_observer (Css.server t));
      for i = 1 to nclients do
        wire
          ("c" ^ string_of_int i)
          (Jupiter_css.Protocol.client_set_space_observer (Css.client t i))
      done)
    obs;
  Css.run t events;
  t

let server_space t = Jupiter_css.Protocol.server_space (Css.server t)

(* --- viz ------------------------------------------------------------- *)

let viz name emit_dot =
  let scenario = find_scenario name in
  let initial = scenario.initial in
  let space =
    server_space
      (css_run ~initial ~nclients:scenario.nclients scenario.schedule)
  in
  Printf.printf "%s: %s\n\n" scenario.sname scenario.description;
  print_string (Jupiter_css.Render.to_ascii space ~initial);
  if emit_dot then begin
    let path = scenario.sname ^ ".dot" in
    match open_out path with
    | oc ->
      output_string oc
        (Jupiter_css.Render.to_dot space ~initial ~name:scenario.sname);
      close_out oc;
      Printf.printf "\nwrote %s\n" path
    | exception Sys_error msg ->
      Printf.eprintf "cannot write %s: %s\n" path msg;
      exit 1
  end

let viz_cmd =
  let name_arg =
    Arg.(value & pos 0 string "figure7"
         & info [] ~docv:"SCENARIO" ~doc:"Figure scenario name.")
  in
  let dot_arg =
    Arg.(value & flag & info [ "dot" ] ~doc:"Also write a Graphviz .dot file.")
  in
  Cmd.v
    (Cmd.info "viz"
       ~doc:"Render the CSS n-ary ordered state-space of a figure scenario.")
    Term.(const viz $ name_arg $ dot_arg)

(* --- record / replay --------------------------------------------------- *)

let record profile nclients updates seed path =
  check_args "record" (fun () ->
      Recorded.check { (Recorded.default ~protocol:"css") with nclients });
  let t = Css.create ~nclients () in
  let rng = Random.State.make [| seed |] in
  let intent =
    Rlist_workload.Workload.intent_generator profile ~nclients ~rng
  in
  let params = Rlist_workload.Workload.params profile ~updates in
  let schedule = Css.run_random ~intent t ~rng ~params in
  (try Rlist_sim.Schedule_text.save ~path ~nclients schedule
   with Sys_error msg ->
     Printf.eprintf "cannot write %s: %s\n" path msg;
     exit 1);
  Printf.printf "recorded %d events to %s (generated under the css protocol)\n"
    (List.length schedule) path

let record_cmd =
  let path_arg =
    Arg.(value & opt string "session.sched"
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output schedule file.")
  in
  Cmd.v
    (Cmd.info "record"
       ~doc:
         "Run a random session under the CSS protocol and save the concrete \
          schedule for later replay.")
    Term.(const record $ profile_arg $ clients_arg $ updates_arg $ seed_arg
          $ path_arg)

(* Deterministic replay of a flight recording: re-execute the run
   from the spec stored in the header (runs are seed-deterministic;
   the decision ring is the witness, not the driver) and check the
   fresh outcome digest and decision stream against the recording. *)

let do_shrink ~json (recording : Rlist_obs.Recorder.recording)
    (spec : Recorded.spec) path =
  (* Under --json, stdout holds only the verdict object. *)
  let progress = if json then stderr else stdout in
  let aborted =
    List.assoc_opt "aborted" recording.Rlist_obs.Recorder.digest
  in
  match Recorded.schedule_of_recording recording with
  | Error msg ->
    Printf.eprintf "shrink: %s\n" msg;
    exit 1
  | Ok schedule ->
    let still_fails events =
      match Rlist_sim.Schedule.validate ~nclients:spec.Recorded.nclients
              events with
      | Error _ -> false
      | Ok () -> (
        match
          replay_one spec.Recorded.protocol ~initial:Document.empty
            ~nclients:spec.Recorded.nclients events,
          aborted
        with
        | outcome, None -> not (Recorded.passed outcome)
        | _, Some _ -> false
        | exception Invalid_argument msg ->
          (* For an abort witness, a subset counts as failing only
             when it dies with the identical diagnostic — removing
             context changes positions and op ids, and a different
             crash is a different bug.  Engine-level errors mean the
             subset is not even a feasible schedule. *)
          (match aborted with
          | Some original -> String.equal msg original
          | None -> not (String.starts_with ~prefix:"Engine" msg)))
    in
    if not (still_fails schedule) then
      Printf.fprintf progress
        "shrink: the failure does not reproduce on perfect channels \
         (network-timing dependent); nothing to minimize\n"
    else begin
      let minimized = Rlist_mc.Witness.shrink ~still_fails schedule in
      let out = path ^ ".min.sched" in
      (try
         Rlist_sim.Schedule_text.save ~path:out
           ~nclients:spec.Recorded.nclients minimized
       with Sys_error msg ->
         Printf.eprintf "cannot write %s: %s\n" out msg;
         exit 1);
      Printf.fprintf progress "shrink: %d events -> %d minimal; wrote %s\n"
        (List.length schedule) (List.length minimized) out
    end

let pp_verdict path (v : Recorded.verdict) =
  let spec = v.Recorded.v_spec in
  Printf.printf "recording:   %s\n" path;
  Printf.printf "protocol:    %s  profile: %s  clients: %d  updates: %d  \
                 seed: %d\n"
    spec.Recorded.protocol
    (Rlist_workload.Workload.profile_name spec.Recorded.profile)
    spec.Recorded.nclients spec.Recorded.updates spec.Recorded.seed;
  Printf.printf "faults:      %s  shim: %b  rto: %d  batch: %b  \
                 fastpath: %b  gc: %s\n"
    (Rlist_net.Faults.to_string spec.Recorded.faults)
    spec.Recorded.shim spec.Recorded.rto spec.Recorded.batching
    spec.Recorded.fastpath
    (match spec.Recorded.gc with
    | None -> "off"
    | Some p -> Rlist_gc.to_string p);
  Printf.printf "decisions:   %d recorded, %d replayed\n"
    v.Recorded.v_total_expected v.Recorded.v_total_got;
  (match v.Recorded.v_mismatches with
  | [] -> Printf.printf "digest:      all keys match\n"
  | ms ->
    Printf.printf "digest:      %d mismatch(es)\n" (List.length ms);
    List.iteri
      (fun i (k, expected, got) ->
        if i < 8 then
          Printf.printf "  %-24s expected %s, got %s\n" k expected got)
      ms);
  (match v.Recorded.v_divergence with
  | None -> ()
  | Some (i, expected, got) ->
    Printf.printf "divergence:  decision %d: expected %S, got %S\n" i
      expected got);
  if v.Recorded.v_ok then
    Printf.printf "replay:      deterministic (bit-identical)\n"
  else Printf.printf "replay:      DIVERGED\n"

let verdict_json path (v : Recorded.verdict) =
  let open Json in
  let spec = v.Recorded.v_spec in
  let mismatch (k, expected, got) =
    Obj [ "key", Str k; "expected", Str expected; "got", Str got ]
  in
  let divergence (i, expected, got) =
    Obj [ "index", Int i; "expected", Str expected; "got", Str got ]
  in
  Obj
    [ "recording", Str path; "protocol", Str spec.Recorded.protocol;
      "seed", Int spec.Recorded.seed;
      "decisions_recorded", Int v.Recorded.v_total_expected;
      "decisions_replayed", Int v.Recorded.v_total_got;
      "mismatches", List (List.map mismatch v.Recorded.v_mismatches);
      "divergence", opt divergence v.Recorded.v_divergence;
      "ok", Bool v.Recorded.v_ok ]

(* Load a recording and the spec its header names for subcommand
   [cmd], which prefixes the error a bad file exits with. *)
let load_recording ~cmd path =
  let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 1) fmt in
  match Rlist_obs.Recorder.load path with
  | exception Rlist_obs.Recorder.Corrupt msg -> fail "%s: %s: %s" cmd path msg
  | exception Sys_error msg -> fail "%s: %s" cmd msg
  | recording -> (
    match Recorded.spec_of_header recording.Rlist_obs.Recorder.header with
    | Ok spec -> recording, spec
    | Error msg -> fail "%s: %s" cmd msg)

let replay_recording path trace_out json shrink =
  (* The header is checked before --trace creates its file. *)
  let recording, spec = load_recording ~cmd:"replay" path in
  let oc =
    match trace_out with
    | None -> None
    | Some tp -> (
      try Some (open_out tp)
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" tp msg;
        exit 1)
  in
  let obs =
    Option.map (fun oc -> Rlist_obs.Obs.make ~sink:(Rlist_obs.Sink.channel oc) ()) oc
  in
  let result =
    try Ok (Recorded.verify ?obs spec recording)
    with Invalid_argument msg -> Error msg
  in
  Option.iter close_out oc;
  match result with
  | Error msg ->
    (* The original run aborted too iff the stored digest says so with
       the same message — that is this path's bit-identical verdict. *)
    let reproduced =
      match List.assoc_opt "aborted" recording.Rlist_obs.Recorder.digest with
      | Some original -> String.equal original msg
      | None -> false
    in
    if json then
      print_json
        (Json.Obj
           [ "recording", Str path; "protocol", Str spec.Recorded.protocol;
             "seed", Int spec.Recorded.seed; "aborted", Str msg;
             "ok", Bool reproduced ])
    else if reproduced then
      Printf.printf "replay:      reproduced the recorded abort: %s\n" msg
    else Printf.printf "replay:      DIVERGED (fresh abort: %s)\n" msg;
    if not reproduced then exit 1;
    if shrink then do_shrink ~json recording spec path
  | Ok v ->
    if json then print_json (verdict_json path v) else pp_verdict path v;
    if shrink then do_shrink ~json recording spec path;
    if not v.Recorded.v_ok then exit 1

let replay protocol path trace_out json shrink =
  if Rlist_obs.Recorder.is_recording path then
    replay_recording path trace_out json shrink
  else begin
    if Option.is_some trace_out || shrink || json then begin
      Printf.eprintf
        "replay: --trace/--shrink/--json apply to flight recordings (.jfr), \
         not schedule files\n";
      exit 1
    end;
    match Rlist_sim.Schedule_text.load ~path with
    | Error msg ->
      Printf.eprintf "cannot load %s: %s\n" path msg;
      exit 1
    | Ok file ->
      (match
         replay_one protocol ~initial:file.initial ~nclients:file.nclients
           file.events
       with
      | outcome -> Format.printf "%a@." Recorded.pp_outcome outcome
      | exception Invalid_argument msg ->
        (* Replaying a Jupiter schedule on a non-equivalent protocol can
           go out of bounds; report rather than crash. *)
        Printf.printf "replay aborted: %s\n" msg;
        exit 1)
  end

let replay_cmd =
  let path_arg =
    Arg.(value & pos 0 string "session.sched"
         & info [] ~docv:"FILE"
             ~doc:
               "Schedule file, or a flight recording (.jfr) dumped by \
                $(b,soak)/$(b,fuzz).")
  in
  let trace_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:
               "While re-executing a recording, write the full JSONL event \
                trace to FILE.")
  in
  let shrink_arg =
    Arg.(value & flag
         & info [ "shrink" ]
             ~doc:
               "After replaying a failing recording, extract its engine \
                schedule and ddmin-shrink it to a 1-minimal failing \
                schedule (written next to the recording).")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:
         "Replay a recorded schedule under a protocol, or re-execute a \
          flight recording bit-identically and verify the outcome digest \
          and decision stream against it.  Exits non-zero when the replay \
          diverges.")
    Term.(const replay $ protocol_arg $ path_arg $ trace_arg $ json_arg
          $ shrink_arg)

(* --- report ------------------------------------------------------------ *)

(* Offline trace analysis: stitch per-op causal spans out of a JSONL
   trace (or out of a recording, by re-executing it with the tracer
   on) and report convergence lag, staleness, transform attribution,
   and the wire timeline. *)

let events_of_jsonl path =
  let ic =
    try open_in path
    with Sys_error msg ->
      Printf.eprintf "report: %s\n" msg;
      exit 1
  in
  let events = ref [] in
  (try
     while true do
       match Rlist_obs.Event.of_jsonl (input_line ic) with
       | Some (_, e) -> events := e :: !events
       | None -> ()
     done
   with End_of_file -> close_in ic);
  List.rev !events

let report path json =
  let events =
    if Rlist_obs.Recorder.is_recording path then begin
      let recording, spec = load_recording ~cmd:"report" path in
      let sink = Rlist_obs.Sink.memory () in
      let obs = Rlist_obs.Obs.make ~sink () in
      match Recorded.verify ~obs spec recording with
      | exception Invalid_argument msg ->
        Printf.eprintf "report: the recorded run aborts (%s); no trace\n"
          msg;
        exit 1
      | v ->
        if not v.Recorded.v_ok then
          Printf.eprintf
            "report: warning: replay diverged from the recording; the \
             report reflects the fresh run\n";
        Rlist_obs.Sink.events sink
    end
    else events_of_jsonl path
  in
  if events = [] then begin
    Printf.eprintf "report: no events in %s\n" path;
    exit 1
  end;
  let summary = Rlist_obs.Spans.summarize events in
  if json then print_json (Rlist_obs.Spans.summary_to_json summary)
  else Format.printf "%a@." Rlist_obs.Spans.pp_summary summary

let report_cmd =
  let path_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE"
             ~doc:
               "A JSONL trace (from $(b,trace) or $(b,replay --trace)) or \
                a flight recording (.jfr).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Analyze a trace offline: per-op convergence-lag percentiles, \
          per-replica staleness, transform-cost attribution, send/\
          retransmission amplification, and a wire-fault timeline, as \
          text or JSON.")
    Term.(const report $ path_arg $ json_arg)

(* --- stats ------------------------------------------------------------ *)

let stats_json ~source (st : Jupiter_css.Analysis.stats) ~lemmas ~fp =
  let open Json in
  let width (l, w) = List [ Int l; Int w ] in
  Obj
    [ "source", Str source; "states", Int st.states;
      "transitions", Int st.transitions; "depth", Int st.depth;
      "max_branching", Int st.max_branching; "nop_forms", Int st.nop_forms;
      "width_per_level", List (List.map width st.width_per_level);
      "lemmas_ok", Bool lemmas;
      ( "fastpath",
        Obj
          [ "enabled", Bool fp.Rlist_ot.Fastpath.enabled;
            "context_hits", Int fp.context_hits;
            "append_hits", Int fp.append_hits;
            "generic_squares", Int fp.generic_squares ] ) ]

let stats name schedule_file json =
  let source, initial, nclients, events =
    match schedule_file with
    | Some path -> (
      match Rlist_sim.Schedule_text.load ~path with
      | Error msg ->
        Printf.eprintf "cannot load %s: %s\n" path msg;
        exit 1
      | Ok file -> path, file.initial, file.nclients, file.events)
    | None ->
      let scenario = find_scenario name in
      scenario.sname, scenario.initial, scenario.nclients, scenario.schedule
  in
  let fp = Rlist_ot.Fastpath.create () in
  let space =
    server_space (css_run ~fastpath:fp ~initial ~nclients events)
  in
  let st = Jupiter_css.Analysis.stats space in
  let lemmas = Jupiter_css.Analysis.check_all space ~nclients ~initial in
  if json then
    print_json (stats_json ~source st ~lemmas:(Result.is_ok lemmas) ~fp)
  else begin
    Format.printf "%a@." Jupiter_css.Analysis.pp_stats st;
    match lemmas with
    | Ok () ->
      print_endline "structural lemmas (6.1/6.3/8.4/8.5/8.7): all hold"
    | Error e -> Printf.printf "structural lemma violated: %s\n" e
  end;
  if Result.is_error lemmas then exit 1

let stats_cmd =
  let name_arg =
    Arg.(value & pos 0 string "figure7"
         & info [] ~docv:"SCENARIO" ~doc:"Figure scenario name.")
  in
  let file_arg =
    Arg.(value & opt (some string) None
         & info [ "schedule" ] ~docv:"FILE"
             ~doc:"Analyze a recorded schedule file instead of a figure.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Structural statistics and lemma checks of the CSS state-space \
          built by a figure scenario or a recorded schedule.  Exits \
          non-zero if a structural lemma fails.")
    Term.(const stats $ name_arg $ file_arg $ json_arg)

(* --- trace ------------------------------------------------------------ *)

(* Replay a figure scenario with the observability layer attached and
   the JSONL sink pointed at the output; under css the trace also shows
   the state space growing (see [css_run]).  A peer-to-peer protocol is
   refused before the output file is opened. *)
let trace name protocol batching fastpath out_file json =
  let scenario = find_scenario name in
  (match lookup protocol with
  | Protocols.Star _ -> ()
  | Protocols.Mesh _ ->
    prerr_endline
      "trace: figure schedules are client/server shaped; peer-to-peer \
       protocols cannot replay them";
    exit 1);
  let oc, close =
    match out_file with
    | None -> stdout, fun () -> flush stdout
    | Some path -> (
      try
        let oc = open_out path in
        oc, fun () -> close_out oc
      with Sys_error msg ->
        Printf.eprintf "cannot open %s: %s\n" path msg;
        exit 1)
  in
  let obs = Rlist_obs.Obs.make ~sink:(Rlist_obs.Sink.channel oc) () in
  let fp = Rlist_ot.Fastpath.create ~enabled:fastpath () in
  let initial = scenario.initial and nclients = scenario.nclients in
  let converged, ots, metadata, space =
    if String.equal protocol "css" then
      let t =
        css_run ~obs ~batching ~fastpath:fp ~initial ~nclients
          scenario.schedule
      in
      let st = Jupiter_css.Analysis.stats (server_space t) in
      ( Css.converged t, Css.total_ot_count t, Css.total_metadata_size t,
        Json.
          [ "space_states", Int st.states;
            "space_transitions", Int st.transitions;
            "space_depth", Int st.depth ] )
    else
      let o =
        replay_one ~obs ~batching ~fastpath:fp protocol ~initial ~nclients
          scenario.schedule
      in
      o.Recorded.o_converged, o.o_ots, o.o_metadata, []
  in
  List.iter
    (fun (name, v) ->
      Rlist_obs.Metrics.add (Rlist_obs.Metrics.counter obs.metrics name) v)
    (Rlist_ot.Fastpath.fields fp);
  if json then
    Json.(
      Obj
        ([ "type", Str "summary"; "scenario", Str scenario.sname;
           "converged", Bool converged; "total_transforms", Int ots;
           "total_metadata", Int metadata ]
        @ space
        @ [ "metrics", Rlist_obs.Metrics.to_json obs.metrics ])
      |> to_string |> Printf.fprintf oc "%s\n")
  else Format.eprintf "%a@." Rlist_obs.Obs.report obs;
  close ();
  if not converged then exit 1

let trace_cmd =
  let name_arg =
    Arg.(value & pos 0 string "figure2"
         & info [] ~docv:"SCENARIO" ~doc:"Figure scenario name.")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE"
             ~doc:"Write the JSONL trace to FILE instead of stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Replay a figure scenario with metrics and structured tracing \
          enabled; emits one JSON object per generate/send/deliver/apply \
          event (and per state-space growth step under css).  With \
          $(b,--json), a final summary object carries the aggregated \
          counters; otherwise a human-readable metrics report goes to \
          stderr.")
    Term.(const trace $ name_arg $ protocol_arg $ batch_arg $ fastpath_arg
          $ out_arg $ json_arg)

(* --- figures ---------------------------------------------------------- *)

let figures () =
  List.iter
    (fun (scenario : Rlist_sim.Figures.scenario) ->
      let protocol = if scenario.sname = "figure8" then "naive" else "css" in
      let o =
        replay_one protocol ~initial:scenario.initial
          ~nclients:scenario.nclients scenario.schedule
      in
      let show r = if Rlist_spec.Check.is_satisfied r then "yes" else "NO" in
      Printf.printf "%-8s [%-5s] converged=%-5b final=%-10S conv=%-3s weak=%-3s strong=%-3s\n"
        scenario.sname protocol o.o_converged (snd (List.hd o.o_finals))
        (show o.o_convergence) (show o.o_weak) (show o.o_strong))
    Rlist_sim.Figures.all

let figures_cmd =
  Cmd.v
    (Cmd.info "figures"
       ~doc:"Replay every paper figure and print a verdict summary.")
    Term.(const figures $ const ())

let () =
  let info =
    Cmd.info "jupiter-sim" ~version:"1.0.0"
      ~doc:
        "Simulate and check replicated-list protocols (CSS/CSCW Jupiter, \
         RGA, and a broken OT foil)."
  in
  exit (Cmd.eval (Cmd.group info [ simulate_cmd; mc_cmd; fuzz_cmd; soak_cmd;
            longrun_cmd; shard_smoke_cmd; viz_cmd; figures_cmd; record_cmd;
            replay_cmd;
            report_cmd; stats_cmd; trace_cmd ]))
