(* Project lint CLI — a thin front end over the [Rlist_lint] analyzer
   (lib/lint).  The analysis itself (rules, scopes, [[@lint.allow]]
   suppressions, the typed interprocedural passes) lives in the
   library; this file only parses arguments, renders the report, and
   turns finding families into exit-code bits:

     bit 1   hygiene            (poly-eq/poly-cmp/poly-hash/obj-magic/
                                 sys-time/parse-error/unused-allow)
     bit 2   determinism        (rand-global/hashtbl-iter/wall-clock/
                                 float-format/print-direct/det-reach)
     bit 4   exception safety   (exn-partial)
     bit 8   interface          (missing-mli)
     bit 16  domain safety      (module-mutable)

   Exit 0 is clean, 64 is a usage error.  `--list-rules` documents the
   registry; `--rules a,b` restricts a run; `--baseline f` accepts the
   findings recorded in [f] (one `path:rule` per line; a malformed line
   is a usage error) and reports each entry that matches none as
   `unused-allow`; `--json` emits the machine-readable report for CI
   artifacts.

   The typed layer (`--typed`) loads the [.cmt] artifacts dune saved
   under `--cmt-root` (default: `_build/default` when it exists),
   keeps the units whose sources lie under the given roots, and runs
   the determinism-reachability and domain-safety passes on top of the
   Parsetree pass; findings double-reported by both layers are deduped
   in favor of the typed one (which carries the witness chain).
   `--callgraph dot|json FILE`, `--domain-report FILE` and
   `--escape-report FILE` write the CI artifacts; `--entry PAT`
   (repeatable) overrides the entry-point patterns. *)

open Rlist_lint
module Json = Rlist_obs.Json

let default_roots = [ "lib"; "bin"; "test"; "bench"; "examples" ]

let usage () =
  prerr_endline
    "usage: rlist_lint [--json] [--rules r1,r2] [--baseline FILE] \
     [--list-rules]\n\
    \                  [--typed] [--cmt-root DIR] [--entry PAT]\n\
    \                  [--callgraph dot|json FILE] [--domain-report FILE]\n\
    \                  [--escape-report FILE] [roots...]";
  exit 64

let list_rules () =
  List.iter
    (fun (r : Rules.t) ->
      Printf.printf "%-14s %-16s %s%s\n" r.name
        (Rules.family_name r.family)
        (if r.typed then "[typed] " else "")
        r.summary)
    Rules.all;
  exit 0

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let write_json path v = write_file path (Json.to_string v)

let () =
  let json = ref false in
  let rules = ref None in
  let baseline = ref None in
  let typed = ref false in
  let cmt_root = ref None in
  let entry_pats = ref [] in
  let callgraph_out = ref None in
  let domain_out = ref None in
  let escape_out = ref None in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--list-rules" :: _ -> list_rules ()
    | "--typed" :: rest ->
      typed := true;
      parse rest
    | "--cmt-root" :: dir :: rest ->
      cmt_root := Some dir;
      parse rest
    | "--entry" :: pat :: rest ->
      entry_pats := pat :: !entry_pats;
      parse rest
    | "--callgraph" :: fmt :: file :: rest
      when String.equal fmt "dot" || String.equal fmt "json" ->
      callgraph_out := Some (fmt, file);
      parse rest
    | "--domain-report" :: file :: rest ->
      domain_out := Some file;
      parse rest
    | "--escape-report" :: file :: rest ->
      escape_out := Some file;
      parse rest
    | "--rules" :: spec :: rest ->
      let names =
        String.split_on_char ',' spec
        |> List.map String.trim
        |> List.filter (fun s -> not (String.equal s ""))
      in
      List.iter
        (fun n ->
          if Option.is_none (Rules.find n) then begin
            Printf.eprintf "rlist_lint: unknown rule %S (try --list-rules)\n"
              n;
            exit 64
          end)
        names;
      rules := Some names;
      parse rest
    | "--baseline" :: file :: rest ->
      (match Lint.load_baseline file with
      | Ok b -> baseline := Some b
      | Error msg ->
        Printf.eprintf "rlist_lint: baseline %s: %s\n" file msg;
        exit 64);
      parse rest
    | ("--help" | "-h") :: _
    | ( "--rules" | "--baseline" | "--cmt-root" | "--entry" | "--domain-report"
      | "--escape-report" )
      :: [] ->
      usage ()
    | "--callgraph" :: _ -> usage ()
    | arg :: _ when String.length arg > 0 && arg.[0] = '-' ->
      Printf.eprintf "rlist_lint: unknown option %s\n" arg;
      usage ()
    | root :: rest ->
      roots := root :: !roots;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = match List.rev !roots with [] -> default_roots | rs -> rs in
  List.iter
    (fun r ->
      if not (Sys.file_exists r) then begin
        Printf.eprintf "rlist_lint: no such root %S\n" r;
        exit 64
      end)
    roots;
  let findings = Lint.run ?rules:!rules roots in
  let findings =
    if not !typed then findings
    else begin
      let cmt_root =
        match !cmt_root with
        | Some d -> d
        | None -> if Sys.file_exists "_build/default" then "_build/default" else "."
      in
      let corpus = Cmt_loader.load_dir ~roots cmt_root in
      (match Cmt_loader.units corpus with
      | [] ->
        Printf.eprintf
          "rlist_lint: no .cmt artifacts under %S for roots %s; build first \
           (dune build) or pass --cmt-root\n"
          cmt_root (String.concat "," roots);
        exit 64
      | _ -> ());
      List.iter
        (fun e -> Printf.eprintf "rlist_lint: warning: %s\n" e)
        (Cmt_loader.errors corpus);
      let g = Callgraph.build corpus in
      let entries =
        match List.rev !entry_pats with
        | [] -> Typed.default_entries
        | pats -> pats
      in
      let reach = Typed.det_reach ~entries g in
      let muts = Typed.domain_scan corpus in
      let esc = Escape.analyze ~reached:reach.r_reached corpus in
      (match !callgraph_out with
      | Some ("dot", file) ->
        write_file file
          (Callgraph.dot ~entries:reach.r_entries ~reached:reach.r_reached g)
      | Some (_, file) ->
        write_json file
          (Callgraph.json ~entries:reach.r_entries ~reached:reach.r_reached g)
      | None -> ());
      (match !domain_out with
      | Some file ->
        write_json file
          (Typed.domain_report_json
             ~escaping_unsuppressed:(Escape.unsuppressed_escaping esc)
             muts)
      | None -> ());
      (match !escape_out with
      | Some file -> write_json file (Escape.report_json esc)
      | None -> ());
      let typed_findings =
        reach.r_findings @ Typed.domain_findings muts @ Escape.findings esc
      in
      let selected =
        match !rules with
        | None -> typed_findings
        | Some l ->
          List.filter (fun (f : Finding.t) -> List.mem f.rule l) typed_findings
      in
      Lint.dedupe (List.sort Finding.compare (findings @ selected))
    end
  in
  let findings =
    match !baseline with
    | None -> findings
    | Some b ->
      (* An entry is judged only when its rule ran over its file. *)
      let files = Lint.walk roots in
      let ran ~path ~rule =
        List.mem path files
        && (match !rules with None -> true | Some l -> List.mem rule l)
        && (!typed
           || match Rules.find rule with Some r -> not r.typed | None -> true)
      in
      Lint.apply_baseline ~ran b findings
  in
  if !json then print_endline (Json.to_string (Lint.report_json findings))
  else begin
    List.iter
      (fun f -> Format.printf "%a@." Finding.pp f)
      findings;
    match findings with
    | [] -> print_endline "lint: clean"
    | fs -> Printf.printf "lint: %d finding(s)\n" (List.length fs)
  end;
  exit (Lint.exit_code findings)
