(* Tests for the AST-based project analyzer (lib/lint): every rule
   fires on a minimal flagged fixture and stays quiet on a clean or
   suppressed twin; scopes follow the path the fixture pretends to
   live at; and the JSON report has the machine-readable shape CI
   consumes.

   Fixtures are inline sources handed to [Lint.check_source] with an
   invented [path] — the path is what selects the applicable rules, so
   scope behaviour is testable without touching the file system. *)

open Rlist_lint

let rules_of findings = List.map (fun f -> f.Finding.rule) findings

let check_rules name expected ?mli_exists ~path src =
  Alcotest.(check (list string))
    name expected
    (rules_of (Lint.check_source ?mli_exists ~path src))

(* --- hygiene: the ported scanner rules ------------------------------- *)

let test_poly_eq () =
  check_rules "comparison against a constructor fires" [ "poly-eq" ]
    ~path:"lib/core/fixture.ml" "let f x = x = Some 1\n";
  check_rules "<> against a polymorphic variant fires" [ "poly-eq" ]
    ~path:"lib/ot/fixture.ml" "let f x = x <> `Ready\n";
  check_rules "matching instead is clean" []
    ~path:"lib/core/fixture.ml"
    "let f x = match x with Some _ -> true | None -> false\n";
  check_rules "booleans and [] stay out" []
    ~path:"lib/core/fixture.ml" "let f x l = x = true && l = []\n";
  check_rules "outside the strict dirs the rule is off" []
    ~path:"lib/sim/fixture.ml" "let f x = x = Some 1\n";
  check_rules "constructor comparison in a string literal is not code" []
    ~path:"lib/core/fixture.ml" "let s = \"if x = Some 1 then\"\n";
  check_rules "constructor comparison in a comment is not code" []
    ~path:"lib/core/fixture.ml" "(* x = Some 1 *)\nlet f = ()\n";
  check_rules "expression-scoped suppression silences it" []
    ~path:"lib/core/fixture.ml"
    "let f x = (x = Some 1) [@lint.allow \"poly-eq\"]\n"

let test_poly_cmp () =
  check_rules "bare compare fires" [ "poly-cmp" ]
    ~path:"lib/ot/fixture.ml" "let f a b = compare a b\n";
  check_rules "a file defining its own compare is exempt" []
    ~path:"lib/ot/fixture.ml"
    "let compare a b = Int.compare a b\nlet equal a b = compare a b = 0\n";
  check_rules "String.compare is fine" []
    ~path:"lib/ot/fixture.ml" "let f a b = String.compare a b\n"

let test_poly_hash () =
  check_rules "Hashtbl.hash fires in the strict dirs" [ "poly-hash" ]
    ~path:"lib/cscw/fixture.ml" "let h x = Hashtbl.hash x\n";
  check_rules "outside the strict dirs it is allowed" []
    ~path:"lib/obs/fixture.ml" "let h x = Hashtbl.hash x\n"

let test_obj_magic_and_sys_time () =
  check_rules "Obj.magic fires everywhere" [ "obj-magic" ]
    ~path:"test/fixture.ml" "let f x = Obj.magic x\n";
  check_rules "Sys.time fires everywhere" [ "sys-time" ]
    ~path:"bench/fixture.ml" "let t () = Sys.time ()\n";
  check_rules "a comment naming Sys.time is not a call" []
    ~path:"bench/fixture.ml" "(* Sys.time measures CPU seconds *)\nlet t = 0\n"

(* --- determinism ----------------------------------------------------- *)

let test_rand_global () =
  check_rules "global Random.int fires in the deterministic core"
    [ "rand-global" ] ~path:"lib/mc/fixture.ml" "let r () = Random.int 5\n";
  check_rules "Random.self_init fires" [ "rand-global" ]
    ~path:"lib/net/fixture.ml" "let () = Random.self_init ()\n";
  check_rules "a threaded Random.State is the sanctioned form" []
    ~path:"lib/mc/fixture.ml" "let r st = Random.State.int st 5\n";
  check_rules "outside the deterministic core Random is allowed" []
    ~path:"bench/fixture.ml" "let r () = Random.int 5\n"

let test_hashtbl_iter () =
  check_rules "Hashtbl.iter fires in the deterministic core"
    [ "hashtbl-iter" ] ~path:"lib/net/fixture.ml"
    "let f t = Hashtbl.iter (fun _ _ -> ()) t\n";
  check_rules "Hashtbl.fold fires too" [ "hashtbl-iter" ]
    ~path:"lib/core/fixture.ml"
    "let f t = Hashtbl.fold (fun k _ acc -> k :: acc) t []\n";
  check_rules "a sorted collection under suppression is accepted" []
    ~path:"lib/net/fixture.ml"
    "let f t =\n\
    \  List.sort String.compare\n\
    \    ((Hashtbl.fold (fun k _ acc -> k :: acc) t [])\n\
    \    [@lint.allow \"hashtbl-iter\"])\n";
  check_rules "Hashtbl.find_opt and replace stay legal" []
    ~path:"lib/net/fixture.ml"
    "let f t k = Hashtbl.replace t k (); Hashtbl.find_opt t k\n"

(* A table built by Hashtbl.Make iterates in bucket order too. *)
let test_functor_table_iter () =
  check_rules "fold of this file's Hashtbl.Make table fires"
    [ "hashtbl-iter" ] ~path:"lib/core/fixture.ml"
    "module Table = Hashtbl.Make (K)\n\
     let f t = Table.fold (fun k _ acc -> k :: acc) t []\n";
  check_rules "so does iter of a let-module table" [ "hashtbl-iter" ]
    ~path:"lib/net/fixture.ml"
    "let f () =\n\
    \  let module T = Hashtbl.MakeSeeded (K) in\n\
    \  T.iter (fun _ _ -> ()) (T.create 8)\n";
  check_rules "find_opt on such a table stays legal" []
    ~path:"lib/core/fixture.ml"
    "module Table = Hashtbl.Make (K)\nlet f t k = Table.find_opt t k\n";
  let tables = [ [ "Op_id"; "Table" ] ] in
  let corpus src =
    rules_of (Lint.check_source ~tables ~path:"lib/core/fixture.ml" src)
  in
  Alcotest.(check (list string))
    "a corpus table's fold fires in another file" [ "hashtbl-iter" ]
    (corpus "let f t = Op_id.Table.fold (fun k _ acc -> k :: acc) t []\n");
  Alcotest.(check (list string))
    "also through a library prefix" [ "hashtbl-iter" ]
    (corpus "let f t = Rlist_model.Op_id.Table.iter (fun _ _ -> ()) t\n");
  Alcotest.(check (list string))
    "an unrelated module's fold does not" []
    (corpus "let f m = Other.Table.fold (fun _ _ acc -> acc) m 0\n");
  Alcotest.(check (list string))
    "an allow on a table fold is used, not stale" []
    (corpus
       "let f t =\n\
       \  List.sort Op_id.compare\n\
       \    ((Op_id.Table.fold (fun k _ acc -> k :: acc) t [])\n\
       \    [@lint.allow \"hashtbl-iter\"])\n")

let test_wall_clock () =
  check_rules "Unix.gettimeofday fires in replayed code" [ "wall-clock" ]
    ~path:"lib/sim/fixture.ml" "let t () = Unix.gettimeofday ()\n";
  check_rules "the obs clock seam is outside the scope" []
    ~path:"lib/obs/fixture.ml" "let t () = Unix.gettimeofday ()\n";
  check_rules "bench harness wall-clock reads are sanctioned" []
    ~path:"bench/fixture.ml" "let t () = Unix.gettimeofday ()\n"

let test_print_direct () =
  check_rules "print_endline fires in library code" [ "print-direct" ]
    ~path:"lib/sim/fixture.ml" "let f () = print_endline \"hi\"\n";
  check_rules "Printf.eprintf fires too" [ "print-direct" ]
    ~path:"lib/obs/fixture.ml"
    "let warn msg = Printf.eprintf \"warning: %s\\n\" msg\n";
  check_rules "prerr_string fires" [ "print-direct" ]
    ~path:"lib/net/fixture.ml" "let f () = prerr_string \"x\"\n";
  check_rules "Format.printf fires" [ "print-direct" ]
    ~path:"lib/core/fixture.ml" "let f () = Format.printf \"x\"\n";
  check_rules "printing to an explicit formatter is the sanctioned form" []
    ~path:"lib/sim/fixture.ml"
    "let pp ppf x = Format.fprintf ppf \"%d\" x\n";
  check_rules "Printf.sprintf builds a string, not output" []
    ~path:"lib/sim/fixture.ml" "let s x = Printf.sprintf \"%d\" x\n";
  check_rules "bin and test code may print" []
    ~path:"bin/fixture.ml" "let f () = print_endline \"hi\"\n";
  check_rules "a suppressed debug seam is accepted" []
    ~path:"lib/sim/fixture.ml"
    "let f () = (print_endline \"dbg\") [@lint.allow \"print-direct\"]\n"

let test_float_format () =
  check_rules "string_of_float fires in the deterministic core"
    [ "float-format" ] ~path:"lib/core/fixture.ml"
    "let s x = string_of_float x\n";
  check_rules "an explicit format is the sanctioned form" []
    ~path:"lib/core/fixture.ml" "let s x = Printf.sprintf \"%.17g\" x\n"

(* --- exception safety ------------------------------------------------ *)

let test_exn_partial () =
  check_rules "failwith fires in lib/ot" [ "exn-partial" ]
    ~path:"lib/ot/fixture.ml" "let f () = failwith \"no\"\n";
  check_rules "List.hd fires" [ "exn-partial" ]
    ~path:"lib/ot/fixture.ml" "let f l = List.hd l\n";
  check_rules "Option.get fires" [ "exn-partial" ]
    ~path:"lib/ot/fixture.ml" "let f o = Option.get o\n";
  check_rules "array access desugars to Array.get and fires"
    [ "exn-partial" ] ~path:"lib/ot/fixture.ml" "let f a i = a.(i)\n";
  check_rules "assert false fires" [ "exn-partial" ]
    ~path:"lib/ot/fixture.ml" "let f () = assert false\n";
  check_rules "an assert with a real condition is not assert false" []
    ~path:"lib/ot/fixture.ml" "let f x = assert (x > 0)\n";
  check_rules "the CSCW 2-D space is a transform path too" [ "exn-partial" ]
    ~path:"lib/cscw/two_d_space.ml" "let f () = failwith \"no\"\n";
  check_rules "the rest of lib/cscw is not in the exn scope" []
    ~path:"lib/cscw/protocol.ml" "let f () = failwith \"no\"\n";
  List.iter
    (fun path ->
      check_rules (path ^ " parses text and must not raise") [ "exn-partial" ]
        ~path "let f l = List.hd l\n")
    [
      "lib/obs/line_format.ml"; "lib/sim/schedule_text.ml";
      "lib/core/snapshot.ml"; "lib/obs/event.ml";
    ];
  check_rules "the rest of lib/obs is not in the exn scope" []
    ~path:"lib/obs/json.ml" "let f l = List.hd l\n";
  check_rules "binding-scoped suppression silences a guard" []
    ~path:"lib/ot/fixture.ml"
    "let f pos =\n\
    \  if pos < 0 then (invalid_arg \"f: negative\") [@lint.allow \
     \"exn-partial\"];\n\
    \  pos\n"

(* --- interface completeness ------------------------------------------ *)

let test_missing_mli () =
  check_rules "a lib module without .mli fires" [ "missing-mli" ]
    ~mli_exists:false ~path:"lib/sim/fixture.ml" "let x = 1\n";
  check_rules "with the .mli present it is clean" [] ~mli_exists:true
    ~path:"lib/sim/fixture.ml" "let x = 1\n";
  check_rules "bin modules do not need interfaces" [] ~mli_exists:false
    ~path:"bin/fixture.ml" "let x = 1\n";
  check_rules "a floating allow covers the whole file" [] ~mli_exists:false
    ~path:"lib/sim/fixture.ml"
    "[@@@lint.allow \"missing-mli\"]\nlet x = 1\n"

(* --- the suppression machinery itself -------------------------------- *)

let test_suppressions () =
  check_rules "allow lists silence several rules at once" []
    ~path:"lib/core/fixture.ml"
    "[@@@lint.allow \"poly-eq, poly-cmp\"]\n\
     let f x = x = Some 1\n\
     let g a b = compare a b\n";
  check_rules "allow \"all\" silences everything" []
    ~path:"lib/ot/fixture.ml"
    "[@@@lint.allow \"all\"]\nlet f () = failwith (string_of_float 1.0)\n";
  (* rule B's finding still fires, and the allow for A — which did no
     work here — is now itself stale *)
  check_rules "an allow for rule A does not silence rule B"
    [ "poly-eq"; "unused-allow" ] ~path:"lib/core/fixture.ml"
    "let f x = (x = Some 1) [@lint.allow \"poly-cmp\"]\n";
  check_rules "suppression is scoped, not file-wide" [ "poly-eq" ]
    ~path:"lib/core/fixture.ml"
    "let f x = (x = Some 1) [@lint.allow \"poly-eq\"]\n\
     let g x = x = Some 2\n";
  (* A malformed payload must not silence anything: the finding
     surfacing is how the author discovers the typo. *)
  check_rules "a payload-less allow suppresses nothing" [ "poly-eq" ]
    ~path:"lib/core/fixture.ml"
    "let f x = (x = Some 1) [@lint.allow]\n"

let test_unused_allow () =
  check_rules "a suppression that suppresses nothing is reported"
    [ "unused-allow" ] ~path:"lib/core/fixture.ml"
    "let f x = (x + 1) [@lint.allow \"poly-eq\"]\n";
  check_rules "a floating allow that never fires is reported"
    [ "unused-allow" ] ~path:"lib/core/fixture.ml"
    "[@@@lint.allow \"poly-cmp\"]\nlet f x = x + 1\n";
  check_rules "an allow naming a nonexistent rule is reported"
    [ "unused-allow" ] ~path:"lib/core/fixture.ml"
    "let f x = x [@@lint.allow \"poly-eqq\"]\n";
  check_rules "allows for typed rules are outside this pass's jurisdiction"
    [] ~path:"lib/core/fixture.ml"
    "let t = ref 0 [@@lint.allow \"module-mutable\"]\n";
  check_rules "an allow for a rule out of scope here is left alone" []
    ~path:"bench/fixture.ml"
    "let r () = (Random.int 5) [@lint.allow \"rand-global\"]\n";
  check_rules "a used allow is not stale" []
    ~path:"lib/core/fixture.ml"
    "let f x = (x = Some 1) [@lint.allow \"poly-eq\"]\n";
  (* staleness is only judged on full-rule runs: under --rules the
     unselected rules never got the chance to do the suppressing *)
  Alcotest.(check (list string))
    "not judged under --rules selection" []
    (rules_of
       (Lint.check_source ~rules:[ "poly-cmp" ] ~path:"lib/core/fixture.ml"
          "let f x = (x = Some 1) [@lint.allow \"poly-eq\"]\n"))

let test_rule_selection () =
  let src = "let f x = x = Some 1\nlet g a b = compare a b\n" in
  Alcotest.(check (list string))
    "only the selected rule runs" [ "poly-cmp" ]
    (rules_of
       (Lint.check_source ~rules:[ "poly-cmp" ] ~path:"lib/core/fixture.ml"
          src))

let test_parse_error () =
  check_rules "garbage reports parse-error, not silence" [ "parse-error" ]
    ~path:"lib/core/fixture.ml" "let let let\n";
  check_rules "a broken .mli reports too" [ "parse-error" ]
    ~path:"lib/core/fixture.mli" "val val\n"

let test_locations () =
  match Lint.check_source ~path:"lib/core/fixture.ml"
          "let a = 1\nlet f x =\n  x = Some a\n"
  with
  | [ f ] ->
    Alcotest.(check string) "rule" "poly-eq" f.Finding.rule;
    Alcotest.(check int) "line" 3 f.Finding.line;
    Alcotest.(check int) "col" 3 f.Finding.col
  | fs ->
    Alcotest.failf "expected exactly one finding, got %d" (List.length fs)

(* --- baseline -------------------------------------------------------- *)

(* [text] written to a temporary file and read back as a baseline. *)
let load_baseline text =
  let file = Filename.temp_file "lint_baseline" ".txt" in
  Out_channel.with_open_text file (fun oc -> output_string oc text);
  let baseline = Lint.load_baseline file in
  Sys.remove file;
  baseline

let every_rule ~path:_ ~rule:_ = true

let test_baseline () =
  let findings =
    Lint.check_source ~path:"lib/core/fixture.ml"
      "let f x = x = Some 1\nlet g a b = compare a b\n"
  in
  Alcotest.(check (list string))
    "both findings before the baseline" [ "poly-eq"; "poly-cmp" ]
    (rules_of findings);
  let baseline =
    load_baseline "# accepted findings\n\nlib/core/fixture.ml:poly-eq\n"
  in
  Alcotest.(check (list string))
    "the baselined finding is accepted" [ "poly-cmp" ]
    (rules_of
       (Lint.apply_baseline ~ran:every_rule (Helpers.ok baseline) findings))

(* A baseline entry is a suppression: one that matches no finding of
   its run comes back as [unused-allow] at its line of the baseline,
   unless its rule did not run over its file. *)
let test_baseline_stale () =
  let findings =
    Lint.check_source ~path:"lib/core/fixture.ml" "let f x = x = Some 1\n"
  in
  let baseline =
    Helpers.ok
      (load_baseline
         "# accepted\nlib/core/fixture.ml:poly-eq\n\n\
          lib/core/fixture.ml:poly-cmp\n")
  in
  let stale = Lint.apply_baseline ~ran:every_rule baseline findings in
  Alcotest.(check (list (pair string int)))
    "the stale entry, at its baseline line" [ "unused-allow", 4 ]
    (List.map (fun (f : Finding.t) -> f.rule, f.line) stale);
  Alcotest.(check (list string))
    "not judged when its rule did not run" []
    (rules_of
       (Lint.apply_baseline
          ~ran:(fun ~path:_ ~rule -> not (String.equal rule "poly-cmp"))
          baseline findings))

(* A line that is not one [path:rule] token is an error naming the
   line, not an entry silently skipped. *)
let test_baseline_malformed () =
  List.iter
    (fun (text, line) ->
      match load_baseline text with
      | Ok _ -> Alcotest.failf "accepted %S" text
      | Error msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%S names line %d" msg line)
          true
          (String.starts_with ~prefix:(Printf.sprintf "line %d:" line) msg))
    [
      "lib/core/fixture.ml poly-eq\n", 1;
      "# ok\nlib/core/fixture.ml: poly-eq\n", 2;
      "lib/core/fixture.ml\n", 1;
      "lib/core/fixture.ml:\n", 1;
      ":poly-eq\n", 1;
    ];
  Alcotest.(check bool) "a missing file is an error" true
    (Result.is_error (Lint.load_baseline "no/such/baseline.txt"))

(* --- report shape ---------------------------------------------------- *)

let test_exit_code () =
  let at path src = Lint.check_source ~path src in
  Alcotest.(check int) "clean is 0" 0 (Lint.exit_code []);
  Alcotest.(check int) "hygiene is bit 1" 1
    (Lint.exit_code (at "lib/core/f.ml" "let f x = x = Some 1\n"));
  Alcotest.(check int) "determinism is bit 2" 2
    (Lint.exit_code (at "lib/mc/f.ml" "let r () = Random.int 5\n"));
  Alcotest.(check int) "exception safety is bit 4" 4
    (Lint.exit_code (at "lib/ot/f.ml" "let f () = failwith \"no\"\n"));
  Alcotest.(check int) "interface is bit 8" 8
    (Lint.exit_code
       (Lint.check_source ~mli_exists:false ~path:"lib/sim/f.ml" "let x = 1\n"));
  Alcotest.(check int) "families OR together" 6
    (Lint.exit_code
       (at "lib/ot/f.ml" "let f t = Hashtbl.iter ignore t; failwith \"no\"\n"));
  Alcotest.(check int) "domain safety is bit 16" 16
    (Lint.exit_code
       [ Finding.v ~file:"lib/x.ml" ~line:1 ~col:1 ~rule:"module-mutable" "m" ]);
  Alcotest.(check int) "det-reach shares the determinism bit" 2
    (Lint.exit_code
       [ Finding.v ~file:"lib/x.ml" ~line:1 ~col:1 ~rule:"det-reach" "m" ])

let test_dedupe () =
  let untyped =
    Finding.v ~file:"lib/core/f.ml" ~line:3 ~col:14 ~rule:"rand-global"
      "global PRNG"
  in
  let typed =
    Finding.v
      ~chain:[ "Engine.tick"; "F.pick"; "Random.int" ]
      ~file:"lib/core/f.ml" ~line:3 ~col:14 ~rule:"det-reach"
      "reachable global PRNG"
  in
  let other =
    Finding.v ~file:"lib/core/f.ml" ~line:9 ~col:1 ~rule:"rand-global"
      "another site, no typed twin"
  in
  let kept = Lint.dedupe [ untyped; typed; other ] in
  Alcotest.(check (list string))
    "the typed finding subsumes its same-site untyped twin"
    [ "det-reach"; "rand-global" ] (rules_of kept);
  Alcotest.(check int)
    "exit bits are unchanged by the dedupe"
    (Lint.exit_code [ untyped; typed; other ])
    (Lint.exit_code kept);
  Alcotest.(check (list string))
    "unrelated rules at the same site survive"
    [ "det-reach"; "exn-partial" ]
    (rules_of
       (Lint.dedupe
          [
            typed;
            Finding.v ~file:"lib/core/f.ml" ~line:3 ~col:2 ~rule:"exn-partial"
              "partial";
          ]))

let test_json_report () =
  let findings =
    Lint.check_source ~path:"lib/core/fixture.ml"
      "let f x = x = Some 1\nlet g a b = compare a b\n"
  in
  let json = Helpers.reparse (Lint.report_json findings) in
  let field = Helpers.check_json_field json in
  let some = Helpers.check_json_some json [ "findings" ] in
  field [ "version" ] (Int 1);
  field [ "total" ] (Int 2);
  field [ "exit_code" ] (Int 1);
  field [ "by_rule" ] (Obj [ ("poly-cmp", Int 1); ("poly-eq", Int 1) ]);
  some "file" (Str "lib/core/fixture.ml");
  some "rule" (Str "poly-eq");
  some "family" (Str "hygiene");
  some "line" (Int 1);
  Alcotest.check Helpers.json "an empty report is still well-formed"
    (Obj
       [
         ("version", Int 1);
         ("total", Int 0);
         ("exit_code", Int 0);
         ("by_rule", Obj []);
         ("findings", List []);
       ])
    (Helpers.reparse (Lint.report_json []))

let test_registry () =
  Alcotest.(check bool) "every rule resolves by name" true
    (List.for_all
       (fun (r : Rules.t) ->
         match Rules.find r.Rules.name with
         | Some r' -> String.equal r'.Rules.name r.Rules.name
         | None -> false)
       Rules.all);
  Alcotest.(check bool) "scope prefixes respect component boundaries" false
    (match Rules.find "poly-eq" with
    | Some r -> Rules.applies r "lib/core_extras/x.ml"
    | None -> true);
  Alcotest.(check bool) "scope prefixes cover their subtree" true
    (match Rules.find "poly-eq" with
    | Some r -> Rules.applies r "lib/core/x.ml"
    | None -> false)

let () =
  Alcotest.run "lint"
    [
      ( "hygiene rules",
        [
          Alcotest.test_case "poly-eq" `Quick test_poly_eq;
          Alcotest.test_case "poly-cmp" `Quick test_poly_cmp;
          Alcotest.test_case "poly-hash" `Quick test_poly_hash;
          Alcotest.test_case "obj-magic / sys-time" `Quick
            test_obj_magic_and_sys_time;
        ] );
      ( "determinism rules",
        [
          Alcotest.test_case "rand-global" `Quick test_rand_global;
          Alcotest.test_case "hashtbl-iter" `Quick test_hashtbl_iter;
          Alcotest.test_case "hashtbl-iter on Hashtbl.Make tables" `Quick
            test_functor_table_iter;
          Alcotest.test_case "wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "float-format" `Quick test_float_format;
          Alcotest.test_case "print-direct" `Quick test_print_direct;
        ] );
      ( "exception safety",
        [ Alcotest.test_case "exn-partial" `Quick test_exn_partial ] );
      ( "interface completeness",
        [ Alcotest.test_case "missing-mli" `Quick test_missing_mli ] );
      ( "suppressions and selection",
        [
          Alcotest.test_case "lint.allow scoping" `Quick test_suppressions;
          Alcotest.test_case "unused-allow" `Quick test_unused_allow;
          Alcotest.test_case "--rules selection" `Quick test_rule_selection;
          Alcotest.test_case "parse errors surface" `Quick test_parse_error;
          Alcotest.test_case "locations are precise" `Quick test_locations;
          Alcotest.test_case "baseline" `Quick test_baseline;
          Alcotest.test_case "stale baseline entry" `Quick test_baseline_stale;
          Alcotest.test_case "malformed baseline line" `Quick
            test_baseline_malformed;
        ] );
      ( "report",
        [
          Alcotest.test_case "exit-code bits" `Quick test_exit_code;
          Alcotest.test_case "typed/untyped dedupe" `Quick test_dedupe;
          Alcotest.test_case "JSON shape" `Quick test_json_report;
          Alcotest.test_case "registry" `Quick test_registry;
        ] );
    ]
