(* Tests for the typed interprocedural layer (lib/lint over .cmt
   artifacts): corpus loading, call-graph construction, the
   determinism-reachability pass (including witness-chain content and
   formatting), the domain-safety inventory and its shard-readiness
   report, and the graph exports.

   The corpus is test/fixtures_typed/ — fourteen hand-written modules
   compiled with -bin-annot by a dune rule, carrying three seeded bugs
   (a 3-hop transitive Random chain, a module-level hashtable, and an
   entry point folding a Hashtbl.Make table), a clean module, a suppressed sink, and one module per escape-pass
   verdict (stack-confined, instance-confined, and the closure /
   module-binding / container-nested escapes), and two units of
   identical layout whose bindings share ident stamps. *)

open Rlist_lint

let fixture_dir = "fixtures_typed"

let corpus = lazy (Cmt_loader.load_dir fixture_dir)

let graph = lazy (Callgraph.build (Lazy.force corpus))

let contains ~needle haystack =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.equal (String.sub haystack i nn) needle || go (i + 1)
  in
  go 0

let test_loading () =
  let c = Lazy.force corpus in
  Alcotest.(check (list string))
    "all fourteen fixture units load"
    [
      "Fx_allowed"; "Fx_clean"; "Fx_entry"; "Fx_esc_closure";
      "Fx_esc_instance"; "Fx_esc_module"; "Fx_esc_nested"; "Fx_esc_stack";
      "Fx_ftable"; "Fx_leaf"; "Fx_mid"; "Fx_table"; "Fx_twin_a"; "Fx_twin_b";
    ]
    (List.map
       (fun (u : Cmt_loader.unit_info) -> u.modname)
       (Cmt_loader.units c));
  Alcotest.(check (list string)) "no load errors" [] (Cmt_loader.errors c)

let test_graph_edges () =
  let g = Lazy.force graph in
  let calls id =
    match Callgraph.find g id with
    | Some d -> d.Callgraph.d_calls
    | None -> Alcotest.failf "node %s missing from the graph" id
  in
  Alcotest.(check (list string))
    "entry calls mid across the unit boundary" [ "Fx_mid.step" ]
    (calls "Fx_entry.transform");
  Alcotest.(check (list string))
    "mid calls leaf" [ "Fx_leaf.pick" ] (calls "Fx_mid.step");
  Alcotest.(check (list string))
    "same-unit call resolves by ident, not name" [ "Fx_allowed.jitter" ]
    (calls "Fx_allowed.transform");
  (* Stamps restart in every unit: the twins' [helper]s share one
     unique name, and each caller must keep its own. *)
  Alcotest.(check (list string))
    "equal stamps in another unit do not capture a call"
    [ "Fx_twin_a.helper" ]
    (calls "Fx_twin_a.server_receive");
  Alcotest.(check (list string))
    "and the other twin keeps its own edge" [ "Fx_twin_b.helper" ]
    (calls "Fx_twin_b.server_receive")

let test_entry_matching () =
  let g = Lazy.force graph in
  Alcotest.(check (list string))
    "the default patterns pick up every fixture entry point"
    [
      "Fx_allowed.transform";
      "Fx_clean.server_receive";
      "Fx_entry.transform";
      "Fx_esc_closure.server_receive";
      "Fx_esc_instance.transform";
      "Fx_esc_module.transform";
      "Fx_esc_nested.server_receive";
      "Fx_esc_stack.server_receive";
      "Fx_ftable.server_receive_keys";
      "Fx_table.server_receive_all";
      "Fx_twin_a.server_receive";
      "Fx_twin_b.server_receive";
    ]
    (List.sort String.compare (Typed.entry_ids g Typed.default_entries));
  Alcotest.(check (list string))
    "a dotted pattern matches the display path" [ "Fx_table.remember" ]
    (Typed.entry_ids g [ "Fx_table.rem*" ])

let test_det_reach () =
  let r = Typed.det_reach (Lazy.force graph) in
  match r.r_findings with
  | [ ftable; rand; iter ] ->
    Alcotest.(check string) "rule" "det-reach" rand.Finding.rule;
    Alcotest.(check string)
      "the finding is anchored at the sink site" "fx_leaf.ml"
      rand.Finding.file;
    Alcotest.(check int) "sink line" 3 rand.Finding.line;
    Alcotest.(check (list string))
      "witness chain runs entry -> mid -> leaf -> primitive"
      [ "Fx_entry.transform"; "Fx_mid.step"; "Fx_leaf.pick"; "Random.int" ]
      rand.Finding.chain;
    Alcotest.(check string)
      "the hash-order iteration is the second seeded bug" "fx_table.ml"
      iter.Finding.file;
    Alcotest.(check (list string))
      "with its own witness chain"
      [ "Fx_table.server_receive_all"; "Hashtbl.iter" ]
      iter.Finding.chain;
    Alcotest.(check (list string))
      "a Hashtbl.Make table's fold is the same sink"
      [ "Fx_ftable.server_receive_keys"; "Tbl.fold" ]
      ftable.Finding.chain
  | fs ->
    Alcotest.failf
      "expected exactly the three seeded findings, got %d: %s" (List.length fs)
      (String.concat "; "
         (List.map (fun (f : Finding.t) -> f.file ^ ":" ^ f.rule) fs))

let test_suppressed_sink () =
  let r = Typed.det_reach (Lazy.force graph) in
  Alcotest.(check bool)
    "the [@lint.allow]ed sink in fx_allowed is exempt" false
    (List.exists
       (fun (f : Finding.t) -> String.equal f.file "fx_allowed.ml")
       r.r_findings);
  Alcotest.(check bool)
    "the clean module stays clean" false
    (List.exists
       (fun (f : Finding.t) -> String.equal f.file "fx_clean.ml")
       r.r_findings)

let test_functor_tables () =
  let g = Lazy.force graph in
  let sinks id =
    match Callgraph.find g id with
    | Some d ->
      List.map
        (fun (s : Callgraph.sink) -> s.Callgraph.s_rule, s.Callgraph.s_what)
        d.Callgraph.d_sinks
    | None -> Alcotest.failf "node %s missing from the graph" id
  in
  Alcotest.(check (list (pair string string)))
    "a module-level Hashtbl.Make table's fold is a sink"
    [ "hashtbl-iter", "Tbl.fold" ]
    (sinks "Fx_ftable.server_receive_keys");
  Alcotest.(check (list (pair string string)))
    "so is a let-module table's iter"
    [ "hashtbl-iter", "Local.iter" ]
    (sinks "Fx_ftable.local_keys")

let test_witness_formatting () =
  let r = Typed.det_reach (Lazy.force graph) in
  match r.r_findings with
  | [ _; f; _ ] ->
    let rendered = Format.asprintf "%a" Finding.pp f in
    Alcotest.(check bool)
      "pp prints the chain on a continuation line" true
      (contains
         ~needle:
           "via Fx_entry.transform -> Fx_mid.step -> Fx_leaf.pick -> \
            Random.int"
         rendered);
    Helpers.check_json_field
      (Helpers.reparse (Finding.to_json f))
      [ "chain" ]
      (List
         [
           Str "Fx_entry.transform";
           Str "Fx_mid.step";
           Str "Fx_leaf.pick";
           Str "Random.int";
         ])
  | fs -> Alcotest.failf "expected three findings, got %d" (List.length fs)

let test_untyped_json_has_no_chain () =
  let f = Finding.v ~file:"x.ml" ~line:1 ~col:1 ~rule:"poly-eq" "m" in
  Alcotest.(check (option Helpers.json))
    "single-site findings keep the old JSON shape" None
    (Rlist_obs.Json.member "chain" (Helpers.reparse (Finding.to_json f)))

let test_domain_scan () =
  let muts = Typed.domain_scan (Lazy.force corpus) in
  Alcotest.(check (list (pair string string)))
    "module-level mutables: the seeded table plus the two escape seeds"
    [
      "Fx_esc_module.buf", "Buffer.t";
      "Fx_esc_nested.registry", "Hashtbl.t";
      "Fx_table.table", "Hashtbl.t";
    ]
    (List.map (fun (m : Typed.mut_entry) -> m.Typed.m_disp, m.m_kind) muts);
  List.iter
    (fun (m : Typed.mut_entry) ->
      Alcotest.(check string)
        (m.Typed.m_disp ^ " classified shared-unsafe")
        "shared-unsafe"
        (Typed.class_name m.m_class);
      Alcotest.(check bool) "not suppressed" false m.m_suppressed)
    muts;
  Alcotest.(check (list string))
    "each is a module-mutable finding"
    [ "module-mutable"; "module-mutable"; "module-mutable" ]
    (List.map (fun (f : Finding.t) -> f.rule) (Typed.domain_findings muts))

let test_domain_report () =
  let muts = Typed.domain_scan (Lazy.force corpus) in
  let json = Helpers.reparse (Typed.domain_report_json muts) in
  let field = Helpers.check_json_field json in
  let some = Helpers.check_json_some json [ "entries" ] in
  field [ "version" ] (Int 1);
  field [ "shard_ready" ] (Bool false);
  field [ "classes"; "shared-unsafe" ] (Int 3);
  field [ "unsuppressed_shared_unsafe" ] (Int 3);
  some "name" (Str "Fx_table.table");
  some "name" (Str "Fx_esc_module.buf");
  some "kind" (Str "Hashtbl.t");
  Helpers.check_json_field
    (Helpers.reparse (Typed.domain_report_json []))
    [ "shard_ready" ] (Bool true)

let test_run_combined () =
  Alcotest.(check (list (pair string string)))
    "all three passes' findings come back merged and sorted"
    [
      "fx_esc_closure.ml", "escape";
      "fx_esc_module.ml", "module-mutable";
      "fx_esc_module.ml", "escape";
      "fx_esc_nested.ml", "module-mutable";
      "fx_esc_nested.ml", "escape";
      "fx_esc_nested.ml", "escape";
      "fx_ftable.ml", "det-reach";
      "fx_leaf.ml", "det-reach";
      "fx_table.ml", "module-mutable";
      "fx_table.ml", "escape";
      "fx_table.ml", "det-reach";
    ]
    (List.map
       (fun (f : Finding.t) -> f.file, f.rule)
       (Typed.run (Lazy.force corpus)))

let test_exports () =
  let g = Lazy.force graph in
  let r = Typed.det_reach g in
  let dot = Callgraph.dot ~entries:r.r_entries ~reached:r.r_reached g in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Printf.sprintf "dot contains %s" needle)
        true (contains ~needle dot))
    [
      "digraph callgraph";
      "\"Fx_entry.transform\" -> \"Fx_mid.step\"";
      "fillcolor=lightblue";
      "fillcolor=salmon";
    ];
  Alcotest.(check string)
    "dot ids and labels escape quotes, angle brackets and backslashes"
    "M.(init) \\\"x\\\" \\<t\\> a\\\\b"
    (Callgraph.dot_escape "M.(init) \"x\" <t> a\\b");
  let json =
    Helpers.reparse (Callgraph.json ~entries:r.r_entries ~reached:r.r_reached g)
  in
  Helpers.check_json_field json [ "version" ] (Int 1);
  Alcotest.(check bool)
    "graph json has the edge Fx_entry.transform -> Fx_mid.step" true
    (match Helpers.json_at json [ "edges" ] with
    | List edges ->
      List.mem
        (Rlist_obs.Json.List [ Str "Fx_entry.transform"; Str "Fx_mid.step" ])
        edges
    | _ -> false);
  Helpers.check_json_some json [ "nodes" ] "entry" (Bool true);
  Helpers.check_json_some json [ "nodes" ] "sinks" (Int 1)

let escape_result =
  lazy
    (let r = Typed.det_reach (Lazy.force graph) in
     Escape.analyze ~reached:r.Typed.r_reached (Lazy.force corpus))

let find_alloc ~file ~line =
  let esc = Lazy.force escape_result in
  match
    List.find_opt
      (fun (a : Escape.alloc) ->
        String.equal a.a_file file && a.a_line = line)
      esc.Escape.allocs
  with
  | Some a -> a
  | None -> Alcotest.failf "no allocation inventoried at %s:%d" file line

let check_alloc ~file ~line ~kind ~verdict ~chain () =
  let a = find_alloc ~file ~line in
  Alcotest.(check string) (file ^ " kind") kind a.Escape.a_kind;
  Alcotest.(check string)
    (file ^ " verdict") verdict
    (Escape.verdict_name a.a_verdict);
  Alcotest.(check (list string)) (file ^ " witness chain") chain a.a_chain

(* One fixture per verdict, each with its exact witness chain — the
   chain is the user-facing artifact, so its shape is pinned. *)
let test_escape_stack () =
  check_alloc ~file:"fx_esc_stack.ml" ~line:4 ~kind:"ref"
    ~verdict:"stack-confined" ~chain:[] ()

let test_escape_instance () =
  check_alloc ~file:"fx_esc_instance.ml" ~line:8 ~kind:"Hashtbl.t"
    ~verdict:"instance-confined"
    ~chain:
      [
        "Hashtbl.t allocated in Fx_esc_instance.create (fx_esc_instance.ml:8)";
        "returned from Fx_esc_instance.create";
      ]
    ()

let test_escape_closure () =
  check_alloc ~file:"fx_esc_closure.ml" ~line:4 ~kind:"ref"
    ~verdict:"escaping"
    ~chain:
      [
        "ref allocated in Fx_esc_closure.counter (fx_esc_closure.ml:4)";
        "module-level binding Fx_esc_closure.counter (fx_esc_closure.ml:3)";
      ]
    ()

let test_escape_module () =
  check_alloc ~file:"fx_esc_module.ml" ~line:3 ~kind:"Buffer.t"
    ~verdict:"escaping"
    ~chain:
      [
        "Buffer.t allocated in Fx_esc_module.buf (fx_esc_module.ml:3)";
        "module-level binding Fx_esc_module.buf (fx_esc_module.ml:3)";
      ]
    ()

let test_escape_nested () =
  (* the cell escapes *transitively*: stored one container level deep
     into the module-level registry *)
  check_alloc ~file:"fx_esc_nested.ml" ~line:6 ~kind:"ref"
    ~verdict:"escaping"
    ~chain:
      [
        "ref allocated in Fx_esc_nested.register (fx_esc_nested.ml:6)";
        "stored via Hashtbl.replace (fx_esc_nested.ml:7)";
        "module-level binding Fx_esc_nested.registry (fx_esc_nested.ml:3)";
      ]
    ();
  check_alloc ~file:"fx_esc_nested.ml" ~line:3 ~kind:"Hashtbl.t"
    ~verdict:"escaping"
    ~chain:
      [
        "Hashtbl.t allocated in Fx_esc_nested.registry (fx_esc_nested.ml:3)";
        "module-level binding Fx_esc_nested.registry (fx_esc_nested.ml:3)";
      ]
    ()

let test_escape_findings_and_report () =
  let esc = Lazy.force escape_result in
  Alcotest.(check int)
    "every reachable escaping allocation is a finding" 5
    (Escape.unsuppressed_escaping esc);
  Alcotest.(check (list string))
    "findings carry the escape rule"
    [ "escape"; "escape"; "escape"; "escape"; "escape" ]
    (List.map (fun (f : Finding.t) -> f.rule) (Escape.findings esc));
  let json = Helpers.reparse (Escape.report_json esc) in
  let field = Helpers.check_json_field json in
  field [ "version" ] (Int 1);
  field [ "classes"; "escaping" ] (Int 5);
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (cls ^ " is counted") true
        (match Helpers.json_at json [ "classes"; cls ] with
        | Int _ -> true
        | _ -> false))
    [ "stack-confined"; "instance-confined" ];
  field [ "escaping_unsuppressed" ] (Int 5);
  Helpers.check_json_some json [ "entries" ] "def"
    (Str "Fx_esc_nested.register");
  Alcotest.(check bool)
    "some entry's chain stores via Hashtbl.replace" true
    (match Helpers.json_at json [ "entries" ] with
    | List entries ->
      List.exists
        (fun e ->
          match Rlist_obs.Json.member "chain" e with
          | Some (List links) ->
            List.mem
              (Rlist_obs.Json.Str
                 "stored via Hashtbl.replace (fx_esc_nested.ml:7)")
              links
          | _ -> false)
        entries
    | _ -> false);
  let dr =
    Typed.domain_report_json
      ~escaping_unsuppressed:(Escape.unsuppressed_escaping esc)
      []
  in
  Helpers.check_json_field (Helpers.reparse dr) [ "shard_ready" ] (Bool false)

(* The repository's own engine core.  The engines are functors, whose
   instantiations the call graph does not resolve, so the shared core
   (lib/sim/mesh.ml) must stay a plain module matched by the default
   entry patterns: every one of its bindings is reached.  The lib/sim
   escape census pins what the core and the CRDT relay (its client and
   server records) allocate, and the whole library stays
   shard-ready. *)
let lib_corpus = lazy (Cmt_loader.load_dir ~roots:[ "lib" ] "..")

let test_mesh_reached () =
  let g = Callgraph.build (Lazy.force lib_corpus) in
  let r = Typed.det_reach g in
  let mesh =
    List.filter
      (fun id ->
        match Callgraph.find g id with
        | Some d -> String.equal d.Callgraph.d_file "lib/sim/mesh.ml"
        | None -> false)
      (Callgraph.order g)
  in
  Alcotest.(check bool) "the core is in the corpus" true
    (List.length mesh > 0);
  Alcotest.(check (list string))
    "every binding of the core is reached" []
    (List.filter (fun id -> not (List.mem id r.r_reached)) mesh)

let test_lib_census () =
  let corpus = Lazy.force lib_corpus in
  let r = Typed.det_reach (Callgraph.build corpus) in
  let esc = Escape.analyze ~reached:r.r_reached corpus in
  let sim =
    List.filter
      (fun (a : Escape.alloc) ->
        String.starts_with ~prefix:"lib/sim/" a.a_file)
      esc.allocs
  in
  let count v =
    List.length
      (List.filter
         (fun (a : Escape.alloc) ->
           String.equal (Escape.verdict_name a.a_verdict) v)
         sim)
  in
  Alcotest.(check (list (pair string int)))
    "lib/sim allocation census"
    [
      "stack-confined", 12;
      "instance-confined", 20;
      "escaping", 0;
    ]
    (List.map
       (fun v -> v, count v)
       [ "stack-confined"; "instance-confined"; "escaping" ]);
  Alcotest.(check int) "no unsuppressed escaping allocation" 0
    (Escape.unsuppressed_escaping esc);
  Helpers.check_json_field
    (Helpers.reparse
       (Typed.domain_report_json
          ~escaping_unsuppressed:(Escape.unsuppressed_escaping esc)
          (Typed.domain_scan corpus)))
    [ "shard_ready" ] (Bool true)

let () =
  Alcotest.run "typed-lint"
    [
      ( "corpus",
        [
          Alcotest.test_case "fixture loading" `Quick test_loading;
          Alcotest.test_case "call-graph edges" `Quick test_graph_edges;
          Alcotest.test_case "entry matching" `Quick test_entry_matching;
        ] );
      ( "determinism reachability",
        [
          Alcotest.test_case "3-hop transitive sink" `Quick test_det_reach;
          Alcotest.test_case "suppressed and clean stay quiet" `Quick
            test_suppressed_sink;
          Alcotest.test_case "Hashtbl.Make tables" `Quick test_functor_tables;
          Alcotest.test_case "witness formatting" `Quick
            test_witness_formatting;
          Alcotest.test_case "no chain on untyped findings" `Quick
            test_untyped_json_has_no_chain;
        ] );
      ( "domain safety",
        [
          Alcotest.test_case "inventory and classes" `Quick test_domain_scan;
          Alcotest.test_case "shard-readiness report" `Quick
            test_domain_report;
          Alcotest.test_case "combined run" `Quick test_run_combined;
        ] );
      ( "escape confinement",
        [
          Alcotest.test_case "stack-confined" `Quick test_escape_stack;
          Alcotest.test_case "instance-confined" `Quick test_escape_instance;
          Alcotest.test_case "closure-capture escape" `Quick
            test_escape_closure;
          Alcotest.test_case "module-binding escape" `Quick
            test_escape_module;
          Alcotest.test_case "container-nested escape" `Quick
            test_escape_nested;
          Alcotest.test_case "findings and report" `Quick
            test_escape_findings_and_report;
        ] );
      ( "exports",
        [ Alcotest.test_case "dot and json" `Quick test_exports ] );
      ( "engine core",
        [
          Alcotest.test_case "mesh fully reached" `Quick test_mesh_reached;
          Alcotest.test_case "lib census" `Quick test_lib_census;
        ] );
    ]
