(* The analysis driver.  One file at a time: parse with the compiler's
   own front end, then walk the Parsetree with an [Ast_iterator] that
   tracks [[@lint.allow]] suppression scopes and reports findings
   through a single [report] choke point (which also applies the rule
   scopes from {!Rules} and any [--rules] selection).

   Working on the AST rather than text means string literals, comments
   and shadowed names can no longer produce false positives, and
   suppressions attach to the exact syntactic node they excuse. *)

open Parsetree

let normalize path =
  if String.length path >= 2 && String.sub path 0 2 = "./" then
    String.sub path 2 (String.length path - 2)
  else path

(* "rule1 rule2" / "rule1,rule2" -> ["rule1"; "rule2"] *)
let split_names s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char ',')
  |> List.filter_map (fun s ->
       let s = String.trim s in
       if String.equal s "" then None else Some s)

(* Rule names carried by [lint.allow] attributes.  A malformed payload
   contributes nothing: the underlying finding then still fires, which
   is how the author discovers the typo. *)
let allows_of_attrs attrs =
  List.concat_map
    (fun (a : attribute) ->
      if String.equal a.attr_name.txt "lint.allow" then
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( { pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ },
                      _ );
                _;
              };
            ] ->
          split_names s
        | _ -> []
      else [])
    attrs

(* One [[@lint.allow]] occurrence, tracked so suppressions that never
   suppress anything can themselves be reported (unused-allow). *)
type allow_site = {
  a_loc : Location.t;
  a_names : string list;
  mutable a_used : string list;
}

let site_of_attrs attrs =
  match
    List.find_opt
      (fun (a : attribute) -> String.equal a.attr_name.txt "lint.allow")
      attrs
  with
  | Some a -> (
    match allows_of_attrs attrs with
    | [] -> None
    | names -> Some { a_loc = a.attr_loc; a_names = names; a_used = [] })
  | None -> None

let rec flatten = function
  | Longident.Lident s -> s
  | Longident.Ldot (l, s) -> flatten l ^ "." ^ s
  | Longident.Lapply (a, b) -> flatten a ^ "(" ^ flatten b ^ ")"

let strip_stdlib name =
  if String.starts_with ~prefix:"Stdlib." name then
    String.sub name 7 (String.length name - 7)
  else name

let file_loc path =
  let pos =
    { Lexing.pos_fname = path; pos_lnum = 1; pos_bol = 0; pos_cnum = 0 }
  in
  { Location.loc_start = pos; loc_end = pos; loc_ghost = true }

(* Is this expression a (polymorphic-variant or capitalized) construct
   whose comparison the poly-eq rule targets?  [true]/[false]/[[]] and
   friends are lowercase or symbolic and stay out, matching the old
   scanner's intent. *)
let is_ctor (e : expression) =
  match e.pexp_desc with
  | Pexp_construct ({ txt; _ }, _) -> (
    let name = Longident.last txt in
    String.length name > 0
    && match name.[0] with 'A' .. 'Z' -> true | _ -> false)
  | Pexp_variant _ -> true
  | _ -> false

let exn_msg = function
  | "raise" | "raise_notrace" ->
    "raise in code that must not raise; return a total result instead"
  | "failwith" ->
    "failwith in code that must not raise; return a total result instead"
  | "invalid_arg" ->
    "invalid_arg in code that must not raise; validate at the API boundary"
  | "List.hd" -> "List.hd raises on []; match the list instead"
  | "List.tl" -> "List.tl raises on []; match the list instead"
  | "Option.get" -> "Option.get raises on None; match instead"
  | "Array.get" ->
    "a.(i)/Array.get raises Invalid_argument; bounds-check or restructure"
  | other -> other ^ " is partial"

(* --- Hashtables made by [Hashtbl.Make] ---------------------------------

   [hashtbl-iter] is about the bucket order of any hashtable, and a
   functor-built table ([module Table = Hashtbl.Make (K)]) iterates in
   bucket order just as [Hashtbl] does.  Its [iter]/[fold] are found by
   name: the module paths every [Hashtbl.Make]/[MakeSeeded]
   application is bound to, per file (relative to the file) and over
   the whole corpus (qualified by the file's module name). *)

let rec is_hashtbl_make (me : module_expr) =
  match me.pmod_desc with
  | Pmod_apply ({ pmod_desc = Pmod_ident { txt; _ }; _ }, _) -> (
    match strip_stdlib (flatten txt) with
    | "Hashtbl.Make" | "Hashtbl.MakeSeeded" -> true
    | _ -> false)
  | Pmod_constraint (me, _) -> is_hashtbl_make me
  | _ -> false

(* Module paths bound to a [Hashtbl.Make] application, relative to the
   structure: nested modules and [let module] bindings included. *)
let table_modules (str : structure) =
  let found = ref [] in
  let prefix = ref [] in
  let default = Ast_iterator.default_iterator in
  let bind name me f =
    match name with
    | None -> f ()
    | Some name ->
      if is_hashtbl_make me then found := List.rev (name :: !prefix) :: !found;
      prefix := name :: !prefix;
      Fun.protect ~finally:(fun () -> prefix := List.tl !prefix) f
  in
  let it =
    {
      default with
      module_binding =
        (fun it mb ->
          bind mb.pmb_name.txt mb.pmb_expr (fun () ->
              default.module_binding it mb));
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_letmodule ({ txt = Some name; _ }, me, _) ->
            if is_hashtbl_make me then found := [ name ] :: !found;
            default.expr it e
          | _ -> default.expr it e);
    }
  in
  it.structure it str;
  !found

let module_name_of path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename (normalize path)))

(* [path] ends with [suffix]. *)
let ends_with ~suffix path =
  let rec starts a b =
    match a, b with
    | [], _ -> true
    | x :: a, y :: b -> String.equal x y && starts a b
    | _ :: _, [] -> false
  in
  starts (List.rev suffix) (List.rev path)

let check_source ?(mli_exists = true) ?rules ?(tables = []) ~path source =
  let path = normalize path in
  let is_ml = Filename.check_suffix path ".ml" in
  let findings = ref [] in
  let file_allows = ref [] in
  let allow_stack = ref [] in
  let all_sites = ref [] in
  let parse_failed = ref false in
  let defines_compare = ref false in
  let local_tables = ref [] in
  (* [iter]/[fold] of a functor-built table: the module path is one of
     this file's tables, or ends with a corpus table's qualified path
     (library prefixes and all). *)
  let table_iteration name =
    match List.rev (String.split_on_char '.' name) with
    | ("iter" | "fold") :: (_ :: _ as rev_prefix) ->
      let p = List.rev rev_prefix in
      List.exists (List.equal String.equal p) !local_tables
      || List.exists (fun suffix -> ends_with ~suffix p) tables
    | _ -> false
  in
  let suppressed rule =
    (* Every in-scope site naming the rule (or "all") counts as doing
       work — marking them keeps nested duplicates out of the
       unused-allow report rather than litigating which one "won". *)
    let hits site =
      if
        List.exists
          (fun a -> String.equal a "all" || String.equal a rule)
          site.a_names
      then begin
        if not (List.mem rule site.a_used) then
          site.a_used <- rule :: site.a_used;
        true
      end
      else false
    in
    let in_stack =
      List.fold_left (fun acc s -> hits s || acc) false !allow_stack
    in
    let in_file =
      List.fold_left (fun acc s -> hits s || acc) false !file_allows
    in
    in_stack || in_file
  in
  let selected rule =
    match rules with None -> true | Some l -> List.mem rule l
  in
  let report ~loc rule msg =
    match Rules.find rule with
    | Some r
      when Rules.applies r path && selected rule && not (suppressed rule) ->
      let p = loc.Location.loc_start in
      findings :=
        Finding.v ~file:path ~line:p.Lexing.pos_lnum
          ~col:(p.Lexing.pos_cnum - p.Lexing.pos_bol + 1)
          ~rule msg
        :: !findings
    | _ -> ()
  in
  let report_parse_error exn =
    parse_failed := true;
    let loc, what =
      match exn with
      | Syntaxerr.Error err -> Syntaxerr.location_of_error err, "syntax error"
      | Lexer.Error (_, loc) -> loc, "lexical error"
      | _ -> file_loc path, "parse failure"
    in
    report ~loc "parse-error" (what ^ "; the analyzer could not parse this file")
  in
  let check_ident name loc =
    match name with
    | "Obj.magic" -> report ~loc "obj-magic" "Obj.magic is forbidden"
    | "Sys.time" ->
      report ~loc "sys-time"
        "Sys.time measures CPU seconds and silently masquerades as a wall \
         clock; use the metrics clock (Rlist_obs.Metrics.now_ns)"
    | "Unix.gettimeofday" | "Unix.time" ->
      report ~loc "wall-clock"
        (name
        ^ " reads the wall clock inside replayed code; take time through \
           the obs/bench clock seams")
    | "Hashtbl.iter" | "Hashtbl.fold" ->
      report ~loc "hashtbl-iter"
        (name
        ^ " visits bindings in hash-bucket order, which depends on \
           insertion history; iterate a sorted view instead")
    | n when table_iteration n ->
      report ~loc "hashtbl-iter"
        (name
        ^ " iterates a Hashtbl.Make table in hash-bucket order, which \
           depends on insertion history; iterate a sorted view instead")
    | "Hashtbl.hash" | "Hashtbl.seeded_hash" ->
      report ~loc "poly-hash"
        (name ^ " is structural; hash the relevant fields")
    | "compare" when not !defines_compare ->
      report ~loc "poly-cmp" "bare polymorphic compare; use the type's compare"
    | "string_of_float" | "Float.to_string" ->
      report ~loc "float-format"
        (name
        ^ " uses shortest-round-trip formatting and is representation- \
           sensitive; print with an explicit format (e.g. %.17g)")
    | "raise" | "raise_notrace" | "failwith" | "invalid_arg" | "List.hd"
    | "List.tl" | "Option.get" | "Array.get" ->
      report ~loc "exn-partial" (exn_msg name)
    | "print_string" | "print_char" | "print_int" | "print_float"
    | "print_endline" | "print_newline" | "print_bytes" | "prerr_string"
    | "prerr_char" | "prerr_int" | "prerr_float" | "prerr_endline"
    | "prerr_newline" | "prerr_bytes" | "Printf.printf" | "Printf.eprintf"
    | "Format.printf" | "Format.eprintf" ->
      report ~loc "print-direct"
        (name
        ^ " writes directly to stdout/stderr from library code, which \
           interleaves nondeterministically with the trace stream; route \
           output through the obs sink or a caller-supplied formatter")
    | n
      when String.starts_with ~prefix:"Random." n
           && not (String.starts_with ~prefix:"Random.State." n) ->
      report ~loc "rand-global"
        (n
       ^ " draws from the global PRNG (hidden shared state); thread an \
          explicitly seeded Random.State.t")
    | _ -> ()
  in
  let check_expr (e : expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; _ } ->
      check_ident (strip_stdlib (flatten txt)) e.pexp_loc
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident (("=" | "<>") as op); _ }; _ },
          args )
      when List.exists (fun (_, a) -> is_ctor a) args ->
      report ~loc:e.pexp_loc "poly-eq"
        (Printf.sprintf "polymorphic %s against a constructor; match instead"
           op)
    | Pexp_assert
        { pexp_desc = Pexp_construct ({ txt = Lident "false"; _ }, None); _ }
      ->
      report ~loc:e.pexp_loc "exn-partial"
        "assert false in code that must not raise; make the case \
         impossible by construction"
    | _ -> ()
  in
  let with_allows attrs f =
    match site_of_attrs attrs with
    | None -> f ()
    | Some site ->
      all_sites := site :: !all_sites;
      allow_stack := site :: !allow_stack;
      Fun.protect ~finally:(fun () -> allow_stack := List.tl !allow_stack) f
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  (if is_ml then begin
     match Parse.implementation lexbuf with
     | exception exn -> report_parse_error exn
     | ast ->
       (* Pre-pass: file-wide facts the main walk depends on — floating
          [[@@@lint.allow]] attributes (they scope the whole file, so
          they must be known before any finding is reported) and
          whether the file binds its own [compare]. *)
       let default = Ast_iterator.default_iterator in
       let pre =
         {
           default with
           value_binding =
             (fun it vb ->
               (match vb.pvb_pat.ppat_desc with
               | Ppat_var { txt = "compare"; _ } -> defines_compare := true
               | _ -> ());
               default.value_binding it vb);
           structure_item =
             (fun it si ->
               (match si.pstr_desc with
               | Pstr_attribute a -> (
                 match site_of_attrs [ a ] with
                 | Some site ->
                   all_sites := site :: !all_sites;
                   file_allows := site :: !file_allows
                 | None -> ())
               | _ -> ());
               default.structure_item it si);
         }
       in
       pre.structure pre ast;
       local_tables := table_modules ast;
       let it =
         {
           default with
           expr =
             (fun it e ->
               with_allows e.pexp_attributes (fun () ->
                   check_expr e;
                   default.expr it e));
           value_binding =
             (fun it vb ->
               with_allows vb.pvb_attributes (fun () ->
                   default.value_binding it vb));
           module_binding =
             (fun it mb ->
               with_allows mb.pmb_attributes (fun () ->
                   default.module_binding it mb));
         }
       in
       it.structure it ast;
       if not mli_exists then
         report ~loc:(file_loc path) "missing-mli"
           "library module without a matching .mli; every lib/ module must \
            declare its interface"
   end
   else
     match Parse.interface lexbuf with
     | exception exn -> report_parse_error exn
     | _signature -> ());
  (* Suppression hygiene: a [[@lint.allow]] under which the named rule
     never fired is stale and reported.  Judged only on a full-rule
     run of a parseable file; rules of the typed (.cmt) passes and
     rules whose scope does not cover this file are out of the
     Parsetree pass's jurisdiction and skipped. *)
  (if Option.is_none rules && not !parse_failed then
     let judge site name =
       if List.mem name site.a_used then ()
       else
         let stale reason =
           report ~loc:site.a_loc "unused-allow"
             (Printf.sprintf
                "[@lint.allow %S] suppresses nothing here (%s); remove the \
                 stale seam"
                name reason)
         in
         match name with
         | "all" -> if List.is_empty site.a_used then stale "no rule fires"
         | _ -> (
           match Rules.find name with
           | None -> stale "no such rule"
           | Some r when r.Rules.typed -> ()
           | Some r when not (Rules.applies r path) -> ()
           | Some _ -> stale "the rule never fires in this scope")
     in
     List.iter (fun site -> List.iter (judge site) site.a_names) !all_sites);
  List.sort_uniq Finding.compare !findings

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let check_file ?rules ?tables path =
  let mli_exists =
    (not (Filename.check_suffix path ".ml")) || Sys.file_exists (path ^ "i")
  in
  check_source ?rules ?tables ~mli_exists ~path (read_file path)

(* Every table module of the corpus, qualified by its file's module
   name; files that do not parse contribute nothing (check_source
   reports them). *)
let corpus_tables files =
  List.concat_map
    (fun path ->
      if not (Filename.check_suffix path ".ml") then []
      else
        let lexbuf = Lexing.from_string (read_file path) in
        Lexing.set_filename lexbuf path;
        match Parse.implementation lexbuf with
        | exception _ -> []
        | ast ->
          List.map (fun p -> module_name_of path :: p) (table_modules ast))
    files

let walk roots =
  let rec add acc path =
    if Sys.is_directory path then
      Array.fold_left
        (fun acc entry ->
          if
            String.equal entry "_build"
            || (String.length entry > 0 && entry.[0] = '.')
          then acc
          else add acc (Filename.concat path entry))
        acc (Sys.readdir path)
    else if
      Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"
    then normalize path :: acc
    else acc
  in
  (* [Sys.readdir] order is unspecified; sort so runs are stable. *)
  List.sort_uniq String.compare (List.fold_left add [] roots)

let run ?rules roots =
  let files = walk roots in
  let tables = corpus_tables files in
  List.sort Finding.compare
    (List.concat_map (fun f -> check_file ?rules ~tables f) files)

(* The baseline file and its entries: line, path, rule. *)
type baseline = string * (int * string * string) list

let load_baseline file =
  let entries = ref [] in
  let entry ~line = function
    | [ token ] -> (
      match String.rindex_opt token ':' with
      | Some i when i > 0 && i < String.length token - 1 ->
        let path = normalize (String.sub token 0 i) in
        let rule = String.sub token (i + 1) (String.length token - i - 1) in
        entries := (line, path, rule) :: !entries
      | _ -> Rlist_obs.Line_format.fail "expected path:rule, got %S" token)
    | tokens ->
      Rlist_obs.Line_format.fail "expected path:rule, got %S"
        (String.concat " " tokens)
  in
  Rlist_obs.Line_format.load ~path:file (fun text ->
      Rlist_obs.Line_format.parse text entry (fun () ->
          normalize file, List.rev !entries))

let apply_baseline ~ran (file, entries) findings =
  let matches (_, path, rule) (f : Finding.t) =
    String.equal path f.file && String.equal rule f.rule
  in
  let kept =
    List.filter (fun f -> not (List.exists (fun e -> matches e f) entries))
      findings
  in
  let stale =
    List.filter_map
      (fun ((line, path, rule) as e) ->
        if (not (ran ~path ~rule)) || List.exists (matches e) findings then
          None
        else
          Some
            (Finding.v ~file ~line ~col:1 ~rule:"unused-allow"
               (Printf.sprintf
                  "baseline entry %s:%s matches no finding of this run; \
                   delete it"
                  path rule)))
      entries
  in
  List.sort Finding.compare (kept @ stale)

(* When the Parsetree and Typedtree passes flag the same site — e.g.
   [rand-global] and a [det-reach] whose sink is that same call — keep
   the typed finding only: it is the more precise one (it carries the
   witness chain).  Matching is by (file, line) plus the registry's
   subsumption map; exit-code bits are stable because a typed rule
   shares its family with the rules it subsumes. *)
let dedupe findings =
  let typed_sites =
    List.filter_map
      (fun (f : Finding.t) ->
        match Rules.find f.rule with
        | Some r when r.Rules.typed -> Some (f.file, f.line, f.rule)
        | _ -> None)
      findings
  in
  List.filter
    (fun (f : Finding.t) ->
      not
        (List.exists
           (fun (file, line, typed_rule) ->
             String.equal file f.file && line = f.line
             && Rules.subsumed_by ~typed_rule f.rule)
           typed_sites))
    findings

let exit_code findings =
  List.fold_left
    (fun acc (f : Finding.t) ->
      let bit =
        match Rules.find f.rule with
        | Some r -> Rules.family_bit r.Rules.family
        | None -> 1
      in
      acc lor bit)
    0 findings

let report_json findings =
  let open Rlist_obs.Json in
  let rule (f : Finding.t) = f.rule in
  let count r =
    List.length (List.filter (fun f -> String.equal (rule f) r) findings)
  in
  let rules = List.sort_uniq String.compare (List.map rule findings) in
  Obj
    [ "version", Int 1; "total", Int (List.length findings);
      "exit_code", Int (exit_code findings);
      "by_rule", Obj (List.map (fun r -> (r, Int (count r))) rules);
      "findings", List (List.map Finding.to_json findings) ]
