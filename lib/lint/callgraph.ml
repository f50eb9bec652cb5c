(* The cross-module call graph, keyed on resolved [Path.t]s.

   One node per module-level value binding (nested non-functor modules
   included).  Edges are references from the body of one binding to
   another module-level binding — same-unit references resolve by
   [Ident] stamp (so a local [let] shadowing a toplevel name cannot
   fabricate an edge), cross-unit references resolve through
   {!Cmt_loader.resolve_qualified} (so aliases, wrapped-library paths
   and [open]s are handled by the typer, not by string matching).

   While walking each body the builder also records *sink hits*:
   occurrences of the nondeterministic primitives the determinism-
   reachability pass cares about, each tagged with the untyped rule it
   corresponds to and with the [[@lint.allow]] names in scope at the
   site.

   Known soundness caveats (documented in DESIGN.md §13): functor
   bodies and first-class modules are not resolved (their innards are
   walked as part of the enclosing binding, but calls *into* a functor
   instantiation do not connect to the functor's body), and values
   brought in by [include] keep their original defining node. *)

type sink = {
  s_rule : string;  (* the untyped rule this primitive maps to *)
  s_what : string;  (* e.g. "Random.int" or "polymorphic = at t" *)
  s_file : string;
  s_line : int;
  s_col : int;
  s_suppressed : bool;
}

type def = {
  d_id : string;  (* "Flat_unit.Sub.name" *)
  d_unit : string;
  d_disp : string;  (* "Transport.flush" — short module path *)
  d_file : string;
  d_line : int;
  mutable d_calls : string list;
  mutable d_sinks : sink list;
}

type t = { defs : (string, def) Hashtbl.t; order : string list }

let find t id = Hashtbl.find_opt t.defs id
let order t = t.order

let short_base = Cmt_loader.short_base

let print_names =
  [
    "print_string"; "print_char"; "print_int"; "print_float";
    "print_endline"; "print_newline"; "print_bytes"; "prerr_string";
    "prerr_char"; "prerr_int"; "prerr_float"; "prerr_endline";
    "prerr_newline"; "prerr_bytes"; "Printf.printf"; "Printf.eprintf";
    "Format.printf"; "Format.eprintf";
  ]

(* Primitive -> (base untyped rule, display). Polymorphic comparison is
   handled separately because it needs the instantiated type. *)
let sink_of_name name =
  match name with
  | "Hashtbl.iter" | "Hashtbl.fold" -> Some ("hashtbl-iter", name)
  | "Hashtbl.hash" | "Hashtbl.seeded_hash" -> Some ("poly-hash", name)
  | "Sys.time" -> Some ("sys-time", name)
  | "Unix.gettimeofday" | "Unix.time" -> Some ("wall-clock", name)
  | "string_of_float" | "Float.to_string" -> Some ("float-format", name)
  | n when List.mem n print_names -> Some ("print-direct", n)
  | n
    when String.starts_with ~prefix:"Random." n
         && not (String.starts_with ~prefix:"Random.State." n) ->
    Some ("rand-global", n)
  | _ -> None

let poly_ops = [ "="; "<>"; "compare" ]

(* A module bound to [Hashtbl.Make (K)] (or [MakeSeeded]) iterates in
   bucket order like [Hashtbl] itself, so its [iter]/[fold] are
   [hashtbl-iter] sinks too. *)
let rec is_hashtbl_make (me : Typedtree.module_expr) =
  let rec names_make (f : Typedtree.module_expr) =
    match f.mod_desc with
    | Tmod_ident (p, _) -> (
      match Cmt_loader.strip_stdlib (Path.name p) with
      | "Hashtbl.Make" | "Hashtbl.MakeSeeded" -> true
      | _ -> false)
    | Tmod_constraint (f, _, _, _) -> names_make f
    | _ -> false
  in
  match me.mod_desc with
  | Tmod_apply (f, _, _) -> names_make f
  | Tmod_constraint (me, _, _, _) -> is_hashtbl_make me
  | _ -> false

let table_iterators = [ "iter"; "fold" ]

(* The first argument type of a (possibly partially applied) use of a
   polymorphic comparison: its instantiated type is an arrow whose
   domain is the compared type. *)
let compared_type ty =
  match Types.get_desc ty with
  | Tarrow (_, a, _, _) -> Some a
  | _ -> None

let allows_of_attrs attrs =
  List.concat_map
    (fun (a : Parsetree.attribute) ->
      if String.equal a.attr_name.txt "lint.allow" then
        match a.attr_payload with
        | PStr
            [
              {
                pstr_desc =
                  Pstr_eval
                    ( {
                        pexp_desc =
                          Pexp_constant (Pconst_string (s, _, _));
                        _;
                      },
                      _ );
                _;
              };
            ] ->
          String.split_on_char ' ' s
          |> List.concat_map (String.split_on_char ',')
          |> List.filter_map (fun s ->
               let s = String.trim s in
               if String.equal s "" then None else Some s)
        | _ -> []
      else [])
    attrs

let rec pat_vars : type k. k Typedtree.general_pattern -> (Ident.t * string * Location.t * Types.type_expr) list =
 fun p ->
  match p.pat_desc with
  | Tpat_var (id, l) -> [ (id, l.txt, l.loc, p.pat_type) ]
  | Tpat_alias (inner, id, l) ->
    (id, l.txt, l.loc, p.pat_type) :: pat_vars inner
  | Tpat_tuple ps -> List.concat_map pat_vars ps
  | Tpat_record (fields, _) ->
    List.concat_map (fun (_, _, p) -> pat_vars p) fields
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_variant (_, Some p, _) -> pat_vars p
  | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_lazy p -> pat_vars p
  | Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | Tpat_value v -> pat_vars (v :> Typedtree.pattern)
  | _ -> []

let build corpus =
  let defs = Hashtbl.create 512 in
  let order = ref [] in
  (* (unit, Ident.unique_name) of a module-level binding -> def id.
     Stamps restart in every compilation unit, so the unit is part of
     the key. *)
  let local = Hashtbl.create 512 in
  (* Hashtbl.Make modules: qualified ids ("Unit.Sub.Table") for
     cross-unit references, (unit, ident unique name) for same-unit
     ones (module-level and [let module] alike). *)
  let tables = Hashtbl.create 16 in
  let table_idents = Hashtbl.create 16 in
  let add_def ~unit_ ~prefix ~name ~file ~loc id_opt =
    let d_id = String.concat "." (unit_ :: (prefix @ [ name ])) in
    let d_disp = String.concat "." (short_base unit_ :: (prefix @ [ name ])) in
    if not (Hashtbl.mem defs d_id) then begin
      Hashtbl.replace defs d_id
        {
          d_id;
          d_unit = unit_;
          d_disp;
          d_file = file;
          d_line = loc.Location.loc_start.Lexing.pos_lnum;
          d_calls = [];
          d_sinks = [];
        };
      order := d_id :: !order
    end;
    (match id_opt with
    | Some id -> Hashtbl.replace local (unit_, Ident.unique_name id) d_id
    | None -> ());
    d_id
  in
  (* Pass 1: every module-level binding becomes a node. *)
  let collect_unit (u : Cmt_loader.unit_info) =
    let rec structure prefix (str : Typedtree.structure) =
      List.iter (item prefix) str.str_items
    and item prefix (si : Typedtree.structure_item) =
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun (id, name, loc, _ty) ->
                ignore
                  (add_def ~unit_:u.modname ~prefix ~name ~file:u.source ~loc
                     (Some id)))
              (pat_vars vb.vb_pat))
          vbs
      | Tstr_module mb -> module_binding prefix mb
      | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
      | _ -> ()
    and module_binding prefix (mb : Typedtree.module_binding) =
      match mb.mb_id with
      | None -> ()
      | Some id ->
        let path = prefix @ [ Ident.name id ] in
        if is_hashtbl_make mb.mb_expr then begin
          Hashtbl.replace tables (String.concat "." (u.modname :: path)) ();
          Hashtbl.replace table_idents (u.modname, Ident.unique_name id) ()
        end;
        module_expr path mb.mb_expr
    and module_expr prefix (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure str -> structure prefix str
      | Tmod_constraint (me, _, _, _) -> module_expr prefix me
      | Tmod_functor (_, me) -> module_expr prefix me
      | _ -> ()
    in
    structure [] u.str
  in
  List.iter collect_unit (Cmt_loader.units corpus);
  (* Pass 2: walk each binding's body for edges and sink hits. *)
  let walk_unit (u : Cmt_loader.unit_info) =
    (* floating [@@@lint.allow] names, file-wide *)
    let file_allows = ref [] in
    let rec collect_file_allows (str : Typedtree.structure) =
      List.iter
        (fun (si : Typedtree.structure_item) ->
          match si.str_desc with
          | Tstr_attribute a -> file_allows := allows_of_attrs [ a ] @ !file_allows
          | Tstr_module { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
            collect_file_allows s
          | _ -> ())
        str.str_items
    in
    collect_file_allows u.str;
    let resolve_path p =
      match p with
      | Path.Pident id -> (
        match Hashtbl.find_opt local (u.modname, Ident.unique_name id) with
        | Some d_id -> `Internal d_id
        | None -> `Local)
      | _ -> (
        let name = Path.name p in
        let comps = String.split_on_char '.' name in
        match Cmt_loader.resolve_qualified corpus comps with
        | Some (unit_, rest) ->
          `Internal (String.concat "." (unit_ :: rest))
        | None -> `External (Cmt_loader.strip_stdlib name))
    in
    let walk_body (def : def) allow0 (body : Typedtree.expression) =
      let allows = ref [ allow0 ] in
      let in_scope rule =
        let hit l = List.mem "all" l || List.mem rule l in
        List.exists hit !allows || hit !file_allows
      in
      let add_sink ~loc s_rule s_what =
        let pos = loc.Location.loc_start in
        let s_suppressed = in_scope "det-reach" || in_scope s_rule in
        def.d_sinks <-
          {
            s_rule;
            s_what;
            s_file = def.d_file;
            s_line = pos.Lexing.pos_lnum;
            s_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1;
            s_suppressed;
          }
          :: def.d_sinks
      in
      let table_iteration p =
        match p with
        | Path.Pdot (Path.Pident id, fn) when List.mem fn table_iterators ->
          if Hashtbl.mem table_idents (u.modname, Ident.unique_name id) then
            Some (Ident.name id ^ "." ^ fn)
          else None
        | Path.Pdot (m, fn) when List.mem fn table_iterators -> (
          match
            Cmt_loader.resolve_qualified corpus
              (String.split_on_char '.' (Path.name m))
          with
          | Some (unit_, rest)
            when Hashtbl.mem tables (String.concat "." (unit_ :: rest)) ->
            Some (String.concat "." ((short_base unit_ :: rest) @ [ fn ]))
          | _ -> None)
        | _ -> None
      in
      let check_ident (e : Typedtree.expression) p =
        match resolve_path p with
        | `Local -> ()
        | `Internal callee ->
          if not (List.mem callee def.d_calls) then
            def.d_calls <- callee :: def.d_calls
        | `External name -> (
          match sink_of_name name with
          | Some (rule, what) -> add_sink ~loc:e.exp_loc rule what
          | None ->
            if List.mem name poly_ops then (
              let home =
                match String.rindex_opt def.d_id '.' with
                | Some i -> String.sub def.d_id 0 i
                | None -> def.d_id
              in
              match compared_type e.exp_type with
              | Some ty
                when not (Cmt_loader.visibly_comparable ~home corpus ty) ->
                let rule =
                  if String.equal name "compare" then "poly-cmp" else "poly-eq"
                in
                add_sink ~loc:e.exp_loc rule
                  (Printf.sprintf
                     "polymorphic %s at %s (not visibly comparable)" name
                     (Cmt_loader.type_to_string ty))
              | _ -> ()))
      in
      let default = Tast_iterator.default_iterator in
      let with_allows attrs f =
        match allows_of_attrs attrs with
        | [] -> f ()
        | names ->
          allows := names :: !allows;
          Fun.protect ~finally:(fun () -> allows := List.tl !allows) f
      in
      let it =
        {
          default with
          expr =
            (fun it (e : Typedtree.expression) ->
              with_allows e.exp_attributes (fun () ->
                  (match e.exp_desc with
                  | Texp_ident (p, _, _) -> (
                    match table_iteration p with
                    | Some what -> add_sink ~loc:e.exp_loc "hashtbl-iter" what
                    | None -> check_ident e p)
                  | Texp_letmodule (Some id, _, _, me, _)
                    when is_hashtbl_make me ->
                    Hashtbl.replace table_idents
                      (u.modname, Ident.unique_name id) ()
                  | _ -> ());
                  default.expr it e));
          value_binding =
            (fun it (vb : Typedtree.value_binding) ->
              with_allows vb.vb_attributes (fun () ->
                  default.value_binding it vb));
        }
      in
      it.expr it body
    in
    let rec structure prefix (str : Typedtree.structure) =
      List.iter (item prefix) str.str_items
    and item prefix (si : Typedtree.structure_item) =
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let def =
              match pat_vars vb.vb_pat with
              | (_, name, _, _) :: _ ->
                Hashtbl.find_opt defs
                  (String.concat "." (u.modname :: (prefix @ [ name ])))
              | [] -> None
            in
            let def =
              match def with
              | Some d -> d
              | None ->
                (* a binding that introduces no variables, e.g.
                   [let () = ...]: module-initialization effects *)
                let d_id =
                  String.concat "." (u.modname :: (prefix @ [ "(init)" ]))
                in
                (match Hashtbl.find_opt defs d_id with
                | Some d -> d
                | None ->
                  let d =
                    {
                      d_id;
                      d_unit = u.modname;
                      d_disp =
                        String.concat "."
                          (short_base u.modname :: (prefix @ [ "(init)" ]));
                      d_file = u.source;
                      d_line =
                        vb.vb_loc.Location.loc_start.Lexing.pos_lnum;
                      d_calls = [];
                      d_sinks = [];
                    }
                  in
                  Hashtbl.replace defs d_id d;
                  order := d_id :: !order;
                  d)
            in
            walk_body def (allows_of_attrs vb.vb_attributes) vb.vb_expr)
          vbs
      | Tstr_eval (e, attrs) ->
        let d_id = String.concat "." (u.modname :: (prefix @ [ "(init)" ])) in
        let def =
          match Hashtbl.find_opt defs d_id with
          | Some d -> d
          | None ->
            let d =
              {
                d_id;
                d_unit = u.modname;
                d_disp =
                  String.concat "."
                    (short_base u.modname :: (prefix @ [ "(init)" ]));
                d_file = u.source;
                d_line = e.exp_loc.Location.loc_start.Lexing.pos_lnum;
                d_calls = [];
                d_sinks = [];
              }
            in
            Hashtbl.replace defs d_id d;
            order := d_id :: !order;
            d
        in
        walk_body def (allows_of_attrs attrs) e
      | Tstr_module mb -> module_binding prefix mb
      | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
      | _ -> ()
    and module_binding prefix (mb : Typedtree.module_binding) =
      match mb.mb_id with
      | None -> ()
      | Some id -> module_expr (prefix @ [ Ident.name id ]) mb.mb_expr
    and module_expr prefix (me : Typedtree.module_expr) =
      match me.mod_desc with
      | Tmod_structure str -> structure prefix str
      | Tmod_constraint (me, _, _, _) -> module_expr prefix me
      | Tmod_functor (_, me) -> module_expr prefix me
      | _ -> ()
    in
    structure [] u.str
  in
  List.iter walk_unit (Cmt_loader.units corpus);
  let order = List.rev !order in
  (* stable edge order for deterministic traversal and output *)
  List.iter
    (fun id ->
      match Hashtbl.find_opt defs id with
      | Some d -> d.d_calls <- List.sort String.compare d.d_calls
      | None -> ())
    order;
  { defs; order }

(* --- exports ---------------------------------------------------------- *)

(* Escape a string for a double-quoted DOT id or label: backslashes
   and quotes are escaped, and angle brackets are too (a quoted label
   starting with [<] would otherwise be parsed as an HTML-like label —
   nested-module names like "M.(init)" or functor spellings can carry
   any of these). *)
let dot_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '<' -> Buffer.add_string buf "\\<"
      | '>' -> Buffer.add_string buf "\\>"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let dot_quote s = "\"" ^ dot_escape s ^ "\""

let dot ?(entries = []) ?(reached = []) t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "digraph callgraph {\n  rankdir=LR;\n  node [shape=box, fontsize=10];\n";
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.defs id with
      | None -> ()
      | Some d ->
        let attrs =
          if List.mem id entries then
            ", style=filled, fillcolor=lightblue"
          else if d.d_sinks <> [] then ", style=filled, fillcolor=salmon"
          else if List.mem id reached then
            ", style=filled, fillcolor=lightyellow"
          else ""
        in
        Buffer.add_string buf
          (Printf.sprintf "  %s [label=\"%s\\n%s\"%s];\n" (dot_quote d.d_id)
             (dot_escape d.d_disp) (dot_escape d.d_file) attrs))
    t.order;
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.defs id with
      | None -> ()
      | Some d ->
        List.iter
          (fun callee ->
            if Hashtbl.mem t.defs callee then
              Buffer.add_string buf
                (Printf.sprintf "  %s -> %s;\n" (dot_quote d.d_id)
                   (dot_quote callee)))
          d.d_calls)
    t.order;
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let json ?(entries = []) ?(reached = []) t =
  let open Rlist_obs.Json in
  let defs = List.filter_map (Hashtbl.find_opt t.defs) t.order in
  let node d =
    Obj
      [ "id", Str d.d_id; "name", Str d.d_disp; "file", Str d.d_file;
        "line", Int d.d_line; "entry", Bool (List.mem d.d_id entries);
        "reached", Bool (List.mem d.d_id reached);
        "sinks", Int (List.length d.d_sinks) ]
  in
  let edges d =
    List.filter_map
      (fun callee ->
        if Hashtbl.mem t.defs callee then Some (List [ Str d.d_id; Str callee ])
        else None)
      d.d_calls
  in
  Obj
    [ "version", Int 1; "nodes", List (List.map node defs);
      "edges", List (List.concat_map edges defs) ]
