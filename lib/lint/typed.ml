(* The two interprocedural passes over the typed call graph:

   - determinism reachability: BFS from the protocol/engine entry
     points to every nondeterministic sink, reporting one [det-reach]
     finding per reachable, unsuppressed sink site with the shortest
     witness call chain;

   - domain safety: an inventory of module-level mutable state across
     the corpus, each item classified for the sharded-server plan
     (ROADMAP item 2) and rendered as a machine-readable
     shard-readiness report.  Unsuppressed shared-unsafe state is a
     [module-mutable] finding; suppressed state stays visible in the
     report as the burn-down list. *)

(* Entry-point patterns: a name with a dot matches a node's display
   name ("State_space.add_square"); a bare name matches the final
   component only.  '*' is the single wildcard.  [integrate] is the
   CRDT half of every relay protocol: the graph does not follow calls
   into a functor argument, so [Relay.Make]'s receive functions never
   reach the named [Crdt] modules by themselves. *)
let default_entries =
  [
    "transform";
    "integrate";
    "server_receive*";
    "client_receive*";
    "Engine.*";
    "P2p_engine.*";
    "Mesh.*";
    "State_space.add_*";
  ]

let glob_match pat s =
  let np = String.length pat and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pat.[i] with
      | '*' -> go (i + 1) j || (j < ns && go i (j + 1))
      | c -> j < ns && Char.equal c s.[j] && go (i + 1) (j + 1)
  in
  go 0 0

let last_component s =
  match String.rindex_opt s '.' with
  | Some i -> String.sub s (i + 1) (String.length s - i - 1)
  | None -> s

let entry_matches pat (d : Callgraph.def) =
  if String.contains pat '.' then glob_match pat d.d_disp
  else glob_match pat (last_component d.d_disp)

let entry_ids g patterns =
  List.filter
    (fun id ->
      match Callgraph.find g id with
      | Some d -> List.exists (fun p -> entry_matches p d) patterns
      | None -> false)
    (Callgraph.order g)

(* lib/obs is the sanctioned observability seam: its sinks are the
   whole point of the module and do not count as determinism leaks. *)
let in_obs_seam file = String.starts_with ~prefix:"lib/obs/" file

type reach = {
  r_entries : string list;
  r_reached : string list;
  r_findings : Finding.t list;
}

let det_reach ?(entries = default_entries) g =
  let roots = entry_ids g entries in
  (* BFS from all entries at once: the parent pointers then give each
     node its shortest witness chain from the *nearest* entry. *)
  let parent : (string, string option) Hashtbl.t = Hashtbl.create 64 in
  let q = Queue.create () in
  List.iter
    (fun id ->
      if not (Hashtbl.mem parent id) then begin
        Hashtbl.replace parent id None;
        Queue.add id q
      end)
    roots;
  let reached = ref [] in
  while not (Queue.is_empty q) do
    let id = Queue.pop q in
    reached := id :: !reached;
    match Callgraph.find g id with
    | None -> ()
    | Some d ->
      List.iter
        (fun callee ->
          if
            Option.is_some (Callgraph.find g callee)
            && not (Hashtbl.mem parent callee)
          then begin
            Hashtbl.replace parent callee (Some id);
            Queue.add callee q
          end)
        d.d_calls
  done;
  let reached = List.rev !reached in
  let disp id =
    match Callgraph.find g id with Some d -> d.Callgraph.d_disp | None -> id
  in
  let rec chain_to id acc =
    match Hashtbl.find_opt parent id with
    | Some (Some p) -> chain_to p (disp id :: acc)
    | _ -> disp id :: acc
  in
  let findings =
    List.concat_map
      (fun id ->
        match Callgraph.find g id with
        | None -> []
        | Some d ->
          List.filter_map
            (fun (s : Callgraph.sink) ->
              if s.s_suppressed || in_obs_seam s.s_file then None
              else
                let chain = chain_to id [ s.s_what ] in
                Some
                  (Finding.v ~chain ~file:s.s_file ~line:s.s_line
                     ~col:s.s_col ~rule:"det-reach"
                     (Printf.sprintf
                        "%s (%s) is reachable from entry point %s; the \
                         replicated state machine must be deterministic"
                        s.s_what s.s_rule (List.hd chain))))
            d.d_sinks)
      reached
  in
  {
    r_entries = roots;
    r_reached = reached;
    r_findings = List.sort_uniq Finding.compare findings;
  }

(* --- domain safety ---------------------------------------------------- *)

type mut_class = Obs_seam | Domain_confined | Shared_unsafe

let class_name = function
  | Obs_seam -> "obs-seam"
  | Domain_confined -> "domain-confined"
  | Shared_unsafe -> "shared-unsafe"

type mut_entry = {
  m_id : string;  (* "Flat_unit.Sub.name" *)
  m_disp : string;
  m_file : string;
  m_line : int;
  m_col : int;
  m_kind : string;  (* "ref", "Hashtbl.t", "record with mutable fields"… *)
  m_class : mut_class;
  m_suppressed : bool;
}

let classify ~file ~kind =
  if in_obs_seam file then Obs_seam
  else
    match kind with
    | "Atomic.t" | "Mutex.t" | "Condition.t" -> Domain_confined
    | _ -> Shared_unsafe

let domain_scan corpus =
  let entries = ref [] in
  let scan_unit (u : Cmt_loader.unit_info) =
    let file_allows = ref [] in
    let rec collect_file_allows (str : Typedtree.structure) =
      List.iter
        (fun (si : Typedtree.structure_item) ->
          match si.str_desc with
          | Tstr_attribute a ->
            file_allows := Callgraph.allows_of_attrs [ a ] @ !file_allows
          | Tstr_module { mb_expr = { mod_desc = Tmod_structure s; _ }; _ } ->
            collect_file_allows s
          | _ -> ())
        str.str_items
    in
    collect_file_allows u.str;
    let short = Cmt_loader.short_base u.modname in
    let rec structure prefix (str : Typedtree.structure) =
      List.iter (item prefix) str.str_items
    and item prefix (si : Typedtree.structure_item) =
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let allows = Callgraph.allows_of_attrs vb.vb_attributes in
            let suppressed =
              let hit l = List.mem "all" l || List.mem "module-mutable" l in
              hit allows || hit !file_allows
            in
            List.iter
              (fun (_, name, loc, ty) ->
                match Cmt_loader.mutable_kind corpus ty with
                | None -> ()
                | Some kind ->
                  let pos = loc.Location.loc_start in
                  entries :=
                    {
                      m_id =
                        String.concat "." (u.modname :: (prefix @ [ name ]));
                      m_disp =
                        String.concat "." (short :: (prefix @ [ name ]));
                      m_file = u.source;
                      m_line = pos.Lexing.pos_lnum;
                      m_col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1;
                      m_kind = kind;
                      m_class = classify ~file:u.source ~kind;
                      m_suppressed = suppressed;
                    }
                    :: !entries)
              (Callgraph.pat_vars vb.vb_pat))
          vbs
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
  List.iter scan_unit (Cmt_loader.units corpus);
  List.sort
    (fun a b ->
      match String.compare a.m_file b.m_file with
      | 0 -> Int.compare a.m_line b.m_line
      | c -> c)
    (List.rev !entries)

let domain_findings entries =
  List.filter_map
    (fun e ->
      match e.m_class with
      | Shared_unsafe when not e.m_suppressed ->
        Some
          (Finding.v ~file:e.m_file ~line:e.m_line ~col:e.m_col
             ~rule:"module-mutable"
             (Printf.sprintf
                "module-level mutable state %s (%s) is shared-unsafe under \
                 a multi-domain server; confine it to a domain, guard it \
                 with Atomic/Mutex, or suppress with a sharding \
                 justification"
                e.m_disp e.m_kind))
      | _ -> None)
    entries

let domain_report_json ?(escaping_unsuppressed = 0) entries =
  let count cls =
    List.length (List.filter (fun e -> e.m_class == cls) entries)
  in
  let unsuppressed_unsafe =
    List.length
      (List.filter
         (fun e -> e.m_class == Shared_unsafe && not e.m_suppressed)
         entries)
  in
  let open Rlist_obs.Json in
  let entry e =
    Obj
      [ "id", Str e.m_id; "name", Str e.m_disp; "file", Str e.m_file;
        "line", Int e.m_line; "kind", Str e.m_kind;
        "class", Str (class_name e.m_class); "suppressed", Bool e.m_suppressed ]
  in
  Obj
    [ "version", Int 1; "total", Int (List.length entries);
      ( "shard_ready",
        Bool (unsuppressed_unsafe = 0 && escaping_unsuppressed = 0) );
      ( "classes",
        Obj
          [ "obs-seam", Int (count Obs_seam);
            "domain-confined", Int (count Domain_confined);
            "shared-unsafe", Int (count Shared_unsafe) ] );
      "unsuppressed_shared_unsafe", Int unsuppressed_unsafe;
      "escaping_unsuppressed", Int escaping_unsuppressed;
      "entries", List (List.map entry entries) ]

let run ?entries corpus =
  let g = Callgraph.build corpus in
  let reach = det_reach ?entries g in
  let muts = domain_scan corpus in
  let esc = Escape.analyze ~reached:reach.r_reached corpus in
  List.sort Finding.compare
    (reach.r_findings @ domain_findings muts @ Escape.findings esc)
