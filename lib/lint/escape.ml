(* The shard-confinement escape pass: a value-flow analysis over the
   Typedtree corpus that classifies every mutable allocation — refs,
   arrays, bytes, Hashtbls, Queues, Stacks, Buffers, and records with
   mutable fields — by how far it can travel from its allocation
   site:

     stack-confined     never leaves the allocating function
     instance-confined  leaves only through return values or stores
                        into caller-supplied structures (so it is
                        owned by whichever instance the caller builds
                        — a document's state space, an engine, a
                        transport)
     escaping           reachable from module-level state, i.e.
                        shared by every domain of a multi-domain
                        server

   The analysis builds one global "held-by" graph.  Nodes are
   allocation sites, per-function parameter and return summaries
   ([Params f] / [Ret f]), and a single [Global] node for module
   scope.  Intraprocedural walks emit labelled edges (bound, stored,
   passed, captured, returned, module-level); classification is then
   plain reachability — [Alloc -> ... -> Global] means escaping, and
   the BFS path is the witness flow chain printed with the finding.
   Making parameters and returns graph nodes gives the
   interprocedural fixpoint for free: an allocation returned by
   [create] whose result a caller binds at module level follows
   [Alloc -> Ret create -> Global] with no per-function summary
   iteration.

   Soundness caveats (DESIGN.md §15): calls into functor parameters
   and first-class modules are treated as external (a call through a
   module alias is a call of the aliased module); external calls
   propagate their arguments to their result but are not assumed to
   stash them (the known stdlib mutators are modelled explicitly);
   higher-order uses of corpus functions (passing [create] itself
   around) are not tracked.  [Atomic.t]/[Mutex.t]/[Condition.t]
   allocations are exempt from findings — they are built for sharing
   — but still propagate what is stored inside them.  [lib/obs] is
   the sanctioned observability seam and its allocations are not
   inventoried, mirroring the determinism pass. *)

let in_obs_seam file = String.starts_with ~prefix:"lib/obs/" file

type verdict = Stack_confined | Instance_confined | Escaping

let verdict_name = function
  | Stack_confined -> "stack-confined"
  | Instance_confined -> "instance-confined"
  | Escaping -> "escaping"

type alloc = {
  a_idx : int;
  a_def : string;  (* enclosing def node id, callgraph spelling *)
  a_def_disp : string;
  a_file : string;
  a_line : int;
  a_col : int;
  a_kind : string;  (* "ref", "Hashtbl.t", "mutable record t", … *)
  a_exempt : bool;  (* Atomic/Mutex/Condition: built for sharing *)
  a_suppressed : bool;  (* [@lint.allow "escape"] in scope at the site *)
  mutable a_verdict : verdict;
  mutable a_chain : string list;  (* witness flow chain, alloc first *)
  mutable a_reachable : bool;  (* enclosing def reachable from an entry *)
}

type node = Alloc of int | Params of string | Ret of string | Global

let node_compare a b =
  match (a, b) with
  | Alloc i, Alloc j -> Int.compare i j
  | Alloc _, _ -> -1
  | _, Alloc _ -> 1
  | Params x, Params y -> String.compare x y
  | Params _, _ -> -1
  | _, Params _ -> 1
  | Ret x, Ret y -> String.compare x y
  | Ret _, _ -> -1
  | _, Ret _ -> 1
  | Global, Global -> 0

module NodeSet = Set.Make (struct
  type t = node

  let compare = node_compare
end)

module NodeTbl = Hashtbl.Make (struct
  type t = node

  let equal a b = node_compare a b = 0

  let hash = function
    | Alloc i -> Hashtbl.hash (0, i)
    | Params s -> Hashtbl.hash (1, s)
    | Ret s -> Hashtbl.hash (2, s)
    | Global -> Hashtbl.hash 3
end)

type result = { allocs : alloc list }

(* --- the allocation / mutation model of the stdlib ------------------- *)

let allocator_kind name =
  match name with
  | "ref" -> Some "ref"
  | "Array.make" | "Array.create_float" | "Array.init" | "Array.make_matrix"
  | "Array.of_list" | "Array.copy" | "Array.sub" | "Array.append"
  | "Array.concat" | "Array.map" | "Array.mapi" ->
    Some "array"
  | "Bytes.create" | "Bytes.make" | "Bytes.of_string" | "Bytes.copy"
  | "Bytes.sub" ->
    Some "bytes"
  | "Hashtbl.create" | "Hashtbl.copy" | "Hashtbl.of_seq" -> Some "Hashtbl.t"
  | "Queue.create" | "Queue.copy" -> Some "Queue.t"
  | "Stack.create" | "Stack.copy" -> Some "Stack.t"
  | "Buffer.create" -> Some "Buffer.t"
  | "Atomic.make" -> Some "Atomic.t"
  | "Mutex.create" -> Some "Mutex.t"
  | "Condition.create" -> Some "Condition.t"
  | _ -> None

let exempt_kind = function
  | "Atomic.t" | "Mutex.t" | "Condition.t" -> true
  | _ -> false

(* Stdlib calls that store their other arguments *inside* the
   container argument (by index). *)
let mutator_container name =
  match name with
  | ":=" | "Hashtbl.add" | "Hashtbl.replace" | "Array.set"
  | "Array.unsafe_set" | "Array.fill" | "Buffer.add_string"
  | "Buffer.add_char" | "Buffer.add_bytes" | "Buffer.add_buffer"
  | "Atomic.set" | "Atomic.exchange" ->
    Some 0
  | "Queue.add" | "Queue.push" | "Stack.push" -> Some 1
  | "Array.blit" | "Bytes.blit" -> Some 2
  | _ -> None

(* --- analysis state ---------------------------------------------------- *)

type st = {
  corpus : Cmt_loader.t;
  mutable allocs_rev : alloc list;
  mutable n_allocs : int;
  by_site : (string * int * int, int) Hashtbl.t;
  edges : (node * string) list ref NodeTbl.t;
  (* Ident.unique_name of a module-level binding -> def node id *)
  local : (string, string) Hashtbl.t;
  disp : (string, string) Hashtbl.t;  (* def id -> display name *)
  (* Ident.unique_name -> tokens carried by that variable *)
  env : (string, NodeSet.t) Hashtbl.t;
  (* Ident.unique_name of a module alias ([module L = P], [let module
     L = P in]) in the unit being walked -> [P] *)
  aliases : (string, Path.t) Hashtbl.t;
}

(* Per-def walking context: where we are and which suppressions are in
   scope, mirroring the callgraph walker. *)
type ctx = {
  file : string;
  def_id : string;
  def_disp : string;
  skip_allocs : bool;  (* lib/obs: sanctioned seam *)
  allows : string list list ref;
  file_allows : string list ref;
}

let in_scope ctx rule =
  let hit l = List.mem "all" l || List.mem rule l in
  List.exists hit !(ctx.allows) || hit !(ctx.file_allows)

let with_allows ctx attrs f =
  match Callgraph.allows_of_attrs attrs with
  | [] -> f ()
  | names ->
    ctx.allows := names :: !(ctx.allows);
    Fun.protect ~finally:(fun () -> ctx.allows := List.tl !(ctx.allows)) f

let loc_str ctx (loc : Location.t) =
  Printf.sprintf "%s:%d" ctx.file loc.loc_start.Lexing.pos_lnum

let add_edge st src dst label =
  if node_compare src dst <> 0 then begin
    let cell =
      match NodeTbl.find_opt st.edges src with
      | Some c -> c
      | None ->
        let c = ref [] in
        NodeTbl.replace st.edges src c;
        c
    in
    if not (List.exists (fun (d, _) -> node_compare d dst = 0) !cell) then
      cell := (dst, label) :: !cell
  end

(* Every token of [set] becomes reachable from [dst]'s holder — i.e.
   [dst] now holds them. *)
let flow st set dst label = NodeSet.iter (fun n -> add_edge st n dst label) set

(* [store values ~into label]: the stored values are held by whatever
   the destination expression denoted. *)
let store st values ~into label =
  NodeSet.iter (fun holder -> flow st values holder label) into

let fresh_alloc st ctx ~kind (loc : Location.t) =
  if ctx.skip_allocs then NodeSet.empty
  else begin
    let pos = loc.loc_start in
    let line = pos.Lexing.pos_lnum in
    let col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol + 1 in
    let site = (ctx.file, line, col) in
    match Hashtbl.find_opt st.by_site site with
    | Some i -> NodeSet.singleton (Alloc i)
    | None ->
      let i = st.n_allocs in
      st.n_allocs <- i + 1;
      Hashtbl.replace st.by_site site i;
      st.allocs_rev <-
        {
          a_idx = i;
          a_def = ctx.def_id;
          a_def_disp = ctx.def_disp;
          a_file = ctx.file;
          a_line = line;
          a_col = col;
          a_kind = kind;
          a_exempt = exempt_kind kind;
          a_suppressed = in_scope ctx "escape";
          a_verdict = Stack_confined;
          a_chain = [];
          a_reachable = false;
        }
        :: st.allocs_rev;
      NodeSet.singleton (Alloc i)
  end

let disp_of st d_id =
  match Hashtbl.find_opt st.disp d_id with Some d -> d | None -> d_id

(* Does this record expression build a value with mutable fields? *)
let record_mutability (fields : _ array) =
  Array.exists
    (fun ((lbl : Types.label_description), _) ->
      match lbl.lbl_mut with Mutable -> true | Immutable -> false)
    fields

let record_kind (fields : _ array) =
  if Array.length fields = 0 then "mutable record"
  else
    let lbl, _ = fields.(0) in
    let tyname =
      match Types.get_desc (lbl : Types.label_description).lbl_res with
      | Tconstr (p, _, _) -> Path.name p
      | _ -> "record"
    in
    Printf.sprintf "mutable record %s" tyname

(* The module path [me] names, if it is an alias of one. *)
let rec aliased (me : Typedtree.module_expr) =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> aliased me
  | _ -> None

let add_alias st id me =
  Option.iter
    (fun p -> Hashtbl.replace st.aliases (Ident.unique_name id) p)
    (aliased me)

(* [p] with its leading module alias, if any, replaced by the path it
   aliases, so a call through [L.f] resolves as one through [P.f]. *)
let rec unalias st (p : Path.t) =
  match p with
  | Pident id -> (
    match Hashtbl.find_opt st.aliases (Ident.unique_name id) with
    | Some target -> unalias st target
    | None -> p)
  | Pdot (m, s) -> Pdot (unalias st m, s)
  | _ -> p

let resolve_head st p =
  match p with
  | Path.Pident id -> (
    let key = Ident.unique_name id in
    match Hashtbl.find_opt st.env key with
    | Some s -> `Closure s
    | None -> (
      match Hashtbl.find_opt st.local key with
      | Some d_id -> `Corpus d_id
      | None -> `External))
  | _ -> (
    let name = Cmt_loader.strip_stdlib (Path.name (unalias st p)) in
    match allocator_kind name with
    | Some k -> `Allocator k
    | None -> (
      match mutator_container name with
      | Some i -> `Mutator i
      | None -> (
        match
          Cmt_loader.resolve_qualified st.corpus
            (String.split_on_char '.' name)
        with
        | Some (unit_, rest) -> `Corpus (String.concat "." (unit_ :: rest))
        | None -> `External)))

let bind_pat :
    type k. st -> k Typedtree.general_pattern -> NodeSet.t -> unit =
 fun st pat set ->
  List.iter
    (fun (id, _, _, _) ->
      let key = Ident.unique_name id in
      let prev =
        match Hashtbl.find_opt st.env key with
        | Some s -> s
        | None -> NodeSet.empty
      in
      Hashtbl.replace st.env key (NodeSet.union prev set))
    (Callgraph.pat_vars pat)

(* Tokens a closure body captures from the enclosing scope: every
   reference to a token-carrying variable.  A closure value carries
   its captures — stash the closure globally and the captured ref is
   shared state even if the body never returns it. *)
let captured_tokens st (body : Typedtree.expression) =
  let acc = ref NodeSet.empty in
  let default = Tast_iterator.default_iterator in
  let it =
    {
      default with
      expr =
        (fun it e ->
          (match e.exp_desc with
          | Texp_ident (Path.Pident id, _, _) -> (
            match Hashtbl.find_opt st.env (Ident.unique_name id) with
            | Some s -> acc := NodeSet.union !acc s
            | None -> ())
          | _ -> ());
          default.expr it e);
    }
  in
  it.expr it body;
  !acc

let union_all sets = List.fold_left NodeSet.union NodeSet.empty sets

(* [raw_tokens] computes the token set structurally; the [tokens_of]
   wrapper below then drops it when the expression's *type* provably
   cannot carry mutable state ([Cmt_loader.inert_type]).  The type
   filter is what keeps the context-insensitive graph precise: without
   it, every scalar-typed helper ([Document.length : t -> int], digest
   and clock reads, …) becomes a junction that merges all its callers'
   flows. *)
let rec raw_tokens st ctx (e : Typedtree.expression) : NodeSet.t =
  with_allows ctx e.exp_attributes @@ fun () ->
  match e.exp_desc with
  | Texp_ident (p, _, _) -> ident_tokens st e p
  | Texp_constant _ -> NodeSet.empty
  | Texp_let (_, vbs, body) ->
    List.iter (bind_vb st ctx) vbs;
    tokens_of st ctx body
  | Texp_function { cases; _ } ->
    List.iter
      (fun (c : _ Typedtree.case) -> bind_pat st c.c_lhs NodeSet.empty)
      cases;
    let body =
      List.fold_left
        (fun acc (c : _ Typedtree.case) ->
          (match c.c_guard with
          | Some g -> ignore (tokens_of st ctx g)
          | None -> ());
          NodeSet.union acc (tokens_of st ctx c.c_rhs))
        NodeSet.empty cases
    in
    List.fold_left
      (fun acc (c : _ Typedtree.case) ->
        NodeSet.union acc (captured_tokens st c.c_rhs))
      body cases
  | Texp_apply (fn, args) -> apply_tokens st ctx e fn args
  | Texp_match (scrut, cases, _) ->
    let ts = tokens_of st ctx scrut in
    List.fold_left
      (fun acc (c : _ Typedtree.case) ->
        bind_pat st c.c_lhs ts;
        (match c.c_guard with
        | Some g -> ignore (tokens_of st ctx g)
        | None -> ());
        NodeSet.union acc (tokens_of st ctx c.c_rhs))
      NodeSet.empty cases
  | Texp_try (body, cases) ->
    let ts = tokens_of st ctx body in
    List.fold_left
      (fun acc (c : _ Typedtree.case) ->
        bind_pat st c.c_lhs NodeSet.empty;
        NodeSet.union acc (tokens_of st ctx c.c_rhs))
      ts cases
  | Texp_tuple es | Texp_construct (_, _, es) ->
    union_all (List.map (tokens_of st ctx) es)
  | Texp_variant (_, eo) -> (
    match eo with Some e -> tokens_of st ctx e | None -> NodeSet.empty)
  | Texp_record { fields; extended_expression; _ } ->
    let ext =
      match extended_expression with
      | Some e0 -> tokens_of st ctx e0
      | None -> NodeSet.empty
    in
    let fts =
      Array.fold_left
        (fun acc (_, (def : Typedtree.record_label_definition)) ->
          match def with
          | Typedtree.Overridden (_, fe) ->
            NodeSet.union acc (tokens_of st ctx fe)
          | Typedtree.Kept _ -> acc)
        ext fields
    in
    if record_mutability fields then begin
      let t = fresh_alloc st ctx ~kind:(record_kind fields) e.exp_loc in
      store st fts ~into:t
        (Printf.sprintf "stored in %s (%s)" (record_kind fields)
           (loc_str ctx e.exp_loc));
      t
    end
    else fts
  | Texp_field (r, _, _) -> tokens_of st ctx r
  | Texp_setfield (r, _, lbl, v) ->
    let rt = tokens_of st ctx r in
    let vt = tokens_of st ctx v in
    store st vt ~into:rt
      (Printf.sprintf "stored into field %s (%s)" lbl.Types.lbl_name
         (loc_str ctx e.exp_loc));
    NodeSet.empty
  | Texp_array es ->
    let ets = union_all (List.map (tokens_of st ctx) es) in
    let t = fresh_alloc st ctx ~kind:"array" e.exp_loc in
    store st ets ~into:t
      (Printf.sprintf "stored in array literal (%s)" (loc_str ctx e.exp_loc));
    t
  | Texp_ifthenelse (c, t, eo) ->
    ignore (tokens_of st ctx c);
    let tt = tokens_of st ctx t in
    let et =
      match eo with Some e -> tokens_of st ctx e | None -> NodeSet.empty
    in
    NodeSet.union tt et
  | Texp_sequence (a, b) ->
    ignore (tokens_of st ctx a);
    tokens_of st ctx b
  | Texp_while (c, body) ->
    ignore (tokens_of st ctx c);
    ignore (tokens_of st ctx body);
    NodeSet.empty
  | Texp_for (id, _, lo, hi, _, body) ->
    ignore (tokens_of st ctx lo);
    ignore (tokens_of st ctx hi);
    Hashtbl.replace st.env (Ident.unique_name id) NodeSet.empty;
    ignore (tokens_of st ctx body);
    NodeSet.empty
  | Texp_lazy e -> tokens_of st ctx e
  | Texp_assert (e, _) ->
    ignore (tokens_of st ctx e);
    NodeSet.empty
  | Texp_open (_, body) -> tokens_of st ctx body
  | Texp_letmodule (Some id, _, _, me, _) ->
    add_alias st id me;
    children_tokens st ctx e
  | _ -> children_tokens st ctx e

(* Catch-all for constructs without a dedicated case (letop, objects,
   local modules, …): union the token sets of the direct
   sub-expressions so flows are never silently dropped. *)
and children_tokens st ctx (e : Typedtree.expression) =
  let acc = ref NodeSet.empty in
  let it =
    {
      Tast_iterator.default_iterator with
      expr = (fun _ ce -> acc := NodeSet.union !acc (tokens_of st ctx ce));
    }
  in
  Tast_iterator.default_iterator.expr it e;
  !acc

and tokens_of st ctx (e : Typedtree.expression) : NodeSet.t =
  let ts = raw_tokens st ctx e in
  if NodeSet.is_empty ts then ts
  else
    let home =
      match String.rindex_opt ctx.def_id '.' with
      | Some i -> String.sub ctx.def_id 0 i
      | None -> ctx.def_id
    in
    if Cmt_loader.inert_type ~home st.corpus e.exp_type then NodeSet.empty
    else ts

and ident_tokens st (e : Typedtree.expression) p =
  match p with
  | Path.Pident id -> (
    match Hashtbl.find_opt st.env (Ident.unique_name id) with
    | Some s -> s
    | None -> NodeSet.empty)
  | _ ->
    (* A module-path read: if the value's type is mutable, it *is*
       module-level shared state, so anything stored into it
       escapes. *)
    if Option.is_some (Cmt_loader.mutable_kind st.corpus e.exp_type) then
      NodeSet.singleton Global
    else NodeSet.empty

and bind_vb st ctx (vb : Typedtree.value_binding) =
  with_allows ctx vb.vb_attributes @@ fun () ->
  bind_pat st vb.vb_pat (tokens_of st ctx vb.vb_expr)

and apply_tokens st ctx (e : Typedtree.expression) fn args =
  let arg_exprs = List.filter_map (fun (_, a) -> a) args in
  match fn.exp_desc with
  | Texp_ident (p, _, _) -> (
    match resolve_head st p with
    | `Allocator kind ->
      let ats = List.map (tokens_of st ctx) arg_exprs in
      let t = fresh_alloc st ctx ~kind e.exp_loc in
      List.iter
        (fun s ->
          store st s ~into:t
            (Printf.sprintf "stored in %s (%s)" kind (loc_str ctx e.exp_loc)))
        ats;
      t
    | `Mutator idx ->
      let ats = List.map (tokens_of st ctx) arg_exprs in
      (match List.nth_opt ats idx with
      | Some container ->
        List.iteri
          (fun i s ->
            if i <> idx then
              store st s ~into:container
                (Printf.sprintf "stored via %s (%s)"
                   (Cmt_loader.strip_stdlib (Path.name p))
                   (loc_str ctx e.exp_loc)))
          ats
      | None -> ());
      NodeSet.empty
    | `Corpus d_id ->
      List.iter
        (fun ae ->
          let s = tokens_of st ctx ae in
          flow st s (Params d_id)
            (Printf.sprintf "passed to %s (%s)" (disp_of st d_id)
               (loc_str ctx ae.Typedtree.exp_loc)))
        arg_exprs;
      NodeSet.singleton (Ret d_id)
    | `Closure s ->
      let argu = union_all (List.map (tokens_of st ctx) arg_exprs) in
      store st argu ~into:s
        (Printf.sprintf "passed to local closure (%s)"
           (loc_str ctx e.exp_loc));
      NodeSet.union s argu
    | `External ->
      (* unknown call: the result may carry the arguments (List.map,
         Option.value, …) but is not assumed to stash them *)
      union_all (List.map (tokens_of st ctx) arg_exprs))
  | _ ->
    let ft = tokens_of st ctx fn in
    union_all (ft :: List.map (tokens_of st ctx) arg_exprs)

(* --- per-unit walk ----------------------------------------------------- *)

(* Peel the parameter lambdas of a module-level function definition:
   parameters carry the [Params def] summary token, and the innermost
   body's tokens flow to [Ret def]. *)
let rec walk_function st ctx d_id (e : Typedtree.expression) =
  with_allows ctx e.exp_attributes @@ fun () ->
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.iter
      (fun (c : _ Typedtree.case) ->
        bind_pat st c.c_lhs (NodeSet.singleton (Params d_id)))
      cases;
    List.iter
      (fun (c : _ Typedtree.case) ->
        match c.c_guard with
        | Some g -> ignore (tokens_of st ctx g)
        | None -> ())
      cases;
    (match cases with
    | [ c ] -> walk_function st ctx d_id c.c_rhs
    | cs ->
      List.iter
        (fun (c : _ Typedtree.case) ->
          flow st
            (tokens_of st ctx c.c_rhs)
            (Ret d_id)
            (Printf.sprintf "returned from %s" ctx.def_disp))
        cs)
  | _ ->
    flow st (tokens_of st ctx e) (Ret d_id)
      (Printf.sprintf "returned from %s" ctx.def_disp)

let is_function (e : Typedtree.expression) =
  match e.exp_desc with Texp_function _ -> true | _ -> false

(* [let alias = Other.f]: connect the alias's summary nodes to the
   target's so flows through eta-style re-exports keep composing. *)
let alias_target st (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, _) -> (
    match resolve_head st p with `Corpus d_id -> Some d_id | _ -> None)
  | _ -> None

let walk_unit st reached (u : Cmt_loader.unit_info) =
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
  let skip_allocs = in_obs_seam u.source in
  let ctx_for prefix name =
    let def_id = String.concat "." (u.modname :: (prefix @ [ name ])) in
    let def_disp = String.concat "." (short :: (prefix @ [ name ])) in
    Hashtbl.replace st.disp def_id def_disp;
    {
      file = u.source;
      def_id;
      def_disp;
      skip_allocs;
      allows = ref [];
      file_allows;
    }
  in
  let module_vb prefix (vb : Typedtree.value_binding) =
    let name =
      match Callgraph.pat_vars vb.vb_pat with
      | (_, name, _, _) :: _ -> name
      | [] -> "(init)"
    in
    let ctx = ctx_for prefix name in
    with_allows ctx vb.vb_attributes @@ fun () ->
    if is_function vb.vb_expr then begin
      (* bind the name first so recursive references resolve *)
      walk_function st ctx ctx.def_id vb.vb_expr
    end
    else begin
      (match alias_target st vb.vb_expr with
      | Some target ->
        add_edge st (Params ctx.def_id) (Params target)
          (Printf.sprintf "via alias %s" ctx.def_disp);
        add_edge st (Ret target) (Ret ctx.def_id)
          (Printf.sprintf "via alias %s" ctx.def_disp)
      | None -> ());
      let ts = tokens_of st ctx vb.vb_expr in
      flow st ts Global
        (Printf.sprintf "module-level binding %s (%s:%d)" ctx.def_disp
           u.source vb.vb_loc.Location.loc_start.Lexing.pos_lnum);
      bind_pat st vb.vb_pat ts;
      (* the summary nodes of a module-level value used as a function
         elsewhere (a non-lambda binding can still be an arrow) also
         live at module scope *)
      if not (NodeSet.is_empty ts) then
        flow st ts (Ret ctx.def_id) "carried by module binding"
    end
  in
  let rec structure prefix (str : Typedtree.structure) =
    List.iter (item prefix) str.str_items
  and item prefix (si : Typedtree.structure_item) =
    match si.str_desc with
    | Tstr_value (_, vbs) -> List.iter (module_vb prefix) vbs
    | Tstr_eval (e, attrs) ->
      let ctx = ctx_for prefix "(init)" in
      with_allows ctx attrs @@ fun () -> ignore (tokens_of st ctx e)
    | Tstr_module mb -> module_binding prefix mb
    | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | _ -> ()
  and module_binding prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id ->
      add_alias st id mb.mb_expr;
      module_expr (prefix @ [ Ident.name id ]) mb.mb_expr
  and module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> structure prefix str
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | Tmod_functor (_, me) -> module_expr prefix me
    | _ -> ()
  in
  ignore reached;
  (* Stamps restart in every unit, so aliases are per unit. *)
  Hashtbl.reset st.aliases;
  structure [] u.str

(* --- verdicts ---------------------------------------------------------- *)

(* BFS over the held-by graph from one allocation.  The first path to
   [Global] is the escape witness; failing that, the first summary
   node ([Ret]/[Params]) shows how it leaves its function; failing
   that it is stack-confined. *)
let classify_alloc st (a : alloc) =
  let seen = NodeTbl.create 64 in
  let q = Queue.create () in
  let parent = NodeTbl.create 64 in
  NodeTbl.replace seen (Alloc a.a_idx) ();
  Queue.add (Alloc a.a_idx) q;
  let global_hit = ref None in
  let summary_hit = ref None in
  (try
     while not (Queue.is_empty q) do
       let n = Queue.pop q in
       (match n with
       | Global ->
         global_hit := Some n;
         raise Exit
       | Ret _ | Params _ ->
         if Option.is_none !summary_hit then summary_hit := Some n
       | Alloc _ -> ());
       match NodeTbl.find_opt st.edges n with
       | None -> ()
       | Some cell ->
         List.iter
           (fun (dst, label) ->
             if not (NodeTbl.mem seen dst) then begin
               NodeTbl.replace seen dst ();
               NodeTbl.replace parent dst (n, label);
               Queue.add dst q
             end)
           (List.rev !cell)
     done
   with Exit -> ());
  let chain_to target =
    let rec go n acc =
      match NodeTbl.find_opt parent n with
      | Some (p, label) -> go p (label :: acc)
      | None -> acc
    in
    Printf.sprintf "%s allocated in %s (%s:%d)" a.a_kind a.a_def_disp a.a_file
      a.a_line
    :: go target []
  in
  match (!global_hit, !summary_hit) with
  | Some g, _ ->
    a.a_verdict <- Escaping;
    a.a_chain <- chain_to g
  | None, Some s ->
    a.a_verdict <- Instance_confined;
    a.a_chain <- chain_to s
  | None, None ->
    a.a_verdict <- Stack_confined;
    a.a_chain <- []

let analyze ?(reached = []) corpus =
  let st =
    {
      corpus;
      allocs_rev = [];
      n_allocs = 0;
      by_site = Hashtbl.create 256;
      edges = NodeTbl.create 1024;
      local = Hashtbl.create 512;
      disp = Hashtbl.create 512;
      env = Hashtbl.create 1024;
      aliases = Hashtbl.create 16;
    }
  in
  (* pass 1: module-level binding idents -> def node ids, so same-unit
     applications resolve by stamp, mirroring the callgraph *)
  let collect (u : Cmt_loader.unit_info) =
    let rec structure prefix (str : Typedtree.structure) =
      List.iter (item prefix) str.str_items
    and item prefix (si : Typedtree.structure_item) =
      match si.str_desc with
      | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            List.iter
              (fun (id, name, _, _) ->
                let d_id =
                  String.concat "." (u.modname :: (prefix @ [ name ]))
                in
                Hashtbl.replace st.local (Ident.unique_name id) d_id;
                Hashtbl.replace st.disp d_id
                  (String.concat "."
                     (Cmt_loader.short_base u.modname :: (prefix @ [ name ]))))
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
  List.iter collect (Cmt_loader.units corpus);
  (* pass 2: value flow *)
  List.iter (walk_unit st reached) (Cmt_loader.units corpus);
  (* verdicts *)
  let reached_tbl = Hashtbl.create 256 in
  List.iter (fun id -> Hashtbl.replace reached_tbl id ()) reached;
  let allocs =
    List.sort
      (fun a b ->
        match String.compare a.a_file b.a_file with
        | 0 -> (
          match Int.compare a.a_line b.a_line with
          | 0 -> Int.compare a.a_col b.a_col
          | c -> c)
        | c -> c)
      (List.rev st.allocs_rev)
  in
  List.iter
    (fun a ->
      a.a_reachable <- Hashtbl.mem reached_tbl a.a_def;
      classify_alloc st a)
    allocs;
  { allocs }

(* --- reporting --------------------------------------------------------- *)

let findings { allocs } =
  List.filter_map
    (fun a ->
      match a.a_verdict with
      | Escaping when (not a.a_suppressed) && (not a.a_exempt) && a.a_reachable
        ->
        Some
          (Finding.v ~chain:a.a_chain ~file:a.a_file ~line:a.a_line
             ~col:a.a_col ~rule:"escape"
             (Printf.sprintf
                "%s allocated in %s escapes to module-level state and is \
                 shared the moment documents are pinned to domains; confine \
                 it to an instance or suppress with a sharding justification"
                a.a_kind a.a_def_disp))
      | _ -> None)
    allocs

let unsuppressed_escaping { allocs } =
  List.length
    (List.filter
       (fun a ->
         a.a_verdict == Escaping && (not a.a_suppressed) && (not a.a_exempt)
         && a.a_reachable)
       allocs)

let report_json { allocs } =
  let count v =
    List.length (List.filter (fun a -> a.a_verdict == v) allocs)
  in
  let reachable =
    List.length (List.filter (fun a -> a.a_reachable) allocs)
  in
  let open Rlist_obs.Json in
  let entry a =
    Obj
      [ "def", Str a.a_def_disp; "file", Str a.a_file; "line", Int a.a_line;
        "col", Int a.a_col; "kind", Str a.a_kind;
        "class", Str (verdict_name a.a_verdict);
        "reachable", Bool a.a_reachable; "exempt", Bool a.a_exempt;
        "suppressed", Bool a.a_suppressed;
        "chain", List (List.map (fun l -> Str l) a.a_chain) ]
  in
  Obj
    [ "version", Int 1; "total", Int (List.length allocs);
      "reachable", Int reachable;
      ( "classes",
        Obj
          [ "stack-confined", Int (count Stack_confined);
            "instance-confined", Int (count Instance_confined);
            "escaping", Int (count Escaping) ] );
      "escaping_unsuppressed", Int (unsuppressed_escaping { allocs });
      "entries", List (List.map entry allocs) ]
