open Rlist_model

let state_label state =
  if Op_id.Set.is_empty state then "0"
  else
    String.concat ""
      (List.map
         (fun id -> Format.asprintf "%a " Op_id.pp id)
         (Op_id.Set.canonical state))
    |> String.trim

let doc_table t ~initial =
  let docs = Analysis.documents t ~initial in
  fun state ->
    match List.find_opt (fun (s, _) -> Op_id.Set.equal s state) docs with
    | Some (_, doc) -> Document.to_string doc
    | None -> "?"

let to_dot t ~initial ~name =
  let buffer = Buffer.create 1024 in
  let doc_of = doc_table t ~initial in
  let node_id state = "\"" ^ state_label state ^ "\"" in
  Buffer.add_string buffer (Printf.sprintf "digraph %S {\n" name);
  Buffer.add_string buffer "  rankdir=TB;\n  ordering=out;\n";
  Buffer.add_string buffer "  node [shape=box, fontname=\"monospace\"];\n";
  let listing = State_space.listing t in
  List.iter
    (fun (state, _) ->
      Buffer.add_string buffer
        (Printf.sprintf "  %s [label=\"{%s}\\n%S\"];\n" (node_id state)
           (state_label state) (doc_of state)))
    listing;
  List.iter
    (fun (state, transitions) ->
      List.iter
        (fun tr ->
          Buffer.add_string buffer
            (Printf.sprintf "  %s -> %s [label=%S];\n" (node_id state)
               (node_id tr.State_space.target)
               (Rlist_ot.Op.to_string tr.State_space.form)))
        transitions)
    listing;
  Buffer.add_string buffer "}\n";
  Buffer.contents buffer

let to_ascii t ~initial =
  let buffer = Buffer.create 1024 in
  let doc_of = doc_table t ~initial in
  let by_level =
    List.sort
      (fun (s1, _) (s2, _) ->
        match
          Int.compare (Op_id.Set.cardinal s1) (Op_id.Set.cardinal s2)
        with
        | 0 -> Op_id.Set.compare s1 s2
        | c -> c)
      (State_space.listing t)
  in
  List.iter
    (fun (state, transitions) ->
      Buffer.add_string buffer
        (Printf.sprintf "{%s} %S\n" (state_label state) (doc_of state));
      List.iter
        (fun tr ->
          Buffer.add_string buffer
            (Printf.sprintf "  --%s--> {%s}\n"
               (Rlist_ot.Op.to_string tr.State_space.form)
               (state_label tr.State_space.target)))
        transitions)
    by_level;
  Buffer.contents buffer

let path_to_ascii t ~initial path =
  let doc_of = doc_table t ~initial in
  String.concat "\n"
    (List.map
       (fun state ->
         Printf.sprintf "{%s} %S" (state_label state) (doc_of state))
       path)
