type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  msg : string;
  chain : string list;
}

let v ?(chain = []) ~file ~line ~col ~rule msg =
  { file; line; col; rule; msg; chain }

let compare a b =
  match String.compare a.file b.file with
  | 0 -> (
    match Int.compare a.line b.line with
    | 0 -> (
      match Int.compare a.col b.col with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
    | c -> c)
  | c -> c

let pp ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s] %s" f.file f.line f.col f.rule f.msg;
  match f.chain with
  | [] -> ()
  | chain ->
    Format.fprintf ppf "@\n    via %s" (String.concat " -> " chain)

let to_json f =
  let open Rlist_obs.Json in
  let family =
    match Rules.find f.rule with
    | Some r -> Rules.family_name r.Rules.family
    | None -> "unknown"
  in
  let chain =
    match f.chain with
    | [] -> []
    | links -> [ "chain", List (List.map (fun l -> Str l) links) ]
  in
  Obj
    ([ "file", Str f.file; "line", Int f.line; "col", Int f.col;
       "rule", Str f.rule; "family", Str family; "message", Str f.msg ]
    @ chain)
