exception Bad of string

(* The reader's one raise: [guard] catches [Bad] around every
   directive and around [finish], so [parse] itself never raises. *)
let fail fmt =
  Format.kasprintf (fun s -> (raise (Bad s)) [@lint.allow "exn-partial"]) fmt

let int s =
  match int_of_string_opt s with Some n -> n | None -> fail "bad integer %S" s

let guard f = try Ok (f ()) with Bad msg | Invalid_argument msg -> Error msg

let parse ?header text directive finish =
  (* [true] for the header line, which must carry the right version. *)
  let line lineno tokens =
    match header, tokens with
    | Some (name, version), first :: rest when String.equal first name -> (
      match rest with
      | [ v ] when String.equal v version -> true
      | _ -> fail "unsupported version %s" (String.concat " " rest))
    | _ ->
      directive ~line:lineno tokens;
      false
  in
  let rec go lineno seen = function
    | [] -> (
      match header with
      | Some (name, _) when not seen ->
        Error (Printf.sprintf "missing %s header" name)
      | _ -> guard finish)
    | raw :: rest -> (
      let raw = String.trim raw in
      if String.equal raw "" || Char.equal raw.[0] '#' then
        go (lineno + 1) seen rest
      else
        match guard (fun () -> line lineno (String.split_on_char ' ' raw)) with
        | Ok header -> go (lineno + 1) (seen || header) rest
        | Error msg -> Error (Printf.sprintf "line %d: %s" lineno msg))
  in
  go 1 false (String.split_on_char '\n' text)

let save ~path text =
  Out_channel.with_open_text path (fun oc -> output_string oc text)

let load ~path parse =
  match In_channel.with_open_text path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg
