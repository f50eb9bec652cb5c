(* See json.mli. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Fixed of int * float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* --- printing --------------------------------------------------------- *)

let add_string b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_sep b add xs =
  List.iteri
    (fun i x ->
      if i > 0 then Buffer.add_string b ", ";
      add x)
    xs

let rec add b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Int n -> Buffer.add_string b (string_of_int n)
  | Fixed (d, x) when Float.is_finite x -> Printf.bprintf b "%.*f" d x
  | Fixed _ -> Buffer.add_string b "null"
  | Str s -> add_string b s
  | List vs ->
    Buffer.add_char b '[';
    add_sep b (add b) vs;
    Buffer.add_char b ']'
  | Obj ms ->
    Buffer.add_char b '{';
    add_sep b
      (fun (k, v) ->
        add_string b k;
        Buffer.add_string b ": ";
        add b v)
      ms;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  add b v;
  Buffer.contents b

let opt f = function None -> Null | Some x -> f x

(* --- parsing ---------------------------------------------------------- *)

exception Fail of int * string

(* Deeper nesting is refused rather than risking the stack. *)
let max_depth = 512

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise_notrace (Fail (!pos, msg)) in
  let at c = !pos < n && Char.equal s.[!pos] c in
  let next () =
    if !pos >= n then fail "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  let expect c =
    if at c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let rec skip_ws () =
    if at ' ' || at '\t' || at '\n' || at '\r' then begin
      incr pos;
      skip_ws ()
    end
  in
  let digits () =
    let start = !pos in
    while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
      incr pos
    done;
    !pos - start
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.equal (String.sub s !pos len) word then begin
      pos := !pos + len;
      v
    end
    else fail "invalid literal"
  in
  let hex4 () =
    let code = ref 0 in
    for _ = 1 to 4 do
      let d =
        match next () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d
    done;
    !code
  in
  let uchar () =
    match hex4 () with
    | hi when hi >= 0xD800 && hi <= 0xDBFF ->
      expect '\\';
      expect 'u';
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    | lo when lo >= 0xDC00 && lo <= 0xDFFF -> fail "unpaired surrogate"
    | u -> u
  in
  (* After the opening quote. *)
  let string () =
    let b = Buffer.create 16 in
    let rec loop () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (uchar ()))
        | _ -> fail "invalid escape");
        loop ()
      | c when Char.code c < 0x20 -> fail "control character in string"
      | c ->
        Buffer.add_char b c;
        loop ()
    in
    loop ()
  in
  let number () =
    let start = !pos in
    if at '-' then incr pos;
    if at '0' then incr pos else if digits () = 0 then fail "invalid number";
    let frac =
      if at '.' then begin
        incr pos;
        let d = digits () in
        if d = 0 then fail "invalid number";
        d
      end
      else 0
    in
    let exp = at 'e' || at 'E' in
    if exp then begin
      incr pos;
      if at '+' || at '-' then incr pos;
      if digits () = 0 then fail "invalid number"
    end;
    let lit = String.sub s start (!pos - start) in
    match int_of_string_opt lit with
    | Some i when frac = 0 && not exp -> Int i
    | _ -> Fixed (frac, float_of_string lit)
  in
  (* Comma-separated [item]s up to [close], the opener consumed. *)
  let items close item =
    skip_ws ();
    if at close then begin
      incr pos;
      []
    end
    else
      let rec more acc =
        let acc = item () :: acc in
        skip_ws ();
        match next () with
        | ',' -> more acc
        | c when Char.equal c close -> List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      more []
  in
  let rec value depth =
    if depth > max_depth then fail "nesting too deep";
    skip_ws ();
    match next () with
    | '{' ->
      Obj
        (items '}' (fun () ->
             skip_ws ();
             expect '"';
             let k = string () in
             skip_ws ();
             expect ':';
             (k, value (depth + 1))))
    | '[' -> List (items ']' (fun () -> value (depth + 1)))
    | '"' -> Str (string ())
    | 'n' -> literal "ull" Null
    | 't' -> literal "rue" (Bool true)
    | 'f' -> literal "alse" (Bool false)
    | '-' | '0' .. '9' ->
      decr pos;
      number ()
    | _ -> fail "unexpected character"
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos < n then fail "trailing characters";
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) -> Error (Printf.sprintf "offset %d: %s" at msg)

let member key = function
  | Obj ms -> List.assoc_opt key ms
  | Null | Bool _ | Int _ | Fixed _ | Str _ | List _ -> None
