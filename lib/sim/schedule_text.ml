open Rlist_model

type file = {
  nclients : int;
  initial : Document.t;
  events : Schedule.t;
}

let printable c = c > ' ' && c < '\x7f'

let intent_to_string = function
  | Intent.Insert (c, p) -> Printf.sprintf "ins %c %d" c p
  | Intent.Delete p -> Printf.sprintf "del %d" p
  | Intent.Read -> "read"

let intent_of_tokens = function
  | [ "read" ] -> Some Intent.Read
  | [ "del"; p ] -> Option.map (fun p -> Intent.Delete p) (int_of_string_opt p)
  | [ "ins"; c; p ] when String.length c = 1 ->
    Option.map (fun p -> Intent.Insert (c.[0], p)) (int_of_string_opt p)
  | _ -> None

let event_to_string = function
  | Schedule.Generate (_, Intent.Insert (c, _)) when not (printable c) ->
    invalid_arg "Schedule_text: unprintable character in insert"
  | Schedule.Generate (i, intent) ->
    Printf.sprintf "gen %d %s" i (intent_to_string intent)
  | Schedule.Deliver_to_server i -> Printf.sprintf "c2s %d" i
  | Schedule.Deliver_to_client i -> Printf.sprintf "s2c %d" i

let printable_initial s =
  if not (String.for_all printable s) then
    invalid_arg "Schedule_text: unprintable initial document"

let to_string ?(initial = Document.empty) ~nclients events =
  let b = Buffer.create 1024 in
  Printf.bprintf b "# jupiter schedule\nclients %d\n" nclients;
  if not (Document.is_empty initial) then begin
    let s = Document.to_string initial in
    printable_initial s;
    Printf.bprintf b "initial %s\n" s
  end;
  List.iter (fun ev -> Printf.bprintf b "%s\n" (event_to_string ev)) events;
  Buffer.contents b

let of_string text =
  let int = Line_format.int and fail = Line_format.fail in
  let nclients = ref None in
  let initial = ref Document.empty in
  let events = ref [] in
  let event e = events := e :: !events in
  Line_format.parse text
    (function
      | [ "clients"; n ] ->
        let n = int n in
        if n < 1 then fail "bad client count %d" n;
        nclients := Some n
      | [ "initial"; s ] ->
        printable_initial s;
        initial := Document.of_string s
      | "gen" :: i :: intent -> (
        match intent_of_tokens intent with
        | Some (Intent.Insert (c, _)) when not (printable c) ->
          fail "unprintable character in insert"
        | Some intent -> event (Schedule.Generate (int i, intent))
        | None -> fail "bad intent %S" (String.concat " " intent))
      | [ "c2s"; i ] -> event (Schedule.Deliver_to_server (int i))
      | [ "s2c"; i ] -> event (Schedule.Deliver_to_client (int i))
      | tokens -> fail "unrecognized directive %S" (String.concat " " tokens))
    (fun () ->
      match !nclients with
      | None -> Error "missing 'clients' directive"
      | Some nclients ->
        let events = List.rev !events in
        Result.map
          (fun () -> { nclients; initial = !initial; events })
          (Schedule.validate ~nclients events))
  |> Result.join

let save ~path ?initial ~nclients events =
  Line_format.save ~path (to_string ?initial ~nclients events)

let load ~path = Line_format.load ~path of_string
