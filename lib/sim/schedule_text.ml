open Rlist_model

type file = {
  nclients : int;
  initial : Document.t;
  events : Schedule.t;
}

let printable c = c > ' ' && c < '\x7f'

(* The two [invalid_arg]s below are {!to_string}'s documented refusal
   of text it could not read back; inside {!of_string}, the line reader
   turns [printable_initial]'s into an [Error]. *)
let event_to_string = function
  | Schedule.Generate (_, Intent.Insert (c, _)) when not (printable c) ->
    (invalid_arg "Schedule_text: unprintable character in insert")
    [@lint.allow "exn-partial"]
  | ev ->
    Rlist_obs.Recorder.decision_to_string
      (match ev with
      | Schedule.Generate (client, intent) -> Generate { client; intent }
      | Schedule.Deliver_to_server i -> Deliver_to_server i
      | Schedule.Deliver_to_client i -> Deliver_to_client i)

let printable_initial s =
  if not (String.for_all printable s) then
    (invalid_arg "Schedule_text: unprintable initial document")
    [@lint.allow "exn-partial"]

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
  let int = Rlist_obs.Line_format.int and fail = Rlist_obs.Line_format.fail in
  let nclients = ref None in
  let initial = ref Document.empty in
  let events = ref [] in
  let event e = events := e :: !events in
  Rlist_obs.Line_format.parse text
    (fun ~line:_ -> function
      | [ "clients"; n ] ->
        let n = int n in
        if n < 1 then fail "bad client count %d" n;
        nclients := Some n
      | [ "initial"; s ] ->
        printable_initial s;
        initial := Document.of_string s
      | "gen" :: i :: intent -> (
        let intent = String.concat " " intent in
        match Intent.of_string intent with
        | Some (Intent.Insert (c, _)) when not (printable c) ->
          fail "unprintable character in insert"
        | Some intent -> event (Schedule.Generate (int i, intent))
        | None -> fail "bad intent %S" intent)
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
  Rlist_obs.Line_format.save ~path (to_string ?initial ~nclients events)

let load ~path = Rlist_obs.Line_format.load ~path of_string
