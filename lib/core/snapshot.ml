open Rlist_model
open Rlist_ot

(* Line-oriented format:

     css-client 1
     client <id> <next_seq>
     delt <char-code> <client> <seq>         one per document element
     serial <client> <seq> <serial>
     root <c.s>*
     final <c.s>*
     node <c.s>*                             then its transitions:
     tr <c> <s> ins <code> <ec> <es> <pos>
     tr <c> <s> del <code> <ec> <es> <pos>
     tr <c> <s> nop

   A transition's target is implicit: source + its original operation.
   Identifier tokens are "c.s"; initial elements use client 0. *)

let id_token id = Printf.sprintf "%d.%d" id.Op_id.client id.Op_id.seq

let state_tokens state =
  String.concat " " (List.map id_token (Op_id.Set.canonical state))

let form_tokens (form : Op.t) =
  match form.Op.action with
  | Op.Ins (e, p) ->
    Printf.sprintf "ins %d %d %d %d" (Char.code e.Element.value)
      e.Element.id.Op_id.client e.Element.id.Op_id.seq p
  | Op.Del (e, p) ->
    Printf.sprintf "del %d %d %d %d" (Char.code e.Element.value)
      e.Element.id.Op_id.client e.Element.id.Op_id.seq p
  | Op.Nop -> "nop"

let client_to_string client =
  let id, next_seq, doc, serials = Protocol.client_state client in
  let space = Protocol.client_space client in
  let buffer = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "css-client 1";
  line "client %d %d" id next_seq;
  Document.iter
    (fun e ->
      line "delt %d %d %d" (Char.code e.Element.value) e.Element.id.Op_id.client
        e.Element.id.Op_id.seq)
    doc;
  List.iter
    (fun (op_id, serial) ->
      line "serial %d %d %d" op_id.Op_id.client op_id.Op_id.seq serial)
    (List.sort
       (fun (a, _) (b, _) -> Op_id.compare a b)
       serials);
  line "root %s" (state_tokens (State_space.root space));
  line "final %s" (state_tokens (State_space.final space));
  List.iter
    (fun (state, transitions) ->
      line "node %s" (state_tokens state);
      List.iter
        (fun tr ->
          line "tr %d %d %s" tr.State_space.orig.Op_id.client
            tr.State_space.orig.Op_id.seq
            (form_tokens tr.State_space.form))
        transitions)
    (List.sort
       (fun (s1, _) (s2, _) -> Op_id.Set.compare s1 s2)
       (State_space.listing space));
  Buffer.contents buffer

let client_of_string text =
  let fail lineno fmt =
    Format.kasprintf
      (fun s ->
        invalid_arg (Printf.sprintf "Snapshot: line %d: %s" lineno s))
      fmt
  in
  let parse_int lineno s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail lineno "bad integer %S" s
  in
  let parse_id lineno token =
    match String.split_on_char '.' token with
    | [ c; s ] -> (
      let c = parse_int lineno c and s = parse_int lineno s in
      if c = 0 then Op_id.initial ~seq:s else Op_id.make ~client:c ~seq:s)
    | _ -> fail lineno "bad identifier token %S" token
  in
  let parse_state lineno tokens =
    Op_id.Set.of_list (List.map (parse_id lineno) tokens)
  in
  let parse_form lineno orig tokens =
    match tokens with
    | [ "nop" ] -> Op.nop ~id:orig
    | [ "ins"; code; ec; es; pos ] ->
      let value = Char.chr (parse_int lineno code) in
      let eid =
        let c = parse_int lineno ec and s = parse_int lineno es in
        if c = 0 then Op_id.initial ~seq:s else Op_id.make ~client:c ~seq:s
      in
      Op.make_ins ~id:orig (Element.make ~value ~id:eid) (parse_int lineno pos)
    | [ "del"; code; ec; es; pos ] ->
      let value = Char.chr (parse_int lineno code) in
      let eid =
        let c = parse_int lineno ec and s = parse_int lineno es in
        if c = 0 then Op_id.initial ~seq:s else Op_id.make ~client:c ~seq:s
      in
      Op.make_del ~id:orig (Element.make ~value ~id:eid) (parse_int lineno pos)
    | _ -> fail lineno "bad transition form"
  in
  let header = ref false in
  let id = ref 0 in
  let next_seq = ref 1 in
  let doc_elements = ref [] in
  let serials = ref [] in
  let root = ref None in
  let final = ref None in
  let nodes = ref [] in  (* (state, transitions rev) list, reversed *)
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line with
        | [ "css-client"; "1" ] -> header := true
        | "css-client" :: v -> fail lineno "unsupported version %s" (String.concat " " v)
        | [ "client"; i; seq ] ->
          id := parse_int lineno i;
          next_seq := parse_int lineno seq
        | [ "delt"; code; ec; es ] ->
          let value = Char.chr (parse_int lineno code) in
          let c = parse_int lineno ec and s = parse_int lineno es in
          let eid =
            if c = 0 then Op_id.initial ~seq:s else Op_id.make ~client:c ~seq:s
          in
          doc_elements := Element.make ~value ~id:eid :: !doc_elements
        | [ "serial"; c; s; serial ] ->
          serials :=
            ( Op_id.make ~client:(parse_int lineno c) ~seq:(parse_int lineno s),
              parse_int lineno serial )
            :: !serials
        | "root" :: tokens -> root := Some (parse_state lineno tokens)
        | "final" :: tokens -> final := Some (parse_state lineno tokens)
        | "node" :: tokens ->
          nodes := (parse_state lineno tokens, []) :: !nodes
        | "tr" :: c :: s :: form_tokens -> (
          match !nodes with
          | [] -> fail lineno "transition before any node"
          | (state, transitions) :: rest ->
            let orig =
              Op_id.make ~client:(parse_int lineno c) ~seq:(parse_int lineno s)
            in
            let form = parse_form lineno orig form_tokens in
            let target = Op_id.Set.add orig state in
            nodes :=
              (state, { State_space.orig; form; target } :: transitions)
              :: rest)
        | _ -> fail lineno "unrecognized directive %S" line)
    (String.split_on_char '\n' text);
  if not !header then invalid_arg "Snapshot: missing css-client header";
  match !root, !final with
  | None, _ | _, None -> invalid_arg "Snapshot: missing root or final state"
  | Some root, Some final ->
    Protocol.rebuild_client ~id:!id ~next_seq:!next_seq
      ~doc:(Document.of_elements (List.rev !doc_elements))
      ~serials:!serials
      ~space:(List.rev_map (fun (s, trs) -> s, List.rev trs) !nodes)
      ~root ~final

(* --- stable snapshots ---------------------------------------------- *)

(* The stable snapshot is the Raft-style compaction artifact: the
   document at the acked-stable frontier plus the serial it covers.
   It deliberately carries no state-space — everything at or below
   [at_serial] has been executed at every replica, so the ladder above
   it is reconstructible from the retained log suffix.

     css-stable 1
     at <serial>
     delt <char-code> <client> <seq>         one per document element *)

type stable = {
  at_serial : int;
  stable_doc : Document.t;
}

let stable_to_string { at_serial; stable_doc } =
  let buffer = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buffer (s ^ "\n")) fmt in
  line "css-stable 1";
  line "at %d" at_serial;
  Document.iter
    (fun e ->
      line "delt %d %d %d" (Char.code e.Element.value) e.Element.id.Op_id.client
        e.Element.id.Op_id.seq)
    stable_doc;
  Buffer.contents buffer

let stable_of_string text =
  let fail lineno fmt =
    Format.kasprintf
      (fun s -> invalid_arg (Printf.sprintf "Snapshot: line %d: %s" lineno s))
      fmt
  in
  let parse_int lineno s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> fail lineno "bad integer %S" s
  in
  let header = ref false in
  let at_serial = ref 0 in
  let doc_elements = ref [] in
  List.iteri
    (fun idx raw ->
      let lineno = idx + 1 in
      let line = String.trim raw in
      if line = "" || line.[0] = '#' then ()
      else
        match String.split_on_char ' ' line with
        | [ "css-stable"; "1" ] -> header := true
        | "css-stable" :: v ->
          fail lineno "unsupported version %s" (String.concat " " v)
        | [ "at"; serial ] -> at_serial := parse_int lineno serial
        | [ "delt"; code; ec; es ] ->
          let value = Char.chr (parse_int lineno code) in
          let c = parse_int lineno ec and s = parse_int lineno es in
          let eid =
            if c = 0 then Op_id.initial ~seq:s else Op_id.make ~client:c ~seq:s
          in
          doc_elements := Element.make ~value ~id:eid :: !doc_elements
        | _ -> fail lineno "unrecognized directive %S" line)
    (String.split_on_char '\n' text);
  if not !header then invalid_arg "Snapshot: missing css-stable header";
  {
    at_serial = !at_serial;
    stable_doc = Document.of_elements (List.rev !doc_elements);
  }

let save_client ~path client =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (client_to_string client))

let load_client ~path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      client_of_string (really_input_string ic n))
