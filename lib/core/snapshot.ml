open Rlist_model
open Rlist_ot
module L = Rlist_obs.Line_format

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
   Every snapshot is read through [Rlist_obs.Line_format]. *)

(* --- tokens: each written and read in one place --------------------- *)

(* The writers put their bytes straight into the buffer: the integer
   writer prints what "%d" prints and allocates nothing, so a snapshot
   costs its buffer and its string, whatever the document's length. *)

(* [n <= 0]: digits of [-n], most significant first.  Working on the
   negative side covers [min_int]. *)
let rec neg_digits b n =
  if n <= -10 then neg_digits b (n / 10);
  Buffer.add_char b (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let int b n =
  if n < 0 then begin
    Buffer.add_char b '-';
    neg_digits b n
  end
  else neg_digits b (-n)

(* An id is "c s", or "c.s" inside a state.  Initial elements use the
   reserved client 0: [Op_id.make ~client:0 ~seq] is [Op_id.initial ~seq]. *)
let id sep b (i : Op_id.t) =
  int b i.client;
  Buffer.add_char b sep;
  int b i.seq

let id_of c s = Op_id.make ~client:(L.int c) ~seq:(L.int s)

let state b s =
  List.iteri
    (fun k i ->
      if k > 0 then Buffer.add_char b ' ';
      id '.' b i)
    (Op_id.Set.canonical s)

let state_of tokens =
  Op_id.Set.of_list
    (List.map
       (fun token ->
         match String.split_on_char '.' token with
         | [ c; s ] -> id_of c s
         | _ -> L.fail "bad identifier token %S" token)
       tokens)

(* An element is "<char-code> <client> <seq>". *)
let element b (e : Element.t) =
  int b (Char.code e.value);
  Buffer.add_char b ' ';
  id ' ' b e.id

let element_of code c s =
  Element.make ~value:(Char.chr (L.int code)) ~id:(id_of c s)

let edit b name e p =
  Buffer.add_string b name;
  element b e;
  Buffer.add_char b ' ';
  int b p

let form b (f : Op.t) =
  match f.action with
  | Op.Ins (e, p) -> edit b "ins " e p
  | Op.Del (e, p) -> edit b "del " e p
  | Op.Nop -> Buffer.add_string b "nop"

let form_of orig = function
  | [ "nop" ] -> Op.nop ~id:orig
  | [ "ins"; code; c; s; pos ] ->
    Op.make_ins ~id:orig (element_of code c s) (L.int pos)
  | [ "del"; code; c; s; pos ] ->
    Op.make_del ~id:orig (element_of code c s) (L.int pos)
  | _ -> L.fail "bad transition form"

(* Both snapshot kinds carry the document as one "delt" line per
   element; any other line they do not know is an error. *)
let doc_lines b doc =
  Document.iter
    (fun e ->
      Buffer.add_string b "delt ";
      element b e;
      Buffer.add_char b '\n')
    doc

let doc_line elements = function
  | [ "delt"; code; c; s ] -> elements := element_of code c s :: !elements
  | tokens -> L.fail "unrecognized directive %S" (String.concat " " tokens)

let doc_of elements =
  let doc = Document.of_elements (List.rev elements) in
  if Document.has_duplicates doc then L.fail "duplicate element id";
  doc

(* --- client snapshots ---------------------------------------------- *)

let client_to_string client =
  let cid, next_seq, doc, serials = Protocol.client_state client in
  let space = Protocol.client_space client in
  let b = Buffer.create 4096 in
  let line directive write x =
    Buffer.add_string b directive;
    write b x;
    Buffer.add_char b '\n'
  in
  Buffer.add_string b "css-client 1\nclient ";
  int b cid;
  Buffer.add_char b ' ';
  int b next_seq;
  Buffer.add_char b '\n';
  doc_lines b doc;
  List.iter
    (fun (op_id, serial) ->
      Buffer.add_string b "serial ";
      id ' ' b op_id;
      Buffer.add_char b ' ';
      int b serial;
      Buffer.add_char b '\n')
    (List.sort (fun (a, _) (b, _) -> Op_id.compare a b) serials);
  line "root " state (State_space.root space);
  line "final " state (State_space.final space);
  List.iter
    (fun (s, transitions) ->
      line "node " state s;
      List.iter
        (fun (tr : State_space.transition) ->
          Buffer.add_string b "tr ";
          id ' ' b tr.orig;
          Buffer.add_char b ' ';
          form b tr.form;
          Buffer.add_char b '\n')
        transitions)
    (List.sort
       (fun (s1, _) (s2, _) -> Op_id.Set.compare s1 s2)
       (State_space.listing space));
  Buffer.contents b

let client_of_string text =
  let cid = ref 0 and next_seq = ref 1 and elements = ref [] in
  let serials = ref [] and root = ref None and final = ref None in
  let nodes = ref [] in  (* (state, transitions rev) list, reversed *)
  L.parse ~header:("css-client", "1") text
    (fun ~line:_ -> function
      | [ "client"; i; seq ] ->
        cid := L.int i;
        next_seq := L.int seq;
        if !next_seq < 1 then L.fail "next sequence number %d < 1" !next_seq
      | [ "serial"; c; s; serial ] ->
        serials := (id_of c s, L.int serial) :: !serials
      | "root" :: tokens -> root := Some (state_of tokens)
      | "final" :: tokens -> final := Some (state_of tokens)
      | "node" :: tokens -> nodes := (state_of tokens, []) :: !nodes
      | "tr" :: c :: s :: form_tokens -> (
        match !nodes with
        | [] -> L.fail "transition before any node"
        | (state, transitions) :: rest ->
          let orig = id_of c s in
          let form = form_of orig form_tokens in
          let target = Op_id.Set.add orig state in
          nodes :=
            (state, { State_space.orig; form; target } :: transitions) :: rest)
      | tokens -> doc_line elements tokens)
    (fun () ->
      match !root, !final with
      | None, _ | _, None -> L.fail "missing root or final state"
      | Some root, Some final ->
        Protocol.rebuild_client ~id:!cid ~next_seq:!next_seq
          ~doc:(doc_of !elements) ~serials:!serials
          ~space:(List.rev_map (fun (s, trs) -> s, List.rev trs) !nodes)
          ~root ~final)

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

(* About 20 bytes a line: "delt 97 3 1234567\n" is 18. *)
let stable_to_string { at_serial; stable_doc } =
  let b = Buffer.create (32 + (20 * Document.length stable_doc)) in
  Buffer.add_string b "css-stable 1\nat ";
  int b at_serial;
  Buffer.add_char b '\n';
  doc_lines b stable_doc;
  Buffer.contents b

let stable_of_string text =
  let at_serial = ref 0 and elements = ref [] in
  L.parse ~header:("css-stable", "1") text
    (fun ~line:_ -> function
      | [ "at"; serial ] -> at_serial := L.int serial
      | tokens -> doc_line elements tokens)
    (fun () -> { at_serial = !at_serial; stable_doc = doc_of !elements })

let save_client ~path client = L.save ~path (client_to_string client)

let load_client ~path = L.load ~path client_of_string
