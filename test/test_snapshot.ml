(* Tests for CSS client snapshot/restore: a restored client is
   observationally identical — same document, visible set, and
   state-space — and continues processing messages exactly like the
   original (crash recovery). *)

open Rlist_model
module E = Helpers.Css_run.E
module Proto = Jupiter_css.Protocol
module Space = Jupiter_css.State_space
module Snapshot = Jupiter_css.Snapshot

(* Drive a session to an interesting mid-point and return a client
   with pending ops, integrated remote ops, and history. *)
let mid_session_client ?(client = 2) seed =
  let t = E.create ~nclients:3 () in
  let rng = Random.State.make [| seed; 0x54AF |] in
  (* Hand-drive to a genuinely mid-flight point: everyone types,
     messages flow partially, and the observed client still has
     pending (unacknowledged) operations and un-received remote
     operations. *)
  let char () = Char.chr (Char.code 'a' + Random.State.int rng 26) in
  List.iter
    (fun i ->
      let len = Document.length (E.client_document t i) in
      E.apply_event t (Generate (i, Intent.Insert (char (), Random.State.int rng (len + 1)))))
    [ 1; 2; 3; 1; 2; 3; 2 ];
  (* deliver all client->server messages but only some broadcasts *)
  List.iter
    (fun i ->
      E.apply_event t (Deliver_to_server i);
      E.apply_event t (Deliver_to_server i))
    [ 1; 2; 3 ];
  E.apply_event t (Deliver_to_server 2);
  List.iter (fun _ -> E.apply_event t (Deliver_to_client 2)) [ (); (); () ];
  List.iter (fun _ -> E.apply_event t (Deliver_to_client 1)) [ (); () ];
  (* client 2 now generates on top of partially-received state *)
  E.apply_event t (Generate (2, Intent.Insert (char (), 0)));
  E.client t client

let roundtrip client =
  Helpers.ok (Snapshot.client_of_string (Snapshot.client_to_string client))

let test_roundtrip_identity () =
  let original = mid_session_client 1 in
  let restored = roundtrip original in
  Alcotest.check Helpers.document "same document"
    (Proto.client_document original)
    (Proto.client_document restored);
  Alcotest.check Helpers.op_id_set "same visible set"
    (Proto.client_visible original)
    (Proto.client_visible restored);
  Alcotest.(check bool)
    "same state-space" true
    (Space.equal (Proto.client_space original) (Proto.client_space restored))

let test_restored_client_continues () =
  (* Both the original and the restored client receive the same remote
     operation; their reactions must be identical. *)
  let original = mid_session_client 2 in
  let restored = roundtrip original in
  let remote_op =
    let id = Op_id.make ~client:9 ~seq:1 in
    Rlist_ot.Op.make_ins ~id (Element.make ~value:'Z' ~id) 0
  in
  let message =
    {
      Proto.op = remote_op;
      ctx = Op_id.Set.empty;
      serial = 1000;
      origin = 9;
    }
  in
  (* note: serial 1000 is larger than anything in the session, and the
     empty context always exists... in a pruned space it might not, but
     plain CSS clients never prune. *)
  Proto.client_receive original message;
  Proto.client_receive restored message;
  Alcotest.check Helpers.document "same document after the same message"
    (Proto.client_document original)
    (Proto.client_document restored);
  Alcotest.(check bool)
    "same space after the same message" true
    (Space.equal (Proto.client_space original) (Proto.client_space restored))

let test_restored_client_generates () =
  let original = mid_session_client 3 in
  let restored = roundtrip original in
  let gen client =
    let outcome, msg = Proto.client_generate client (Intent.Insert ('k', 0)) in
    ignore outcome;
    msg
  in
  let m1 = gen original and m2 = gen restored in
  (match m1, m2 with
  | Some a, Some b ->
    Alcotest.(check bool)
      "same generated operation" true
      (Rlist_ot.Op.equal a.Proto.op b.Proto.op);
    Alcotest.check Helpers.op_id_set "same context" a.Proto.ctx b.Proto.ctx
  | _ -> Alcotest.fail "expected messages from both");
  Alcotest.check Helpers.document "same document"
    (Proto.client_document original)
    (Proto.client_document restored)

let test_snapshot_with_initial_document () =
  let t = E.create ~initial:(Document.of_string "seed") ~nclients:2 () in
  E.run t [ Generate (1, Intent.Insert ('x', 2)); Generate (1, Intent.Delete 0) ];
  let original = E.client t 1 in
  let restored = roundtrip original in
  Alcotest.check Helpers.document "initial elements survive"
    (Proto.client_document original)
    (Proto.client_document restored)

let test_parse_errors () =
  let reject what text =
    Alcotest.(check bool)
      what true
      (Result.is_error (Snapshot.client_of_string text))
  in
  reject "missing header" "client 1 1\n";
  reject "bad version" "css-client 99\n";
  reject "garbage line" "css-client 1\nfrobnicate\n";
  reject "missing root/final" "css-client 1\nclient 1 1\n";
  reject "transition without node"
    "css-client 1\nclient 1 1\nroot \nfinal \ntr 1 1 nop\n"

let test_file_roundtrip () =
  let original = mid_session_client 4 in
  let path = Filename.temp_file "css" ".snapshot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Snapshot.save_client ~path original;
      let restored = Helpers.ok (Snapshot.load_client ~path) in
      Alcotest.(check bool)
        "file round trip" true
        (Space.equal
           (Proto.client_space original)
           (Proto.client_space restored)))

let prop_roundtrip_many_seeds =
  Helpers.qtest ~count:40 "snapshot round-trips on random mid-sessions"
    (QCheck2.Gen.int_range 1 1_000_000) (fun seed ->
      let original = mid_session_client seed in
      let restored = roundtrip original in
      Document.equal
        (Proto.client_document original)
        (Proto.client_document restored)
      && Space.equal (Proto.client_space original) (Proto.client_space restored)
      && Op_id.Set.equal
           (Proto.client_visible original)
           (Proto.client_visible restored))

let () =
  Alcotest.run "snapshot"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "identity" `Quick test_roundtrip_identity;
          Alcotest.test_case "continues receiving" `Quick
            test_restored_client_continues;
          Alcotest.test_case "continues generating" `Quick
            test_restored_client_generates;
          Alcotest.test_case "initial documents" `Quick
            test_snapshot_with_initial_document;
          Alcotest.test_case "file round trip" `Quick test_file_roundtrip;
          prop_roundtrip_many_seeds;
        ] );
      ( "errors",
        [ Alcotest.test_case "parse errors" `Quick test_parse_errors ] );
    ]
