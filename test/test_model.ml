(* Unit tests for the list-model substrate: identifiers, elements,
   documents, intents. *)

open Rlist_model

let test_replica_id_order () =
  Alcotest.(check bool)
    "server before clients" true
    (Replica_id.compare Replica_id.Server (Replica_id.Client 1) < 0);
  Alcotest.(check bool)
    "clients by number" true
    (Replica_id.compare (Replica_id.Client 1) (Replica_id.Client 2) < 0);
  Alcotest.(check bool)
    "equal" true
    (Replica_id.equal (Replica_id.Client 3) (Replica_id.Client 3))

let test_replica_id_pp () =
  Alcotest.(check string) "server" "server" (Replica_id.to_string Server);
  Alcotest.(check string) "client" "c4" (Replica_id.to_string (Client 4));
  Alcotest.(check bool) "is_client" true (Replica_id.is_client (Client 1));
  Alcotest.(check int) "client_exn" 7 (Replica_id.client_exn (Client 7));
  Alcotest.check_raises "client_exn on server"
    (Invalid_argument "Replica_id.client_exn: server") (fun () ->
      ignore (Replica_id.client_exn Server))

let test_op_id_make () =
  let id = Op_id.make ~client:2 ~seq:5 in
  Alcotest.(check int) "client" 2 id.Op_id.client;
  Alcotest.(check int) "seq" 5 id.Op_id.seq;
  Alcotest.(check bool)
    "make rejects zero seq" true
    (try
       ignore (Op_id.make ~client:1 ~seq:0);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool)
    "make rejects negative client" true
    (try
       ignore (Op_id.make ~client:(-1) ~seq:1);
       false
     with Invalid_argument _ -> true)

let test_op_id_initial () =
  let id = Op_id.initial ~seq:3 in
  Alcotest.(check bool) "initial" true (Op_id.is_initial id);
  Alcotest.(check bool)
    "regular is not initial" false
    (Op_id.is_initial (Op_id.make ~client:1 ~seq:1));
  Alcotest.(check string) "pp" "init.3" (Op_id.to_string id)

(* [to_string] builds its bytes without a formatter; they must stay
   those of [pp]. *)
let test_op_id_to_string () =
  let via_pp id = Format.asprintf "%a" Op_id.pp id in
  List.iter
    (fun (id : Op_id.t) ->
      Alcotest.(check string) (via_pp id) (via_pp id) (Op_id.to_string id))
    [ Op_id.initial ~seq:1; Op_id.initial ~seq:42; Op_id.initial ~seq:max_int;
      Op_id.make ~client:1 ~seq:1; Op_id.make ~client:7 ~seq:1_000_003;
      Op_id.make ~client:12_345 ~seq:max_int;
      Op_id.make ~client:max_int ~seq:9_999_999_999 ]

let test_op_id_order () =
  let a = Op_id.make ~client:1 ~seq:2 in
  let b = Op_id.make ~client:2 ~seq:1 in
  let c = Op_id.make ~client:1 ~seq:3 in
  Alcotest.(check bool) "client major" true (Op_id.compare a b < 0);
  Alcotest.(check bool) "seq minor" true (Op_id.compare a c < 0);
  Alcotest.(check bool) "equal" true (Op_id.equal a a)

let test_op_id_set_canonical () =
  let mk c s = Op_id.make ~client:c ~seq:s in
  let s1 =
    Op_id.Set.of_list [ mk 2 1; mk 1 1; mk 1 2 ]
  in
  let s2 =
    List.fold_left
      (fun acc x -> Op_id.Set.add x acc)
      Op_id.Set.empty
      [ mk 1 2; mk 2 1; mk 1 1 ]
  in
  (* Equal sets built in different orders yield structurally equal
     canonical lists — the property the state-space hash tables rely
     on. *)
  Alcotest.(check bool)
    "canonical lists equal" true
    (Op_id.Set.canonical s1 = Op_id.Set.canonical s2);
  Alcotest.(check int) "sorted" 3 (List.length (Op_id.Set.canonical s1));
  Alcotest.(check bool)
    "ascending" true
    (let rec sorted = function
       | a :: (b :: _ as rest) -> Op_id.compare a b < 0 && sorted rest
       | _ -> true
     in
     sorted (Op_id.Set.canonical s1))

let test_op_id_table () =
  let table = Op_id.Table.create 4 in
  Op_id.Table.replace table (Op_id.make ~client:1 ~seq:1) "x";
  Op_id.Table.replace table (Op_id.make ~client:1 ~seq:1) "y";
  Alcotest.(check int) "replace overwrites" 1 (Op_id.Table.length table);
  Alcotest.(check (option string))
    "lookup" (Some "y")
    (Op_id.Table.find_opt table (Op_id.make ~client:1 ~seq:1))

let test_element_identity () =
  let a = Helpers.elt ~client:1 ~seq:1 'x' in
  let b = Helpers.elt ~client:1 ~seq:1 'y' in
  let c = Helpers.elt ~client:2 ~seq:1 'x' in
  Alcotest.(check bool) "identity ignores value" true (Element.equal a b);
  Alcotest.(check bool) "identity uses client" false (Element.equal a c)

let test_element_priority () =
  let low = Helpers.elt ~client:1 'x' in
  let high = Helpers.elt ~client:3 'y' in
  Alcotest.(check bool)
    "larger client wins" true
    (Element.priority high low > 0);
  Alcotest.(check bool) "antisymmetric" true (Element.priority low high < 0);
  Alcotest.(check int) "reflexive" 0 (Element.priority low low)

let test_document_roundtrip () =
  let doc = Document.of_string "hello" in
  Alcotest.(check string) "to_string" "hello" (Document.to_string doc);
  Alcotest.(check int) "length" 5 (Document.length doc);
  Alcotest.(check bool) "not empty" false (Document.is_empty doc);
  Alcotest.(check bool) "empty" true (Document.is_empty Document.empty);
  Alcotest.(check bool)
    "initial ids" true
    (List.for_all
       (fun e -> Op_id.is_initial e.Element.id)
       (Document.elements doc))

let test_document_insert () =
  let doc = Document.of_string "ac" in
  let b = Helpers.elt 'b' in
  Alcotest.(check string)
    "middle" "abc"
    (Document.to_string (Document.insert doc ~pos:1 b));
  Alcotest.(check string)
    "head" "bac"
    (Document.to_string (Document.insert doc ~pos:0 b));
  Alcotest.(check string)
    "tail" "acb"
    (Document.to_string (Document.insert doc ~pos:2 b));
  Alcotest.(check bool)
    "out of bounds" true
    (try
       ignore (Document.insert doc ~pos:3 b);
       false
     with Invalid_argument _ -> true)

let test_document_delete () =
  let doc = Document.of_string "abc" in
  let deleted, rest = Document.delete doc ~pos:1 in
  Alcotest.(check char) "deleted element" 'b' deleted.Element.value;
  Alcotest.(check string) "rest" "ac" (Document.to_string rest);
  Alcotest.(check bool)
    "out of bounds" true
    (try
       ignore (Document.delete doc ~pos:3);
       false
     with Invalid_argument _ -> true)

let test_document_lookup () =
  let doc = Document.of_string "abc" in
  let b = Document.nth doc 1 in
  Alcotest.(check char) "nth" 'b' b.Element.value;
  Alcotest.(check (option int)) "index_of" (Some 1) (Document.index_of doc b);
  Alcotest.(check bool) "mem" true (Document.mem doc b);
  Alcotest.(check bool)
    "mem foreign" false
    (Document.mem doc (Helpers.elt 'b'))

let test_document_compatible () =
  (* Compatibility (Definition 8.2) compares relative orders of common
     elements only. *)
  let a = Helpers.elt ~client:1 ~seq:1 'a' in
  let b = Helpers.elt ~client:1 ~seq:2 'b' in
  let c = Helpers.elt ~client:1 ~seq:3 'c' in
  let doc l = Document.of_elements l in
  Alcotest.(check bool)
    "disjoint docs compatible" true
    (Document.compatible (doc [ a ]) (doc [ b ]));
  Alcotest.(check bool)
    "same order compatible" true
    (Document.compatible (doc [ a; b; c ]) (doc [ a; c ]));
  Alcotest.(check bool)
    "opposite order incompatible" false
    (Document.compatible (doc [ a; b ]) (doc [ b; a ]));
  Alcotest.(check bool)
    "interleaved common pair" false
    (Document.compatible (doc [ a; c; b ]) (doc [ b; c ]));
  Alcotest.(check bool)
    "empty compatible with all" true
    (Document.compatible Document.empty (doc [ a; b ]))

let test_document_order_pairs () =
  let doc = Document.of_string "abc" in
  let pairs = Document.order_pairs doc in
  Alcotest.(check int) "n(n-1)/2 pairs" 3 (List.length pairs);
  let values = List.map (fun (x, y) -> x.Element.value, y.Element.value) pairs in
  Alcotest.(check bool) "a before b" true (List.mem ('a', 'b') values);
  Alcotest.(check bool) "a before c" true (List.mem ('a', 'c') values);
  Alcotest.(check bool) "b before c" true (List.mem ('b', 'c') values)

let test_document_duplicates () =
  let a = Helpers.elt 'a' in
  Alcotest.(check bool)
    "duplicate detected" true
    (Document.has_duplicates (Document.of_elements [ a; a ]));
  Alcotest.(check bool)
    "no duplicates" false
    (Document.has_duplicates (Document.of_string "aa"))

let test_intent_validity () =
  Alcotest.(check bool)
    "insert at end ok" true
    (Intent.valid_for ~doc_length:3 (Intent.Insert ('x', 3)));
  Alcotest.(check bool)
    "insert past end" false
    (Intent.valid_for ~doc_length:3 (Intent.Insert ('x', 4)));
  Alcotest.(check bool)
    "delete at end" false
    (Intent.valid_for ~doc_length:3 (Intent.Delete 3));
  Alcotest.(check bool)
    "delete in range" true
    (Intent.valid_for ~doc_length:3 (Intent.Delete 2));
  Alcotest.(check bool)
    "read always" true
    (Intent.valid_for ~doc_length:0 Intent.Read);
  Alcotest.(check bool)
    "negative position" false
    (Intent.valid_for ~doc_length:3 (Intent.Insert ('x', -1)))

let prop_insert_delete_inverse =
  Helpers.qtest "insert then delete is identity"
    QCheck2.Gen.(pair Helpers.gen_document (int_range 0 20))
    (fun (doc, pos_seed) ->
      let pos = pos_seed mod (Document.length doc + 1) in
      let e = Helpers.elt ~client:8 ~seq:99 'z' in
      let doc' = Document.insert doc ~pos e in
      let deleted, doc'' = Document.delete doc' ~pos in
      Element.equal deleted e && Document.equal doc doc'')

let prop_compatible_reflexive =
  Helpers.qtest "compatibility is reflexive" Helpers.gen_document (fun doc ->
      Document.compatible doc doc)

let prop_compatible_symmetric =
  Helpers.qtest "compatibility is symmetric"
    QCheck2.Gen.(pair Helpers.gen_document Helpers.gen_document)
    (fun (d1, d2) ->
      Bool.equal (Document.compatible d1 d2) (Document.compatible d2 d1))

let () =
  Alcotest.run "model"
    [
      ( "replica_id",
        [
          Alcotest.test_case "ordering" `Quick test_replica_id_order;
          Alcotest.test_case "printing and accessors" `Quick test_replica_id_pp;
        ] );
      ( "op_id",
        [
          Alcotest.test_case "construction" `Quick test_op_id_make;
          Alcotest.test_case "initial ids" `Quick test_op_id_initial;
          Alcotest.test_case "to_string matches pp" `Quick test_op_id_to_string;
          Alcotest.test_case "ordering" `Quick test_op_id_order;
          Alcotest.test_case "canonical sets" `Quick test_op_id_set_canonical;
          Alcotest.test_case "hash table" `Quick test_op_id_table;
        ] );
      ( "element",
        [
          Alcotest.test_case "identity" `Quick test_element_identity;
          Alcotest.test_case "priority" `Quick test_element_priority;
        ] );
      ( "document",
        [
          Alcotest.test_case "roundtrip" `Quick test_document_roundtrip;
          Alcotest.test_case "insert" `Quick test_document_insert;
          Alcotest.test_case "delete" `Quick test_document_delete;
          Alcotest.test_case "lookup" `Quick test_document_lookup;
          Alcotest.test_case "compatibility" `Quick test_document_compatible;
          Alcotest.test_case "order pairs" `Quick test_document_order_pairs;
          Alcotest.test_case "duplicates" `Quick test_document_duplicates;
          prop_insert_delete_inverse;
          prop_compatible_reflexive;
          prop_compatible_symmetric;
        ] );
      ( "intent",
        [ Alcotest.test_case "validity" `Quick test_intent_validity ] );
    ]
