(* Golden-schema test for the JSONL trace format.

   The trace format is a public artifact: `jupiter_sim report` (and
   any external tooling) consumes trace files written by earlier
   builds, so the rendering of every event variant is pinned to a
   checked-in golden file — any drift fails here and forces a
   deliberate decision — and every variant must survive an
   encode/decode round trip through [Event.of_jsonl]. *)

module Event = Rlist_obs.Event

(* One exemplar per constructor, plus the interesting edge cases:
   reads (no op id), batched ids (joined with '+'), every wire action,
   and names that need JSON escaping — quotes and backslashes, and
   control characters (tab, carriage return, and a raw \x01 that takes
   the \u00XX form). *)
let exemplars : Event.t list =
  [
    Generate
      { replica = "c1"; op_id = Some "1.1"; intent = "ins"; queue = 1;
        tick = 0 };
    Generate
      { replica = "c2"; op_id = None; intent = "read"; queue = 0; tick = 7 };
    Send
      { src = "c1"; dst = "server"; op_id = Some "1.1"; bytes = 120;
        queue = 1; tick = 2 };
    Send
      { src = "server"; dst = "c2"; op_id = Some "1.1+2.1"; bytes = 230;
        queue = 2; tick = 5 };
    Deliver
      { replica = "server"; src = "c1"; op_id = Some "1.1"; transforms = 3;
        queue = 0; tick = 4 };
    Deliver
      { replica = "c2"; src = "server"; op_id = None; transforms = 0;
        queue = 1; tick = 6 };
    Transform { replica = "server"; count = 12 };
    Apply { replica = "c2"; op_id = Some "1.1"; doc_len = 5; tick = 9 };
    Apply { replica = "c1"; op_id = None; doc_len = 5; tick = 9 };
    Wire { channel = "c1->server"; action = "drop"; wseq = 4; info = 0;
           tick = 11 };
    Wire { channel = "c1->server"; action = "partition_drop"; wseq = 5;
           info = 0; tick = 12 };
    Wire { channel = "server->c2"; action = "dup"; wseq = 6; info = 0;
           tick = 13 };
    Wire { channel = "p1->p2"; action = "delay"; wseq = 9; info = 6;
           tick = 31 };
    Wire { channel = "server->c2"; action = "retransmit"; wseq = 4; info = 2;
           tick = 23 };
    Wire { channel = "c1->server"; action = "ack"; wseq = 7; info = 0;
           tick = 40 };
    Wire { channel = "c1->server"; action = "ack_drop"; wseq = 7; info = 0;
           tick = 41 };
    Wire { channel = "server->c2"; action = "dup_drop"; wseq = 6; info = 0;
           tick = 42 };
    Wire { channel = "p2->p1"; action = "ooo"; wseq = 8; info = 0;
           tick = 43 };
    State_space_grow
      { replica = "server"; level = 3; states = 10; transitions = 17 };
    Span { name = "quiesce \"phase\" \\ 1"; dur_ns = 12345. };
    Gc_begin { cycle = 1; trigger = "ops=64"; meta = 412; tick = 50 };
    Gc_end
      { cycle = 1; reclaimed_states = 37; reclaimed_log = 12;
        reclaimed_keys = 24; meta = 180; snapshot_bytes = 96; skipped = 1;
        tick = 51 };
    Span { name = "tab\tcr\r\001soh"; dur_ns = 7. };
  ]

let rendered () =
  String.concat "\n" (List.mapi (fun i e -> Event.to_jsonl ~seq:i e) exemplars)
  ^ "\n"

let golden_path = "golden/trace_schema.golden"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let test_golden () =
  let expected =
    try read_file golden_path
    with Sys_error msg ->
      Alcotest.failf
        "missing golden file (%s); regenerate it from the exemplar list and \
         review the diff before checking it in"
        msg
  in
  Alcotest.(check string)
    "JSONL rendering matches the checked-in schema (if this is an \
     intentional format change, regenerate golden/trace_schema.golden and \
     bump the consumers)"
    expected (rendered ())

let event = Alcotest.testable Event.pp (fun a b -> a = b)

let test_round_trip () =
  List.iteri
    (fun i e ->
      match Event.of_jsonl (Event.to_jsonl ~seq:i e) with
      | None ->
        Alcotest.failf "variant %d (%s) did not decode" i (Event.kind e)
      | Some (seq, e') ->
        Alcotest.(check int) "seq survives" i seq;
        Alcotest.check event
          (Printf.sprintf "variant %d (%s) round-trips" i (Event.kind e))
          e e')
    exemplars

let test_decoder_skips_non_events () =
  List.iter
    (fun line ->
      Alcotest.(check bool)
        (Printf.sprintf "skips %S" (if String.length line > 30 then
                                      String.sub line 0 30 else line))
        true
        (Option.is_none (Event.of_jsonl line)))
    [
      "";
      "not json at all";
      "{\"type\": \"summary\", \"scenario\": \"figure2\", \"converged\": \
       true}";
      "{\"seq\": 3, \"type\": \"no-such-kind\", \"replica\": \"c1\"}";
      "{\"seq\": 1}";
      (* malformed literals are not null or a number *)
      "{\"seq\": 0, \"type\": \"apply\", \"replica\": \"c1\", \"op\": nope, \
       \"doc_len\": 1, \"tick\": 0}";
      "{\"seq\": 0, \"type\": \"generate\", \"replica\": \"c1\", \"op\": \
       null, \"intent\": \"read\", \"queue\": trux, \"tick\": 0}";
    ]

let test_decoder_escapes () =
  Alcotest.(check (option (pair int event)))
    "\\b decodes to a backspace"
    (Some (0, Event.Transform { replica = "c\b1"; count = 2 }))
    (Event.of_jsonl
       "{\"seq\": 0, \"type\": \"transform\", \"replica\": \"c\\b1\", \
        \"count\": 2}")

let test_json_parser () =
  let module J = Rlist_obs.Json in
  let parses text v =
    Alcotest.(check (result Helpers.json string))
      text (Ok v) (J.of_string text)
  in
  parses {| {"a": [1, -2.50, true, false, null, {"b": "x"}]} |}
    (Obj
       [ ( "a",
           List
             [ Int 1; Fixed (2, -2.5); Bool true; Bool false; Null;
               Obj [ "b", Str "x" ] ] ) ]);
  parses {|"\u00e9\ud83d\ude00\/\b\f\t"|}
    (Str "\xc3\xa9\xf0\x9f\x98\x80/\b\012\t");
  parses "1e3" (Fixed (0, 1000.));
  List.iter
    (fun text ->
      Alcotest.(check bool)
        (Printf.sprintf "rejects %S" text)
        true
        (Result.is_error (J.of_string text)))
    [ "nul"; "[1,]"; {|{"a" 1}|}; {|"\x"|}; "01"; "1."; {|"\ud800"|};
      "[1] x"; "\"a\001b\""; "" ];
  Alcotest.(check (list string))
    "numbers and escapes print as documented"
    [ "null"; "1.000"; "-7"; {|"\u0001\"\\\n"|} ]
    (List.map J.to_string
       [ Fixed (2, Float.nan); Fixed (3, 1.); Int (-7); Str "\001\"\\\n" ])

(* Events with arbitrary bytes in every string field and arbitrary
   ints; span durations are whole numbers, which [%.0f] keeps exact. *)
let gen_event =
  let open QCheck2.Gen in
  let str = string_size ~gen:char (int_range 0 6) in
  let+ k = int_range 0 9
  and+ a = str
  and+ b = str
  and+ c = str
  and+ op_id = opt str
  and+ i = int
  and+ j = int
  and+ l = int
  and+ m = int in
  match k with
  | 0 -> Event.Generate { replica = a; op_id; intent = b; queue = i; tick = j }
  | 1 -> Send { src = a; dst = b; op_id; bytes = i; queue = j; tick = l }
  | 2 ->
    Deliver
      { replica = a; src = b; op_id; transforms = i; queue = j; tick = l }
  | 3 -> Transform { replica = a; count = i }
  | 4 -> Apply { replica = a; op_id; doc_len = i; tick = j }
  | 5 -> Wire { channel = a; action = b; wseq = i; info = j; tick = l }
  | 6 ->
    State_space_grow { replica = a; level = i; states = j; transitions = l }
  | 7 -> Span { name = c; dur_ns = float_of_int (i mod 1_000_000_000) }
  | 8 -> Gc_begin { cycle = i; trigger = c; meta = j; tick = l }
  | _ ->
    Gc_end
      {
        cycle = i;
        reclaimed_states = j;
        reclaimed_log = l;
        reclaimed_keys = m;
        meta = i;
        snapshot_bytes = j;
        skipped = l;
        tick = m;
      }

let test_round_trip_arbitrary =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"of_jsonl (to_jsonl e) = e, arbitrary bytes"
       ~count:500
       ~print:(fun (seq, e) -> Event.to_jsonl ~seq e)
       QCheck2.Gen.(pair int gen_event)
       (fun (seq, e) -> Event.of_jsonl (Event.to_jsonl ~seq e) = Some (seq, e)))

(* A prefix of a real trace line followed by JSON-ish junk: reaches
   deeper into the parser than uniformly random bytes do. *)
let gen_near_json =
  let open QCheck2.Gen in
  let line = Event.to_jsonl ~seq:1 (List.nth exemplars 4) in
  let junk =
    string_size
      ~gen:(oneofl (List.of_seq (String.to_seq "{}[]\":,\\u0-.eEtnf ")))
      (int_range 0 8)
  in
  let+ cut = int_bound (String.length line) and+ junk = junk in
  String.sub line 0 cut ^ junk

let test_parser_total =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"Json.of_string never raises" ~count:1000
       ~print:(Printf.sprintf "%S")
       QCheck2.Gen.(oneof [ string; gen_near_json ])
       (fun s ->
         match Rlist_obs.Json.of_string s with Ok _ | Error _ -> true))

let test_accessors () =
  let gen = List.nth exemplars 0 in
  Alcotest.(check (option string)) "op_id" (Some "1.1") (Event.op_id gen);
  Alcotest.(check (option int)) "tick" (Some 0) (Event.tick gen);
  let xf = List.nth exemplars 6 in
  Alcotest.(check (option string)) "transform has no op" None
    (Event.op_id xf);
  Alcotest.(check (option int)) "transform has no tick" None (Event.tick xf);
  List.iteri
    (fun i e ->
      match Event.of_jsonl (Event.to_jsonl ~seq:i e) with
      | Some (_, e') ->
        Alcotest.(check (option string))
          "op_id stable across round trip" (Event.op_id e) (Event.op_id e')
      | None -> Alcotest.failf "variant %d did not decode" i)
    exemplars

let () =
  Alcotest.run "trace-schema"
    [
      ( "schema",
        [
          Alcotest.test_case "golden file matches" `Quick test_golden;
          Alcotest.test_case "every variant round-trips" `Quick
            test_round_trip;
          Alcotest.test_case "decoder skips non-events" `Quick
            test_decoder_skips_non_events;
          Alcotest.test_case "decoder handles escapes" `Quick
            test_decoder_escapes;
          Alcotest.test_case "Json reads what it writes" `Quick
            test_json_parser;
          test_round_trip_arbitrary;
          test_parser_total;
          Alcotest.test_case "accessors" `Quick test_accessors;
        ] );
    ]
