(* Differential tests for the rope-backed document: random operation
   scripts are replayed against both {!Document} (the rope) and
   {!Document_reference} (the seed's linked list, kept as an oracle),
   and every observation the rest of the system can make of a document
   must agree. *)

open Rlist_model
module Rope = Document
module Oracle = Document_reference

(* A script is a list of abstract editing steps; positions are seeds
   reduced modulo the current document length at replay time, so every
   script is valid on both implementations by construction. *)
type step =
  | Ins of char * int
  | Del of int

let gen_step =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun c p -> Ins (c, p)) (char_range 'a' 'z') (int_range 0 10_000);
        map (fun p -> Del p) (int_range 0 10_000);
      ])

let gen_script = QCheck2.Gen.(list_size (int_range 0 120) gen_step)

let pp_step = function
  | Ins (c, p) -> Printf.sprintf "Ins(%c,%d)" c p
  | Del p -> Printf.sprintf "Del(%d)" p

let print_script script = String.concat "; " (List.map pp_step script)

(* Replay a script on both implementations, checking the deleted
   elements pairwise; returns the final pair. *)
let replay script =
  let step (rope, oracle, seq) = function
    | Ins (c, pseed) ->
      let pos = pseed mod (Rope.length rope + 1) in
      let e = Element.make ~value:c ~id:(Op_id.make ~client:7 ~seq) in
      Rope.insert rope ~pos e, Oracle.insert oracle ~pos e, seq + 1
    | Del pseed ->
      if Rope.length rope = 0 then rope, oracle, seq
      else
        let pos = pseed mod Rope.length rope in
        let del_r, rope' = Rope.delete rope ~pos in
        let del_o, oracle' = Oracle.delete oracle ~pos in
        if not (Element.equal del_r del_o) then
          failwith "delete returned different elements";
        rope', oracle', seq
  in
  let rope, oracle, _ = List.fold_left step (Rope.empty, Oracle.empty, 1) script in
  rope, oracle

let same_elements rope oracle =
  let er = Rope.elements rope and eo = Oracle.elements oracle in
  List.length er = List.length eo && List.for_all2 Element.equal er eo

let qtest ?(count = 300) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count ?print gen prop)

let prop_observations_agree =
  qtest "to_string/length/elements/nth agree with the oracle"
    ~print:print_script gen_script
    (fun script ->
      let rope, oracle = replay script in
      String.equal (Rope.to_string rope) (Oracle.to_string oracle)
      && Rope.length rope = Oracle.length oracle
      && same_elements rope oracle
      && List.for_all
           (fun i -> Element.equal (Rope.nth rope i) (Oracle.nth oracle i))
           (List.init (Rope.length rope) Fun.id))

let prop_order_pairs_agree =
  qtest ~count:100 "order_pairs agree with the oracle" gen_script
    (fun script ->
      let rope, oracle = replay script in
      let pr = Rope.order_pairs rope and po = Oracle.order_pairs oracle in
      List.length pr = List.length po
      && List.for_all2
           (fun (a, b) (a', b') -> Element.equal a a' && Element.equal b b')
           pr po)

let prop_membership_agrees =
  qtest "mem/index_of agree with the oracle, present and absent"
    QCheck2.Gen.(pair gen_script (int_range 0 10_000))
    (fun (script, probe_seed) ->
      let rope, oracle = replay script in
      let present =
        Rope.fold
          (fun acc e ->
            acc
            && Rope.mem rope e = Oracle.mem oracle e
            && Rope.index_of rope e = Oracle.index_of oracle e)
          true rope
      in
      (* An identifier no script step ever allocates. *)
      let foreign =
        Element.make ~value:'?' ~id:(Op_id.make ~client:99 ~seq:(probe_seed + 1))
      in
      present
      && Rope.mem rope foreign = Oracle.mem oracle foreign
      && Rope.index_of rope foreign = Oracle.index_of oracle foreign)

let prop_compatible_agrees =
  qtest ~count:150 "compatible verdicts agree with the oracle"
    QCheck2.Gen.(pair gen_script gen_script)
    (fun (s1, s2) ->
      let r1, o1 = replay s1 and r2, o2 = replay s2 in
      Bool.equal (Rope.compatible r1 r2) (Oracle.compatible o1 o2)
      && Bool.equal (Rope.compatible r1 r1) (Oracle.compatible o1 o1))

let prop_equal_compare_agree =
  qtest ~count:150 "equal/compare agree with the oracle"
    QCheck2.Gen.(pair gen_script gen_script)
    (fun (s1, s2) ->
      let r1, o1 = replay s1 and r2, o2 = replay s2 in
      let sign c = Stdlib.compare c 0 in
      Bool.equal (Rope.equal r1 r2) (Oracle.equal o1 o2)
      && sign (Rope.compare r1 r2) = sign (Oracle.compare o1 o2))

let prop_duplicates_agree =
  qtest ~count:150 "has_duplicates agrees with the oracle on raw element lists"
    QCheck2.Gen.(
      list_size (int_range 0 30)
        (map2
           (fun c s -> Element.make ~value:c ~id:(Op_id.make ~client:3 ~seq:s))
           (char_range 'a' 'z') (int_range 1 10)))
    (fun es ->
      Bool.equal
        (Rope.has_duplicates (Rope.of_elements es))
        (Oracle.has_duplicates (Oracle.of_elements es))
      &&
      (* ... and it survives deleting down to a prefix. *)
      let rec drain rope oracle =
        if Rope.length rope = 0 then true
        else begin
          Bool.equal (Rope.has_duplicates rope) (Oracle.has_duplicates oracle)
          &&
          let _, rope' = Rope.delete rope ~pos:(Rope.length rope - 1) in
          let _, oracle' = Oracle.delete oracle ~pos:(Oracle.length oracle - 1) in
          drain rope' oracle'
        end
      in
      drain (Rope.of_elements es) (Oracle.of_elements es))

(* Every version answers for itself.  Each version builds its
   identifier index on its first query, so a script is replayed with
   queries on some versions and not on others: a version may be asked
   right after it was derived, not at all, or only after newer
   versions were derived from it.  [V_dup] reinserts a present element,
   so [has_duplicates] sees both verdicts.  Every answer is compared
   with the oracle's version of the same step. *)
type vstep =
  | V_ins of char * int
  | V_del of int
  | V_dup of int * int

type vquery = {
  step : vstep;
  ask_new : bool;  (* query the version this step derives *)
  ask_old : int option;  (* query an earlier version, seed mod count *)
}

let gen_vquery =
  QCheck2.Gen.(
    map3
      (fun step ask_new ask_old -> { step; ask_new; ask_old })
      (frequency
         [
           ( 5,
             map2 (fun c p -> V_ins (c, p)) (char_range 'a' 'z')
               (int_range 0 10_000) );
           3, map (fun p -> V_del p) (int_range 0 10_000);
           ( 1,
             map2 (fun s p -> V_dup (s, p)) (int_range 0 10_000)
               (int_range 0 10_000) );
         ])
      bool
      (opt (int_range 0 10_000)))

let print_vscript qs =
  String.concat "; "
    (List.map
       (fun q ->
         let step =
           match q.step with
           | V_ins (c, p) -> Printf.sprintf "Ins(%c,%d)" c p
           | V_del p -> Printf.sprintf "Del(%d)" p
           | V_dup (s, p) -> Printf.sprintf "Dup(%d,%d)" s p
         in
         Printf.sprintf "%s%s%s" step
           (if q.ask_new then "?" else "")
           (match q.ask_old with
           | None -> ""
           | Some k -> Printf.sprintf "@%d" k))
       qs)

let prop_versions_answer_for_themselves =
  qtest ~count:300
    "each version's mem/index_of/has_duplicates agree at its step"
    ~print:print_vscript
    QCheck2.Gen.(list_size (int_range 0 80) gen_vquery)
    (fun qs ->
      let foreign =
        Element.make ~value:'?' ~id:(Op_id.make ~client:99 ~seq:1)
      in
      (* Every element ever inserted, present or not, is a probe. *)
      let probes = ref [ foreign ] in
      let agrees (rope, oracle) =
        Bool.equal (Rope.has_duplicates rope) (Oracle.has_duplicates oracle)
        && List.for_all
             (fun e ->
               Bool.equal (Rope.mem rope e) (Oracle.mem oracle e)
               && Option.equal Int.equal (Rope.index_of rope e)
                    (Oracle.index_of oracle e))
             !probes
      in
      let derive (rope, oracle) seq = function
        | V_ins (c, pseed) ->
          let pos = pseed mod (Rope.length rope + 1) in
          let e = Element.make ~value:c ~id:(Op_id.make ~client:7 ~seq) in
          probes := e :: !probes;
          Rope.insert rope ~pos e, Oracle.insert oracle ~pos e
        | V_del pseed ->
          if Rope.length rope = 0 then rope, oracle
          else
            let pos = pseed mod Rope.length rope in
            snd (Rope.delete rope ~pos), snd (Oracle.delete oracle ~pos)
        | V_dup (sseed, pseed) ->
          if Rope.length rope = 0 then rope, oracle
          else
            let e = Rope.nth rope (sseed mod Rope.length rope) in
            let pos = pseed mod (Rope.length rope + 1) in
            Rope.insert rope ~pos e, Oracle.insert oracle ~pos e
      in
      (* [versions] holds every version so far, newest first. *)
      let rec go versions seq = function
        | [] ->
          (* Finally ask every third version, oldest first: most of
             them were never asked, and all have descendants. *)
          List.for_all agrees
            (List.filteri (fun i _ -> i mod 3 = 0) (List.rev versions))
        | q :: rest ->
          let v = derive (List.hd versions) seq q.step in
          let versions = v :: versions in
          (not q.ask_new || agrees v)
          && (match q.ask_old with
             | None -> true
             | Some k ->
               agrees (List.nth versions (k mod List.length versions)))
          && go versions (seq + 1) rest
      in
      go [ Rope.empty, Oracle.empty ] 1 qs)

(* Bounds-check error cases: both implementations must reject the same
   out-of-range positions with Invalid_argument. *)
let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let test_bounds () =
  let e = Element.make ~value:'x' ~id:(Op_id.make ~client:1 ~seq:1) in
  let rope = Rope.of_string "abc" in
  let oracle = Oracle.of_string "abc" in
  Alcotest.(check bool)
    "insert past end" true
    (raises_invalid (fun () -> Rope.insert rope ~pos:4 e)
    && raises_invalid (fun () -> Oracle.insert oracle ~pos:4 e));
  Alcotest.(check bool)
    "insert negative" true
    (raises_invalid (fun () -> Rope.insert rope ~pos:(-1) e)
    && raises_invalid (fun () -> Oracle.insert oracle ~pos:(-1) e));
  Alcotest.(check bool)
    "delete at length" true
    (raises_invalid (fun () -> Rope.delete rope ~pos:3)
    && raises_invalid (fun () -> Oracle.delete oracle ~pos:3));
  Alcotest.(check bool)
    "delete negative" true
    (raises_invalid (fun () -> Rope.delete rope ~pos:(-1))
    && raises_invalid (fun () -> Oracle.delete oracle ~pos:(-1)));
  Alcotest.(check bool)
    "nth at length" true
    (raises_invalid (fun () -> Rope.nth rope 3)
    && raises_invalid (fun () -> Oracle.nth oracle 3));
  Alcotest.(check bool)
    "nth negative" true
    (raises_invalid (fun () -> Rope.nth rope (-1))
    && raises_invalid (fun () -> Oracle.nth oracle (-1)));
  Alcotest.(check bool)
    "delete on empty" true
    (raises_invalid (fun () -> Rope.delete Rope.empty ~pos:0)
    && raises_invalid (fun () -> Oracle.delete Oracle.empty ~pos:0))

(* A deterministic large-document exercise: 10^4 front/back/middle
   inserts keep the rope balanced enough for interactive use; the
   final string must match an oracle built in one shot. *)
let test_large_document () =
  let n = 10_000 in
  let elt i =
    Element.make
      ~value:(Char.chr (Char.code 'a' + (i mod 26)))
      ~id:(Op_id.make ~client:5 ~seq:(i + 1))
  in
  let rope = ref Rope.empty in
  for i = 0 to n - 1 do
    let pos =
      match i mod 3 with
      | 0 -> 0
      | 1 -> Rope.length !rope
      | _ -> Rope.length !rope / 2
    in
    rope := Rope.insert !rope ~pos (elt i)
  done;
  Alcotest.(check int) "length" n (Rope.length !rope);
  let oracle = Oracle.of_elements (Rope.elements !rope) in
  Alcotest.(check string)
    "content" (Oracle.to_string oracle) (Rope.to_string !rope);
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Printf.sprintf "nth %d" i) true
        (Element.equal (Rope.nth !rope i) (Oracle.nth oracle i)))
    [ 0; 1; n / 2; n - 2; n - 1 ];
  (* Drain from the middle and compare the survivors. *)
  let r = ref !rope in
  for _ = 1 to n / 2 do
    let _, r' = Rope.delete !r ~pos:(Rope.length !r / 2) in
    r := r'
  done;
  Alcotest.(check int) "length after drain" (n / 2) (Rope.length !r);
  Alcotest.(check bool) "no duplicates" false (Rope.has_duplicates !r)

(* Editing allocates only the rope: no identifier index is updated.
   On a 4 096-element rope built from [empty] by inserts at
   pseudo-random positions, one insert into that version may allocate
   at most 95 minor words and one delete at most 120, each the mean
   over 512 positions (91.08 and 114.35 measured, the budgets under
   5 % above: the path copy plus the version record and its unforced
   index thunk; 172.08 and 180.85 when every edit also updated a
   persistent identifier multiset).
   OCaml 5 without flambda counts allocations exactly, so the figures
   are the same on every run. *)
let insert_words_budget = 95.0

let delete_words_budget = 120.0

let test_edit_allocation () =
  let n = 4_096 and probes = 512 in
  let elt i =
    Element.make
      ~value:(Char.chr (Char.code 'a' + (i mod 26)))
      ~id:(Op_id.make ~client:5 ~seq:(i + 1))
  in
  (* A fixed linear congruential walk, so the rope's shape and every
     probe position are the same on every run. *)
  let lcg = ref 12_345 in
  let next bound =
    lcg := ((!lcg * 1_103_515_245) + 12_345) land 0x3fff_ffff;
    !lcg mod bound
  in
  let rope = ref Rope.empty in
  for i = 0 to n - 1 do
    rope := Rope.insert !rope ~pos:(next (i + 1)) (elt i)
  done;
  let rope = !rope in
  let fresh = Array.init probes (fun i -> elt (n + i)) in
  let ins_pos = Array.init probes (fun _ -> next (n + 1)) in
  let del_pos = Array.init probes (fun _ -> next n) in
  let words f =
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before
  in
  let idle = words (fun () -> ()) in
  let per_edit f = (words f -. idle) /. float_of_int probes in
  let ins =
    per_edit (fun () ->
        for k = 0 to probes - 1 do
          ignore
            (Sys.opaque_identity
               (Rope.insert rope ~pos:ins_pos.(k) fresh.(k)))
        done)
  in
  let del =
    per_edit (fun () ->
        for k = 0 to probes - 1 do
          ignore (Sys.opaque_identity (Rope.delete rope ~pos:del_pos.(k)))
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per insert <= %.0f" ins
       insert_words_budget)
    true
    (ins <= insert_words_budget);
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per delete <= %.0f" del
       delete_words_budget)
    true
    (del <= delete_words_budget)

let () =
  Alcotest.run "document"
    [
      ( "differential",
        [
          prop_observations_agree;
          prop_order_pairs_agree;
          prop_membership_agrees;
          prop_compatible_agrees;
          prop_equal_compare_agree;
          prop_duplicates_agree;
          prop_versions_answer_for_themselves;
        ] );
      ( "bounds",
        [ Alcotest.test_case "out-of-range positions" `Quick test_bounds ] );
      ( "scale",
        [ Alcotest.test_case "10^4-element rope" `Quick test_large_document ] );
      ( "allocation",
        [
          Alcotest.test_case "minor words per insert and delete" `Quick
            test_edit_allocation;
        ] );
    ]
