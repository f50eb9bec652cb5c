(* Shared utilities for the test suites. *)

open Rlist_model

let document : Document.t Alcotest.testable =
  Alcotest.testable Document.pp_detailed Document.equal

let doc_string : Document.t Alcotest.testable =
  Alcotest.testable Document.pp (fun a b ->
      String.equal (Document.to_string a) (Document.to_string b))

let op : Rlist_ot.Op.t Alcotest.testable =
  Alcotest.testable Rlist_ot.Op.pp Rlist_ot.Op.equal

let op_id : Op_id.t Alcotest.testable = Alcotest.testable Op_id.pp Op_id.equal

let op_id_set : Op_id.Set.t Alcotest.testable =
  Alcotest.testable Op_id.Set.pp Op_id.Set.equal

let check_satisfied what result =
  match result with
  | Rlist_spec.Check.Satisfied -> ()
  | Rlist_spec.Check.Violated _ ->
    Alcotest.failf "%s: expected satisfied, got %a" what Rlist_spec.Check.pp
      result

let check_violated what result =
  match result with
  | Rlist_spec.Check.Violated _ -> ()
  | Rlist_spec.Check.Satisfied ->
    Alcotest.failf "%s: expected a violation, got satisfied" what

(* The value of an [Ok], failing the test with an [Error]'s message. *)
let ok = function Ok v -> v | Error e -> Alcotest.failf "unexpected error: %s" e

(* Substring search, for asserting on rendered output. *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let elt ?(client = 1) ?(seq = 1) value =
  Element.make ~value ~id:(Op_id.make ~client ~seq)

let ins ?(client = 1) ?(seq = 1) value pos =
  let id = Op_id.make ~client ~seq in
  Rlist_ot.Op.make_ins ~id (Element.make ~value ~id) pos

let del ?(client = 1) ?(seq = 1) element pos =
  Rlist_ot.Op.make_del ~id:(Op_id.make ~client ~seq) element pos

(* QCheck generators. *)

let gen_char = QCheck2.Gen.char_range 'a' 'z'

(* A document of distinct elements attributed to pseudo-client 9. *)
let gen_document =
  QCheck2.Gen.(
    map
      (fun values ->
        Document.of_elements
          (List.mapi
             (fun i value ->
               Element.make ~value ~id:(Op_id.make ~client:9 ~seq:(i + 1)))
             values))
      (list_size (int_range 0 12) gen_char))

(* A pair of operations defined on the same document, from two distinct
   clients (as required for a meaningful CP1 check). *)
let gen_op_on ~client ~seq doc =
  QCheck2.Gen.(
    let len = Document.length doc in
    let insert =
      map2
        (fun value pos ->
          let id = Op_id.make ~client ~seq in
          Rlist_ot.Op.make_ins ~id (Element.make ~value ~id) pos)
        gen_char (int_range 0 len)
    in
    if len = 0 then insert
    else
      let delete =
        map
          (fun pos ->
            Rlist_ot.Op.make_del
              ~id:(Op_id.make ~client ~seq)
              (Document.nth doc pos) pos)
          (int_range 0 (len - 1))
      in
      oneof [ insert; delete ])

let gen_cp1_instance =
  QCheck2.Gen.(
    gen_document >>= fun doc ->
    gen_op_on ~client:1 ~seq:1 doc >>= fun o1 ->
    gen_op_on ~client:2 ~seq:1 doc >>= fun o2 -> return (doc, o1, o2))

(* Run a named figure scenario under a protocol's engine. *)
module Run (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  module E = Rlist_sim.Engine.Make (P)

  let scenario (s : Rlist_sim.Figures.scenario) =
    let t = E.create ~initial:s.initial ~nclients:s.nclients () in
    E.run t s.schedule;
    t

  let random ?intent ?(nclients = 4) ?(initial = Document.empty)
      ?(params = Rlist_sim.Schedule.default_params) seed =
    let t = E.create ~initial ~nclients () in
    let rng = Random.State.make [| seed; 0xC0FFEE |] in
    let schedule = E.run_random ?intent t ~rng ~params in
    t, schedule
end

module Css_run = Run (Jupiter_css.Protocol)
module Cscw_run = Run (Jupiter_cscw.Protocol)
module Rga_run = Run (Jupiter_rga.Protocol)
module Naive_run = Run (Jupiter_cscw.Naive_p2p)

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count gen prop)

(* The registry's correct protocols of one shape (every key but the
   naive foil), keyed by CLI name.  [expect] pins the count, so a
   registry change is noticed here and the new protocol joins the
   table that uses it. *)
let registry_protocols ~expect shape =
  let picked =
    List.filter_map
      (fun (key, p) ->
        match shape p with
        | Some x when not (String.equal key "naive") -> Some (key, x)
        | Some _ | None -> None)
      Rlist_run.Protocols.all
  in
  if List.length picked <> expect then
    failwith
      (Printf.sprintf "registry: expected %d protocols of this shape, found %d"
         expect (List.length picked));
  picked

let star = function
  | Rlist_run.Protocols.Star p -> Some p
  | Rlist_run.Protocols.Mesh _ -> None

let mesh = function
  | Rlist_run.Protocols.Mesh p -> Some p
  | Rlist_run.Protocols.Star _ -> None

(* css-pruned with [W.compacted who frontier space] called after every
   handler call that moved a replica's compaction frontier, [who] being
   ["server"] or ["client"]. *)
module Watch_compactions (W : sig
  val compacted : string -> int -> Jupiter_css.State_space.t -> unit
end) =
struct
  include Jupiter_css.Pruned_protocol

  let watch who frontier space t f =
    let before = frontier t in
    let result = f () in
    let after = frontier t in
    if after <> before then W.compacted who after (space t);
    result

  let watch_server t f = watch "server" server_pruned_to server_space t f

  let watch_client t f = watch "client" client_pruned_to client_space t f

  let server_receive t ~from m =
    watch_server t (fun () -> server_receive t ~from m)

  let server_receive_batch t ~from b =
    watch_server t (fun () -> server_receive_batch t ~from b)

  let client_receive t m = watch_client t (fun () -> client_receive t m)

  let client_receive_batch t b =
    watch_client t (fun () -> client_receive_batch t b)
end

(* The benchmark's typing-burst episode: each round, every one of 4
   clients types a 64-character slice of [text] at the end of its own
   view, then the round quiesces.  Batching and the append fast path
   ([fp], which must be enabled) are on; the wire is perfect. *)
module Css_engine = Rlist_sim.Engine.Make (Jupiter_css.Protocol)

let typing_clients = 4

let typing_burst = 64

let typing_episode ~fp text =
  let rounds = String.length text / (typing_clients * typing_burst) in
  let t =
    Css_engine.create ~batching:true ~history:false ~fastpath:fp
      ~nclients:typing_clients ()
  in
  for round = 0 to rounds - 1 do
    for i = 1 to typing_clients do
      let len = Document.length (Css_engine.client_document t i) in
      let base = ((round * typing_clients) + i - 1) * typing_burst in
      for j = 0 to typing_burst - 1 do
        Css_engine.apply_event t
          (Rlist_sim.Schedule.Generate
             (i, Intent.Insert (text.[base + j], len + j)))
      done
    done;
    ignore (Css_engine.quiesce t)
  done;
  t

(* Two rounds of lowercase letters drawn from [seed]. *)
let typing_text seed =
  let rng = Random.State.make [| seed |] in
  String.init (2 * typing_clients * typing_burst) (fun _ ->
      Char.chr (97 + Random.State.int rng 26))

(* JSON reports are asserted field by field on their emitted text,
   parsed back, so the tests pin values and not layout. *)
module Json = Rlist_obs.Json

let json : Json.t Alcotest.testable =
  Alcotest.testable
    (fun ppf v -> Format.pp_print_string ppf (Json.to_string v))
    ( = )

(* [v] printed and parsed back; fails the test when the text is not
   JSON. *)
let reparse v =
  match Json.of_string (Json.to_string v) with
  | Ok j -> j
  | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e

(* The member at [path] (object keys, outermost first). *)
let rec json_at j = function
  | [] -> j
  | key :: rest -> (
    match Json.member key j with
    | Some v -> json_at v rest
    | None -> Alcotest.failf "no member %S in %s" key (Json.to_string j))

let check_json_field j path expected =
  Alcotest.check json (String.concat "." path) expected (json_at j path)

(* Some element of the array at [path] has member [key] = [expected]. *)
let check_json_some j path key expected =
  let elements =
    match json_at j path with
    | Json.List l -> l
    | v -> Alcotest.failf "not an array: %s" (Json.to_string v)
  in
  Alcotest.(check bool)
    (Printf.sprintf "some %s has %s = %s" (String.concat "." path) key
       (Json.to_string expected))
    true
    (List.exists (fun e -> Json.member key e = Some expected) elements)
