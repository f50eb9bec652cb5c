(* Structure pin for the n-ary ordered state space.

   Every replica's space is reduced to a digest of its full structure:
   the states sorted by size and a fingerprint of their elements, each with its
   ordered outgoing transitions (original operation, form, and the
   target's index in that order), followed by the leftmost path from
   the root.
   The runs cover the benchmark-shaped typing episode (batched), an
   unbatched hotspot run over a lossy wire behind the
   reliability shim, and the eager-GC css-pruned rows of the engine pin
   suite, digested after every compaction.

   The engine pins fix documents, traces and metadata totals; these
   digests fix the states and transitions themselves, so a change to
   the space's representation must rebuild exactly the same space.
   The rows behind a lossy wire (hotspot, and the chaos compaction
   rows) were re-taken when the shim's acks gained a selective part:
   the wire then retransmits less, which reorders deliveries and so
   builds other spaces. *)

open Rlist_model
open Rlist_ot
module Space = Jupiter_css.State_space
module Transport = Rlist_net.Transport

(* The digest is a 63-bit fingerprint folded over the listing, and a
   state is named by the fingerprint of its elements in ascending
   order: that keeps the digest linear in the size of the space, and a
   collision between two states of one space fails the test rather
   than passing silently. *)
let mix x =
  let x = x * 0x1E3779B97F4A7C15 in
  let x = x lxor (x lsr 31) in
  let x = x * 0x3F58476D1CE4E5B9 in
  x lxor (x lsr 29)

(* Fold one more integer into a running fingerprint. *)
let ( +> ) acc x = mix (acc + x)

let id_key (id : Op_id.t) = (id.client lsl 32) + id.seq

let state_key s =
  Op_id.Set.fold (fun id acc -> acc +> id_key id) s (Op_id.Set.cardinal s)

let element_key (e : Element.t) = Char.code e.value +> id_key e.id

let op_key (op : Op.t) =
  match op.action with
  | Op.Ins (e, p) -> (id_key op.id +> 1 +> element_key e) +> p
  | Op.Del (e, p) -> (id_key op.id +> 2 +> element_key e) +> p
  | Op.Nop -> id_key op.id +> 3

let space_digest space =
  let states =
    Array.of_list
      (List.map (fun s -> Op_id.Set.cardinal s, state_key s, s)
         (Space.states space))
  in
  Array.sort
    (fun (c1, k1, _) (c2, k2, _) ->
      match Int.compare c1 c2 with 0 -> Int.compare k1 k2 | c -> c)
    states;
  let index = Hashtbl.create (Array.length states) in
  Array.iteri
    (fun i (_, k, _) ->
      if Hashtbl.mem index k then Alcotest.fail "state fingerprint collision";
      Hashtbl.replace index k i)
    states;
  let state_index s =
    match Hashtbl.find_opt index (state_key s) with
    | Some i -> i
    | None -> Alcotest.failf "%a is not a state" Space.pp_state s
  in
  let transitions acc trs =
    List.fold_left
      (fun acc (tr : Space.transition) ->
        acc +> id_key tr.orig +> op_key tr.form +> state_index tr.target)
      (acc +> List.length trs) trs
  in
  let acc =
    Array.fold_left
      (fun acc (card, key, s) ->
        transitions (acc +> card +> key) (Space.transitions space s))
      (Array.length states) states
  in
  let acc =
    transitions
      (acc +> state_index (Space.root space) +> state_index (Space.final space))
      (Space.leftmost_path space (Space.root space))
  in
  Printf.sprintf "%016x" (acc land max_int)

module Css = Helpers.Css_engine

(* server first, then the clients *)
let replica_digests t =
  space_digest (Jupiter_css.Protocol.server_space (Css.server t))
  :: List.init (Css.nclients t) (fun i ->
         space_digest (Jupiter_css.Protocol.client_space (Css.client t (i + 1))))

let typing () =
  let fp = Rlist_ot.Fastpath.create () in
  replica_digests (Helpers.typing_episode ~fp (Helpers.typing_text 7))

let hotspot () =
  let faults =
    match Rlist_net.Faults.of_string "drop=0.3,dup=0.1,reorder=0.2" with
    | Ok f -> f
    | Error msg -> failwith msg
  in
  let net = Transport.config ~shim:true ~faults ~seed:5 () in
  let t = Css.create ~net ~batching:false ~history:false ~nclients:4 () in
  let rng = Random.State.make [| 5 |] in
  let module W = Rlist_workload.Workload in
  let intent = W.intent_generator W.Hotspot ~nclients:4 ~rng in
  ignore (Css.run_random ~intent t ~rng ~params:(W.params W.Hotspot ~updates:60));
  replica_digests t

(* css-pruned with a digest of the compacted space taken after every
   compaction, whichever handler performed it. *)
module Compactions = struct
  let log : string list ref = ref []

  module P = Helpers.Watch_compactions (struct
    let compacted who after space =
      log := Printf.sprintf "%s@%d:%s" who after (space_digest space) :: !log
  end)

  module E = Rlist_sim.Engine.Make (P)

  (* The engine pin suite's run, under its eager-GC policy. *)
  let run ~batching ~chaos =
    log := [];
    let net =
      if chaos then
        let faults = Option.get (Rlist_net.Faults.preset "chaos") in
        Some (Transport.config ~faults ~seed:11 ())
      else None
    in
    let gc =
      match Rlist_gc.of_string "ops=8,retain=2,snap=1" with
      | Ok p -> p
      | Error msg -> failwith msg
    in
    let t = E.create ?net ~batching ~gc ~nclients:3 () in
    E.run t
      Rlist_sim.Schedule.
        [
          Generate (1, Intent.Insert ('a', 0));
          Generate (2, Intent.Insert ('b', 0));
          Generate (1, Intent.Insert ('c', 1));
          Generate (3, Intent.Read);
        ];
    ignore (E.quiesce t);
    let rng = Random.State.make [| 23 |] in
    ignore
      (E.run_random t ~rng
         ~params:{ Rlist_sim.Schedule.default_params with updates = 24 });
    ignore
      (E.run_timed t ~rng
         ~params:{ Rlist_sim.Schedule.default_timed_params with t_updates = 12 });
    let entries = List.rev !log in
    Printf.sprintf "%d:%s" (List.length entries)
      (Digest.to_hex (Digest.string (String.concat "\n" entries)))
end

(* Proposition 6.6: every replica of a quiescent run holds the same
   space, so the rows repeat one digest per replica. *)
let test_typing () =
  Alcotest.(check (list string)) "typing replicas"
    (List.init 5 (fun _ -> "00227deb9f15a535"))
    (typing ())

let test_hotspot () =
  Alcotest.(check (list string)) "hotspot replicas"
    (List.init 5 (fun _ -> "090fddc12c60ff12"))
    (hotspot ())

(* (batching, chaos) -> compactions:digest of the per-compaction log *)
let pruned_expected =
  [
    (false, false), "60:36e0540705c9d59bc5f6f4761dd399ac";
    (false, true), "30:573705ac9c4065a553da46fd63c8b14d";
    (true, false), "47:b688e35cb4ae9aa96f878cedf64c1a81";
    (true, true), "29:3bb37ccab5a28a560bba89c84ef61d46";
  ]

let pruned_case (batching, chaos) =
  Alcotest.test_case
    (Printf.sprintf "css-pruned eager-gc%s%s"
       (if batching then " batched" else "")
       (if chaos then " chaos" else ""))
    `Quick
    (fun () ->
      Alcotest.(check string)
        "compaction digests"
        (List.assoc (batching, chaos) pruned_expected)
        (Compactions.run ~batching ~chaos))

let () =
  Alcotest.run "space-pin"
    [
      ( "structure",
        [
          Alcotest.test_case "typing episode" `Quick test_typing;
          Alcotest.test_case "hotspot unbatched" `Quick test_hotspot;
        ]
        @ List.map pruned_case (List.map fst pruned_expected) );
    ]
