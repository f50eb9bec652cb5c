(* The two-domain smoke harness (lib/run/shard_smoke): the dynamic
   witness behind the escape pass's shard_ready gate.  Each document
   runs once on the calling domain and once on its own Domain; since
   the lint proves every engine-reachable mutable allocation is stack-
   or instance-confined, the digests must be bit-identical.  The clock
   is a constant function — digests never depend on it, so the whole
   test is deterministic. *)

let now () = 0.0

let smoke ?gc ~protocol ~seed () =
  Rlist_run.Shard_smoke.run ?gc ~now ~protocol
    ~profile:Rlist_workload.Workload.Uniform ~nclients:3 ~updates:2_000
    ~chunk:500 ~seed ()

let test_digests_equal () =
  let r = smoke ~protocol:"css" ~seed:7 () in
  Alcotest.(check bool)
    "two-domain digests match the single-domain run" true
    r.Rlist_run.Shard_smoke.s_equal;
  Alcotest.(check bool)
    "the two documents are actually different documents" false
    (String.equal
       (fst r.Rlist_run.Shard_smoke.s_single)
       (snd r.Rlist_run.Shard_smoke.s_single))

let test_under_gc () =
  let r =
    smoke ~gc:Rlist_gc.default ~protocol:"css-pruned" ~seed:11 ()
  in
  Alcotest.(check bool)
    "confinement also holds with the continuous GC on" true
    r.Rlist_run.Shard_smoke.s_equal

let test_json () =
  let r = smoke ~protocol:"css" ~seed:7 () in
  let json = Helpers.reparse (Rlist_run.Shard_smoke.result_to_json r) in
  let field = Helpers.check_json_field json in
  field [ "version" ] (Int 1);
  field [ "protocol" ] (Str "css");
  field [ "seeds" ] (List [ Int 7; Int 8 ]);
  field [ "equal" ] (Bool true)

let test_bad_protocol () =
  Alcotest.check_raises "peer-to-peer protocols are rejected"
    (Invalid_argument "Longrun.run: peer-to-peer protocols are not soakable here")
    (fun () -> ignore (smoke ~protocol:"css-p2p" ~seed:1 ()))

let () =
  Alcotest.run "shard-smoke"
    [
      ( "digest equality",
        [
          Alcotest.test_case "two domains vs one" `Quick test_digests_equal;
          Alcotest.test_case "with continuous GC" `Quick test_under_gc;
        ] );
      ( "interface",
        [
          Alcotest.test_case "json rendering" `Quick test_json;
          Alcotest.test_case "bad protocol" `Quick test_bad_protocol;
        ] );
    ]
