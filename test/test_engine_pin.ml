(* Pinned-output equivalence suite for the two simulation engines.

   A fixed matrix of runs — client/server protocols on [Engine],
   peer-to-peer protocols on [P2p_engine], batching off and on, a
   perfect wire and the [chaos] preset behind the reliability shim —
   is driven through scripted generates, [quiesce], [run_random] and
   (client/server only) [run_timed], with a tracing observability
   bundle and a flight recorder attached.  Every observable output is
   reduced to a fingerprint whose expected value is hard-coded below:
   the JSONL trace, the metrics JSON, the recorder decision stream,
   the performed schedule, the behaviour / final documents, the OT and
   metadata totals, and the GC accounting.

   The expected rows were captured from the engines as they stood
   before they were rebuilt over one shared channel-mesh core, so any
   refactor of lib/sim must reproduce the original results exactly:
   same decisions in the same order, same trace events in the same
   order, same metric values.  A mismatch is a behaviour change, not a
   stale pin. *)

open Rlist_model
module Obs = Rlist_obs.Obs
module Sink = Rlist_obs.Sink
module Event = Rlist_obs.Event
module Recorder = Rlist_obs.Recorder
module Transport = Rlist_net.Transport
module Schedule = Rlist_sim.Schedule

let hex s = Digest.to_hex (Digest.string s)

let net ~chaos =
  if chaos then
    let faults = Option.get (Rlist_net.Faults.preset "chaos") in
    Some (Transport.config ~faults ~seed:11 ())
  else None

let gc_policy = function
  | None -> None
  | Some s -> (
    match Rlist_gc.of_string s with
    | Ok p -> Some p
    | Error msg -> failwith msg)

(* The observers every run carries: a memory trace sink inside a
   metrics bundle, and a recorder large enough never to wrap. *)
let observers () =
  let sink = Sink.memory () in
  let obs = Obs.make ~sink () in
  let recorder = Recorder.create ~capacity:(1 lsl 20) () in
  sink, obs, recorder

let fingerprint ~sink ~obs ~recorder ~schedule ~docs ~ot ~meta ~gc =
  let trace =
    String.concat "\n"
      (List.mapi (fun i e -> Event.to_jsonl ~seq:i e) (Sink.events sink))
  in
  let decisions =
    String.concat "\n"
      (List.map Recorder.decision_to_string (Recorder.window recorder))
  in
  let gc =
    match gc with
    | None -> "-"
    | Some s ->
      String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v)
           (Rlist_gc.stats_fields s))
  in
  Printf.sprintf
    "trace=%s metrics=%s decisions=%s/%d schedule=%s docs=%s ot=%d meta=%d \
     gc=%s"
    (hex trace)
    (hex (Obs.metrics_json obs))
    (hex decisions) (Recorder.total recorder) (hex schedule) (hex docs) ot meta
    gc

let show pp x = Format.asprintf "%a" pp x

module Cs (P : Rlist_sim.Protocol_intf.PROTOCOL) = struct
  module E = Rlist_sim.Engine.Make (P)

  let run ~batching ~chaos ~gc =
    let t =
      E.create ?net:(net ~chaos) ~batching ?gc:(gc_policy gc) ~nclients:3 ()
    in
    let sink, obs, recorder = observers () in
    E.attach_obs t obs;
    E.attach_recorder t recorder;
    let scripted =
      Schedule.
        [
          Generate (1, Intent.Insert ('a', 0));
          Generate (2, Intent.Insert ('b', 0));
          Generate (1, Intent.Insert ('c', 1));
          Generate (3, Intent.Read);
        ]
    in
    E.run t scripted;
    let drained = E.quiesce t in
    let rng = Random.State.make [| 23 |] in
    let random =
      E.run_random t ~rng
        ~params:{ Schedule.default_params with updates = 24 }
    in
    let timed =
      E.run_timed t ~rng
        ~params:{ Schedule.default_timed_params with t_updates = 12 }
    in
    let schedule = show Schedule.pp (scripted @ drained @ random @ timed) in
    let docs =
      String.concat "\n"
        (Printf.sprintf "clock=%d dedup=%d snapshot=%s" (E.clock t)
           (E.dedup_keys t)
           (Option.value (E.gc_last_snapshot t) ~default:"-")
        :: show Document.pp_detailed (E.server_document t)
        :: List.map
             (fun (r, d) ->
               show Replica_id.pp r ^ ":" ^ show Document.pp_detailed d)
             (E.behavior t))
    in
    fingerprint ~sink ~obs ~recorder ~schedule ~docs ~ot:(E.total_ot_count t)
      ~meta:(E.total_metadata_size t) ~gc:(E.gc_stats t)
end

module P2p (P : Rlist_sim.P2p_protocol_intf.P2P_PROTOCOL) = struct
  module E = Rlist_sim.P2p_engine.Make (P)

  let run ~batching ~chaos ~gc =
    let t =
      E.create ?net:(net ~chaos) ~batching ?gc:(gc_policy gc) ~npeers:3 ()
    in
    let sink, obs, recorder = observers () in
    E.attach_obs t obs;
    E.attach_recorder t recorder;
    let scripted =
      Rlist_sim.P2p_engine.
        [
          Generate (1, Intent.Insert ('a', 0));
          Generate (2, Intent.Insert ('b', 0));
          Generate (3, Intent.Insert ('c', 0));
          Generate (2, Intent.Read);
        ]
    in
    E.run t scripted;
    let drained = E.quiesce t in
    let rng = Random.State.make [| 23 |] in
    let random =
      E.run_random t ~rng
        ~params:{ Schedule.default_params with updates = 24 }
    in
    let schedule =
      String.concat "\n"
        (List.map
           (show Rlist_sim.P2p_engine.pp_event)
           (scripted @ drained @ random))
    in
    let docs =
      String.concat "\n"
        (Printf.sprintf "clock=%d buffered=%d" (E.clock t) (E.total_buffered t)
        :: List.init (E.npeers t) (fun i ->
             show Document.pp_detailed (E.document t (i + 1))))
    in
    fingerprint ~sink ~obs ~recorder ~schedule ~docs ~ot:(E.total_ot_count t)
      ~meta:(E.total_metadata_size t) ~gc:(E.gc_stats t)
end

module Css = Cs (Jupiter_css.Protocol)
module Pruned = Cs (Jupiter_css.Pruned_protocol)
module Cscw = Cs (Jupiter_cscw.Protocol)
module Rga = Cs (Jupiter_rga.Protocol)
module Distributed = P2p (Jupiter_css.Distributed_protocol)
module Ttf = P2p (Jupiter_ttf.Adopted_protocol)

let protocols =
  [
    "css", Css.run, None;
    "css-pruned", Pruned.run, Some "ops=64";
    "css-pruned eager-gc", Pruned.run, Some "ops=8,retain=2,snap=1";
    "cscw", Cscw.run, None;
    "rga", Rga.run, None;
    "distributed", Distributed.run, Some "ops=8,retain=2";
    "ttf", Ttf.run, None;
  ]

(* protocol, batching, chaos -> fingerprint, captured before the
   engines were rebuilt over the shared core. *)
let expected =
  [
    ( ("css", false, false),
      "trace=a7c5770ff4e9a025583216177eb013f4 \
       metrics=24bbe035068aaee0950cf0291fb35266 \
       decisions=74e00a4d34145c68bef4bdbd0bd4ea25/392 \
       schedule=1a3f6b8222d42aa8c2949755e825ace3 \
       docs=79c60233ba0a17c621b9d3a0196b553e \
       ot=1336 \
       meta=2320 \
       gc=-" );
    ( ("css", false, true),
      "trace=7636dd270d8fa3136713c9f6b624ae59 \
       metrics=43e7d6e3788ee8acb8ec06c895fff9ce \
       decisions=1ae95fc01e3ed26a7500b3647b657179/2481 \
       schedule=ed2d21af7084e048de770c86b3edac3f \
       docs=3587736d3082bd29e990eff0cea7cbbe \
       ot=1608 \
       meta=2728 \
       gc=-" );
    ( ("css", true, false),
      "trace=d501de2ae1ffbc46c36dbbee7c8298f9 \
       metrics=2aaa03cbac26f28bc9b9d388d8d2f3ce \
       decisions=18801b0e070cd86b0ffea60a95fad029/319 \
       schedule=2709b5513261812ccf77318d2e76b574 \
       docs=30f08a47a121fd17ef09fbc72f0f3735 \
       ot=512 \
       meta=1084 \
       gc=-" );
    ( ("css", true, true),
      "trace=3eef912adcf4aade9d101d9d0b2b123b \
       metrics=1288925747218317218d7f050b79ea08 \
       decisions=c1538b6645612a7b1d3e8915de0c2535/1233 \
       schedule=70528c039c5602b945917e8ab95b5d95 \
       docs=026757902e1a0109700eb90ab9c8dece \
       ot=1296 \
       meta=2260 \
       gc=-" );
    ( ("css-pruned", false, false),
      "trace=986a4b6b135b73fc8cd5357262251b8d \
       metrics=b3d755adc8ac8370f0624f0e7f20f8a0 \
       decisions=347a469b6975ebd906614d8740b0b419/395 \
       schedule=1a3f6b8222d42aa8c2949755e825ace3 \
       docs=79c60233ba0a17c621b9d3a0196b553e \
       ot=1336 \
       meta=102 \
       gc=cycles=3,reclaimed_states=1243,reclaimed_log=62,reclaimed_keys=0,heartbeats=6,skipped_heartbeats=3,stables_delivered=5,skipped_stables=4,snapshots=0,last_snapshot_bytes=0,meta_peak=496" );
    ( ("css-pruned", false, true),
      "trace=d16cfe6c3a78c123525322e53243805b \
       metrics=7c09b3b24ee8b7d561a001ae8268c1f0 \
       decisions=2496fb95fd8821019b6638d6eda96c0e/2484 \
       schedule=ed2d21af7084e048de770c86b3edac3f \
       docs=3587736d3082bd29e990eff0cea7cbbe \
       ot=1608 \
       meta=193 \
       gc=cycles=3,reclaimed_states=1551,reclaimed_log=69,reclaimed_keys=0,heartbeats=6,skipped_heartbeats=3,stables_delivered=10,skipped_stables=5,snapshots=0,last_snapshot_bytes=0,meta_peak=492" );
    ( ("css-pruned", true, false),
      "trace=91108de7bed2c914358ed998fe800080 \
       metrics=97c2d8d4cf230e60cc9441c83b6cd1b1 \
       decisions=5e6fb3f7f1185aaea18d302348a8d09b/322 \
       schedule=2709b5513261812ccf77318d2e76b574 \
       docs=30f08a47a121fd17ef09fbc72f0f3735 \
       ot=512 \
       meta=4 \
       gc=cycles=3,reclaimed_states=264,reclaimed_log=48,reclaimed_keys=0,heartbeats=8,skipped_heartbeats=1,stables_delivered=12,skipped_stables=6,snapshots=0,last_snapshot_bytes=0,meta_peak=188" );
    ( ("css-pruned", true, true),
      "trace=c74dd06e18d9e890b9da3c9af4e2e017 \
       metrics=7b74bf4846af8275c9a442023f081039 \
       decisions=dc17f0c53bc95907a047a7fd1fb4322f/1236 \
       schedule=70528c039c5602b945917e8ab95b5d95 \
       docs=026757902e1a0109700eb90ab9c8dece \
       ot=1296 \
       meta=4 \
       gc=cycles=3,reclaimed_states=1406,reclaimed_log=88,reclaimed_keys=0,heartbeats=7,skipped_heartbeats=2,stables_delivered=10,skipped_stables=2,snapshots=0,last_snapshot_bytes=0,meta_peak=414" );
    ( ("css-pruned eager-gc", false, false),
      "trace=654022732a778aaceedb8af83be649e7 \
       metrics=cf02e048f7dabc2977d301514fe8b268 \
       decisions=4343de52384d7670865b84ab89523b68/416 \
       schedule=1a3f6b8222d42aa8c2949755e825ace3 \
       docs=83cf448a3fe17f1942e76f301d5105d1 \
       ot=1336 \
       meta=58 \
       gc=cycles=24,reclaimed_states=1231,reclaimed_log=59,reclaimed_keys=0,heartbeats=50,skipped_heartbeats=22,stables_delivered=10,skipped_stables=38,snapshots=24,last_snapshot_bytes=127,meta_peak=1047" );
    ( ("css-pruned eager-gc", false, true),
      "trace=5e2d51e7bd4077968b617c630ecc9af4 \
       metrics=90f2bfb36cd69c362102b9e2eb20f37e \
       decisions=ef7ec4bec035fdab7482e7962f025eb9/2505 \
       schedule=ed2d21af7084e048de770c86b3edac3f \
       docs=5dc2858abe255f410fe636c7941e5585 \
       ot=1608 \
       meta=193 \
       gc=cycles=24,reclaimed_states=2175,reclaimed_log=111,reclaimed_keys=141,heartbeats=28,skipped_heartbeats=44,stables_delivered=10,skipped_stables=5,snapshots=24,last_snapshot_bytes=206,meta_peak=1600" );
    ( ("css-pruned eager-gc", true, false),
      "trace=4b00e07efee26e088f322162dcdc983d \
       metrics=79eae1f8cf211f4371019236d9bb9e6a \
       decisions=8f70484b96acbc6e39eda1bb98cac434/340 \
       schedule=2709b5513261812ccf77318d2e76b574 \
       docs=88389edb0803c5c61145d9b750bbca21 \
       ot=512 \
       meta=12 \
       gc=cycles=21,reclaimed_states=655,reclaimed_log=95,reclaimed_keys=0,heartbeats=44,skipped_heartbeats=19,stables_delivered=16,skipped_stables=11,snapshots=21,last_snapshot_bytes=126,meta_peak=277" );
    ( ("css-pruned eager-gc", true, true),
      "trace=2c907a14743db9f980574921d9524fea \
       metrics=b4851981bfb4efedcce886cf8c57df63 \
       decisions=616b93db0a6edb31c7023d85facd7cd8/1255 \
       schedule=70528c039c5602b945917e8ab95b5d95 \
       docs=503e1ada92f482512cf604fba7324760 \
       ot=1296 \
       meta=153 \
       gc=cycles=22,reclaimed_states=1265,reclaimed_log=67,reclaimed_keys=57,heartbeats=37,skipped_heartbeats=29,stables_delivered=5,skipped_stables=16,snapshots=22,last_snapshot_bytes=209,meta_peak=926" );
    ( ("cscw", false, false),
      "trace=8bbc629fe14851fd69ed6a31eb5240df \
       metrics=84f7eb61f973aca389b55d10cface09e \
       decisions=74e00a4d34145c68bef4bdbd0bd4ea25/392 \
       schedule=1a3f6b8222d42aa8c2949755e825ace3 \
       docs=79c60233ba0a17c621b9d3a0196b553e \
       ot=593 \
       meta=827 \
       gc=-" );
    ( ("cscw", false, true),
      "trace=8e3898f0f258222f28355c975bd36ceb \
       metrics=86e1562143b948743301b4193d746d08 \
       decisions=1ae95fc01e3ed26a7500b3647b657179/2481 \
       schedule=ed2d21af7084e048de770c86b3edac3f \
       docs=33b4a3af3a8e03dc0c80c40cc3bb8829 \
       ot=712 \
       meta=946 \
       gc=-" );
    ( ("cscw", true, false),
      "trace=14b77d5aee3da82aea426dfb8a114877 \
       metrics=d56f3065cbf04fce9816d715917fb1bf \
       decisions=18801b0e070cd86b0ffea60a95fad029/319 \
       schedule=2709b5513261812ccf77318d2e76b574 \
       docs=30f08a47a121fd17ef09fbc72f0f3735 \
       ot=192 \
       meta=426 \
       gc=-" );
    ( ("cscw", true, true),
      "trace=48f45e12944f570ad44d192b84ce3d6d \
       metrics=daf362d003674e8ff2e8126d6cdaf6bf \
       decisions=c1538b6645612a7b1d3e8915de0c2535/1233 \
       schedule=70528c039c5602b945917e8ab95b5d95 \
       docs=30e61cf775139011c02356c3960f6f0f \
       ot=557 \
       meta=791 \
       gc=-" );
    ( ("rga", false, false),
      "trace=504e309f519af346be42df86031fab26 \
       metrics=936421cfe94929d6d359950f24a06696 \
       decisions=74e00a4d34145c68bef4bdbd0bd4ea25/392 \
       schedule=1a3f6b8222d42aa8c2949755e825ace3 \
       docs=02ab80ad8b8787d76ef75d9c2029e41a \
       ot=0 \
       meta=92 \
       gc=-" );
    ( ("rga", false, true),
      "trace=bef403add1bd3721a42f4168acdee1e4 \
       metrics=9e353846f15ce145940dff95f5facc47 \
       decisions=1ae95fc01e3ed26a7500b3647b657179/2481 \
       schedule=ed2d21af7084e048de770c86b3edac3f \
       docs=1a4ccbfd2c37d9d0c8197a65a9f1427d \
       ot=0 \
       meta=108 \
       gc=-" );
    ( ("rga", true, false),
      "trace=6341d2370ea0ee8921e53954fcb93d61 \
       metrics=90cd85d3d9d8e5cd2e0ac93cb9bff833 \
       decisions=18801b0e070cd86b0ffea60a95fad029/319 \
       schedule=2709b5513261812ccf77318d2e76b574 \
       docs=9c2484aa330e3c7ecdb7cdc769db46ac \
       ot=0 \
       meta=88 \
       gc=-" );
    ( ("rga", true, true),
      "trace=f037798ffcfa9d3e2334e8e5b60895ba \
       metrics=2c08a1eaa8418d13bf41fc57c9c54e77 \
       decisions=43359ebebbdbe2dca29f7dc1a79a9ff9/1233 \
       schedule=4e9fb03ce01efe454b1bd5338a36a60d \
       docs=e588c47aff2ecd1be4675a40770fec81 \
       ot=0 \
       meta=96 \
       gc=-" );
    ( ("distributed", false, false),
      "trace=9d9de0e65d45c84c4dd383e8c98b6e08 \
       metrics=1aca44bbc00c44a40d907fccf804bd4a \
       decisions=8ff360f82ed83fa0155eed25ae9ab3f5/378 \
       schedule=12f4eeaa742acdea256c2da6b083729c \
       docs=54ff053da9298e649f25915772e89978 \
       ot=822 \
       meta=1398 \
       gc=cycles=10,reclaimed_states=0,reclaimed_log=0,reclaimed_keys=0,heartbeats=0,skipped_heartbeats=0,stables_delivered=0,skipped_stables=0,snapshots=0,last_snapshot_bytes=0,meta_peak=1353" );
    ( ("distributed", false, true),
      "trace=403218668a23ec7cf6453c2e4edc6436 \
       metrics=f0dea0c98693efd25b9d03ce3bf0e3a3 \
       decisions=7a632b67d57a8b0951ee9b25edd3c4e4/2761 \
       schedule=2cd1d0369819f0433ab3a8dbe8f80fdd \
       docs=29f5feba80b3a936f61c1ccc26653f86 \
       ot=948 \
       meta=1587 \
       gc=cycles=10,reclaimed_states=0,reclaimed_log=0,reclaimed_keys=52,heartbeats=0,skipped_heartbeats=0,stables_delivered=0,skipped_stables=0,snapshots=0,last_snapshot_bytes=0,meta_peak=1419" );
    ( ("distributed", true, false),
      "trace=82f46a1987388753818bade303c09868 \
       metrics=a815b06229399edbe2e6300f879553db \
       decisions=10ca31b08bbb44d73a47c9afbe0c96df/202 \
       schedule=beb64795be5a3a20f9a8a2bc752da96c \
       docs=c7634b3df5d174c5234948773e838699 \
       ot=324 \
       meta=651 \
       gc=cycles=9,reclaimed_states=0,reclaimed_log=0,reclaimed_keys=0,heartbeats=0,skipped_heartbeats=0,stables_delivered=0,skipped_stables=0,snapshots=0,last_snapshot_bytes=0,meta_peak=477" );
    ( ("distributed", true, true),
      "trace=f34b7444afa533106003e21e0f915a5d \
       metrics=884c63fd0916ab1fbb0809ee0aa0711d \
       decisions=cf75f5f7410f66e20ff2245c4180d292/1207 \
       schedule=cf8d19ba221218b595df8b8ce4cc5905 \
       docs=0b4a42b66cb43c774f0c1d32e5789db9 \
       ot=810 \
       meta=1380 \
       gc=cycles=9,reclaimed_states=0,reclaimed_log=0,reclaimed_keys=17,heartbeats=0,skipped_heartbeats=0,stables_delivered=0,skipped_stables=0,snapshots=0,last_snapshot_bytes=0,meta_peak=903" );
    ( ("ttf", false, false),
      "trace=35a984e88e95795f6cc34524631b9223 \
       metrics=5103a83901c1e00919dc0a98ec16d40c \
       decisions=bb28cc144329b6674064ccea39661a76/163 \
       schedule=94a42e6b4e205a471690b8d0cfd8454f \
       docs=028db193a268fc5c48be792439ce67a7 \
       ot=386 \
       meta=515 \
       gc=-" );
    ( ("ttf", false, true),
      "trace=1edf5d84ff5c23f406af6403cb2cb0a4 \
       metrics=04a40ba41b42dfd526071b0e2f913fe6 \
       decisions=f0ddde34b58c6a355c9bc1418a575d00/1055 \
       schedule=a2c59869e03ba21e7693628a86fcee34 \
       docs=319d76eaf04851fc8ed09abdd37ce122 \
       ot=1177 \
       meta=1306 \
       gc=-" );
    ( ("ttf", true, false),
      "trace=1a4a2b213911e9a6f1bb741583b5a582 \
       metrics=2eda7876451413f5625658945e2ab539 \
       decisions=21cdd1bfd09de185017a6433c46a7500/171 \
       schedule=ea4e9c6416047152f615351089075543 \
       docs=57f38aaaa91853b97588344ac1a7b9a9 \
       ot=59 \
       meta=194 \
       gc=-" );
    ( ("ttf", true, true),
      "trace=1ba6d58f7ef214b024c305263701cc16 \
       metrics=4d00bf97bae9779ad28a14c43c413dc9 \
       decisions=032b9e393dda914bde0d2957263b2da6/1101 \
       schedule=2f0cde53731a9e417b5cb2a01ed61ec7 \
       docs=930510766a06f87ccb6608942ddb3392 \
       ot=571 \
       meta=703 \
       gc=-" );
  ]

let row_name (name, batching, chaos) =
  Printf.sprintf "%s%s%s" name
    (if batching then " batched" else "")
    (if chaos then " chaos" else "")

let cases =
  List.concat_map
    (fun (name, run, gc) ->
      List.concat_map
        (fun batching ->
          List.map
            (fun chaos ->
              (name, batching, chaos), fun () -> run ~batching ~chaos ~gc)
            [ false; true ])
        [ false; true ])
    protocols

let test_case ((key, run) : (string * bool * bool) * (unit -> string)) =
  Alcotest.test_case (row_name key) `Quick (fun () ->
      let actual = run () in
      match List.assoc_opt key expected with
      | Some pinned ->
        Alcotest.(check string) "pinned fingerprint" pinned actual
      | None -> Alcotest.failf "no pinned row for %s" (row_name key))

let () =
  Alcotest.run "engine-pin" [ "matrix", List.map test_case cases ]
