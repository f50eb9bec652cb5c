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
   stale pin.  The chaos rows were re-taken once, when the shim's acks
   gained a selective part: that changes which payloads are
   retransmitted, and so every schedule behind a lossy wire.  The
   perfect-wire rows are the originals. *)

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
   engines were rebuilt over the shared core (the chaos rows: since
   acks are selective). *)
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
      "trace=effff45f4d2c17ff6de054f9a5a36e69 \
       metrics=665789f437dc92bf56d1cb7d37b6c0be \
       decisions=a55c6a67f118810dd811cf43c11a9b60/2923 \
       schedule=2280f0d607798b6f831186cc6a11c7ea \
       docs=be2dee340bb00448eb92ff1c8fae9eab \
       ot=1712 \
       meta=2884 \
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
      "trace=2f875cd84a8a2ec044b96f3cfc888de0 \
       metrics=51d3a96230e961dda1debef0c36ada98 \
       decisions=3e4091168ea4b35f14c160548934d3ca/1869 \
       schedule=dee807ac284e3e3fc617ebcd6911e725 \
       docs=5bb1bc6f27e3a1f848cb8fedbd3e2268 \
       ot=1176 \
       meta=2080 \
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
      "trace=f3acff57ce3b8ecbd68bce23460f33c5 \
       metrics=69377f9427dcbedb5ffa98fd87a1d5ae \
       decisions=ceb8eea109010838e875cea843df67e6/2926 \
       schedule=2280f0d607798b6f831186cc6a11c7ea \
       docs=be2dee340bb00448eb92ff1c8fae9eab \
       ot=1712 \
       meta=199 \
       gc=cycles=3,reclaimed_states=537,reclaimed_log=30,reclaimed_keys=0,heartbeats=5,skipped_heartbeats=4,stables_delivered=4,skipped_stables=2,snapshots=0,last_snapshot_bytes=0,meta_peak=1895" );
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
      "trace=f5356567754867f8811fb0381a0bb8b5 \
       metrics=df99602e198071605e3c88f43c4a6dff \
       decisions=68e467cd3de6fd889ba133057b7025c1/1872 \
       schedule=dee807ac284e3e3fc617ebcd6911e725 \
       docs=5bb1bc6f27e3a1f848cb8fedbd3e2268 \
       ot=1176 \
       meta=272 \
       gc=cycles=3,reclaimed_states=1064,reclaimed_log=64,reclaimed_keys=0,heartbeats=6,skipped_heartbeats=3,stables_delivered=6,skipped_stables=6,snapshots=0,last_snapshot_bytes=0,meta_peak=387" );
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
      "trace=323202d0d33e886a64cbfadf45aa4acf \
       metrics=6d47d950f8986791e5207c209fec6e72 \
       decisions=82f234e12ba57438e68ab7d2f3291886/2947 \
       schedule=2280f0d607798b6f831186cc6a11c7ea \
       docs=c52be633e5ef7b1f7c1c0dd3664bbbd2 \
       ot=1712 \
       meta=199 \
       gc=cycles=24,reclaimed_states=2389,reclaimed_log=104,reclaimed_keys=141,heartbeats=34,skipped_heartbeats=38,stables_delivered=10,skipped_stables=5,snapshots=24,last_snapshot_bytes=180,meta_peak=1959" );
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
      "trace=115664a4841ef8a946758382d03f95a0 \
       metrics=653d93926812c655cdff6802e75174b7 \
       decisions=28299778e0dc209d88e49bc8be4eb975/1889 \
       schedule=dee807ac284e3e3fc617ebcd6911e725 \
       docs=65a36887447cd05eb610aaf108f18b54 \
       ot=1176 \
       meta=202 \
       gc=cycles=20,reclaimed_states=309,reclaimed_log=21,reclaimed_keys=49,heartbeats=25,skipped_heartbeats=35,stables_delivered=3,skipped_stables=9,snapshots=20,last_snapshot_bytes=192,meta_peak=1046" );
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
      "trace=9161bd1c31ea3552666fd07ad51682a2 \
       metrics=cd138e04b19c35d14e56915238531708 \
       decisions=a55c6a67f118810dd811cf43c11a9b60/2923 \
       schedule=2280f0d607798b6f831186cc6a11c7ea \
       docs=f01df66e1de1c4307fa2fded4263a07c \
       ot=762 \
       meta=996 \
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
      "trace=abf673031d1932140164f69d07dcc739 \
       metrics=8f08c66e5c8f29e8badde631aeca32ba \
       decisions=3e4091168ea4b35f14c160548934d3ca/1869 \
       schedule=dee807ac284e3e3fc617ebcd6911e725 \
       docs=03628361d62354e0f7844f0e7af1d315 \
       ot=497 \
       meta=731 \
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
      "trace=745480c453b853ca0812498b42f02def \
       metrics=97ea3dd7eae73186893645259dcdd4bb \
       decisions=a55c6a67f118810dd811cf43c11a9b60/2923 \
       schedule=2280f0d607798b6f831186cc6a11c7ea \
       docs=b06f901e447ba56eb545f187c7943895 \
       ot=0 \
       meta=100 \
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
      "trace=00d18cfb4baae5cf67d64fcb48fabf8d \
       metrics=d67ef2c2b3ac33dd4db5e6f47fedfc68 \
       decisions=be5c94f7bbcecb6083345b332f75cfc2/1869 \
       schedule=e0b82ac57000c908e1c0daa0bca05fda \
       docs=69037634da81344a9b741ecf54a3fe94 \
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
      "trace=88ec099d8206244accfe0443a4e2dee0 \
       metrics=894039156303f4075217466756dada55 \
       decisions=e3335028330926a82821caf53bd56724/1905 \
       schedule=3c197699b83b9c73d5069017944b46b5 \
       docs=f5a71b7d354e4f44b503c3492b8f48b9 \
       ot=966 \
       meta=1614 \
       gc=cycles=10,reclaimed_states=0,reclaimed_log=0,reclaimed_keys=49,heartbeats=0,skipped_heartbeats=0,stables_delivered=0,skipped_stables=0,snapshots=0,last_snapshot_bytes=0,meta_peak=1344" );
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
      "trace=dd218c50dcdbacbe3d330ce2606d1b85 \
       metrics=f8454521ce52dc03d81b66b32c91f224 \
       decisions=e026681d4b5b164665d832e4d24e0c0c/1055 \
       schedule=f4a18beb757b09c35ce5bc844381695c \
       docs=9e836029003e060cb9490b6718d19a7d \
       ot=1056 \
       meta=1749 \
       gc=cycles=9,reclaimed_states=0,reclaimed_log=0,reclaimed_keys=19,heartbeats=0,skipped_heartbeats=0,stables_delivered=0,skipped_stables=0,snapshots=0,last_snapshot_bytes=0,meta_peak=1142" );
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
      "trace=0d3829597eb1c30fe322f22423de2461 \
       metrics=fd6be6ccfa40a1b517f8acc147c68792 \
       decisions=c9ab78c1565d3e847eb30c790e918e16/1010 \
       schedule=845fc7f0756a6b28db3da7fcc48c4e82 \
       docs=e770a83a19b9fb5dbf9b9f0f6b9b3087 \
       ot=800 \
       meta=929 \
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
      "trace=b4ff4b1eba35f0a0958bf84282540ae6 \
       metrics=2f4e01eb9c1b95bcb5e9b42d181a0a3e \
       decisions=0bb7b403d9a1d7341eccbcd61b4d86d9/1637 \
       schedule=8d6781f317d2bca1bc77acb9f23d615a \
       docs=7d7e036f564fbc51187de6addf81ca6a \
       ot=565 \
       meta=697 \
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
