(* See obs.mli. *)

module Metrics = Metrics
module Event = Event
module Sink = Sink
module Recorder = Recorder
module Spans = Spans

type t = {
  metrics : Metrics.t;
  sink : Sink.t;
}

let make ?(sink = Sink.null) () = { metrics = Metrics.create (); sink }

let tracing t = Sink.enabled t.sink

let emit t e = Sink.emit t.sink e

let count_kind events kind =
  List.fold_left
    (fun acc e -> if String.equal (Event.kind e) kind then acc + 1 else acc)
    0 events

let sum_deliver_transforms events =
  List.fold_left
    (fun acc e ->
      match e with
      | Event.Deliver { transforms; _ } -> acc + transforms
      | _ -> acc)
    0 events

let report ppf t =
  Format.fprintf ppf "@[<v>--- observability report ---@,%a" Metrics.pp
    t.metrics;
  if tracing t then
    Format.fprintf ppf "trace events emitted: %d@," (Sink.count t.sink);
  Format.fprintf ppf "@]"

let metrics_json t = Json.to_string (Metrics.to_json t.metrics)
