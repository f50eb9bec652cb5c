(* See metrics.mli.  Plain hashtables and growable float arrays: the
   registry must not cost anything noticeable when metrics are being
   written on a hot path, and must not pull in any dependency. *)

(* --- clock ------------------------------------------------------------ *)

(* Fallback clock: a monotonic event counter, one "nanosecond" per
   reading.  Durations are meaningless until a caller installs a real
   clock (the bench harness installs bechamel's monotonic one), but
   ordering is preserved and the registry stays dependency-free. *)
let clock =
  let ticks = ref 0.0 in
  ref (fun () ->
      ticks := !ticks +. 1.0;
      !ticks)

let set_clock f = clock := f

let now_ns () = !clock ()

(* --- metric storage --------------------------------------------------- *)

type counter = { mutable c : int }

type gauge = { mutable g : float }

type histogram = {
  mutable values : float array;
  mutable len : int;
  mutable sum : float;
  mutable mn : float;
  mutable mx : float;
}

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

type cell =
  | C of counter
  | G of gauge
  | H of histogram

type t = { cells : (string, cell) Hashtbl.t }

let create () = { cells = Hashtbl.create 32 }

let find_or_add t name make classify =
  match Hashtbl.find_opt t.cells name with
  | Some cell -> (
    match classify cell with
    | Some m -> m
    | None ->
      invalid_arg
        (Printf.sprintf "Metrics: %S already registered with another type"
           name))
  | None ->
    let m = make () in
    m

(* --- counters --------------------------------------------------------- *)

let counter t name =
  find_or_add t name
    (fun () ->
      let c = { c = 0 } in
      Hashtbl.add t.cells name (C c);
      c)
    (function C c -> Some c | G _ | H _ -> None)

let incr c = c.c <- c.c + 1

let add c n = c.c <- c.c + n

let counter_value c = c.c

let counter_of t name =
  match Hashtbl.find_opt t.cells name with
  | Some (C c) -> c.c
  | Some (G _ | H _) | None -> 0

(* --- gauges ----------------------------------------------------------- *)

let gauge t name =
  find_or_add t name
    (fun () ->
      let g = { g = 0.0 } in
      Hashtbl.add t.cells name (G g);
      g)
    (function G g -> Some g | C _ | H _ -> None)

let set_gauge g v = g.g <- v

let gauge_value g = g.g

(* --- histograms ------------------------------------------------------- *)

let histogram t name =
  find_or_add t name
    (fun () ->
      let h =
        { values = Array.make 64 0.0; len = 0; sum = 0.0; mn = nan; mx = nan }
      in
      Hashtbl.add t.cells name (H h);
      h)
    (function H h -> Some h | C _ | G _ -> None)

let observe h v =
  if h.len = Array.length h.values then begin
    let bigger = Array.make (2 * h.len) 0.0 in
    Array.blit h.values 0 bigger 0 h.len;
    h.values <- bigger
  end;
  h.values.(h.len) <- v;
  h.len <- h.len + 1;
  h.sum <- h.sum +. v;
  if Float.is_nan h.mn || v < h.mn then h.mn <- v;
  if Float.is_nan h.mx || v > h.mx then h.mx <- v

let hist_count h = h.len

let hist_sum h = h.sum

let hist_min h = h.mn

let hist_max h = h.mx

let hist_mean h = if h.len = 0 then nan else h.sum /. float_of_int h.len

(* Linear interpolation between closest ranks over [0, len-1]. *)
let interpolate sorted p =
  let rank = p /. 100.0 *. float_of_int (Array.length sorted - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else
    let w = rank -. float_of_int lo in
    ((1.0 -. w) *. sorted.(lo)) +. (w *. sorted.(hi))

let percentile h p =
  if p < 0.0 || p > 100.0 then
    invalid_arg (Printf.sprintf "Metrics.percentile: %g not in [0,100]" p);
  if h.len = 0 then nan
  else begin
    let sorted = Array.sub h.values 0 h.len in
    Array.sort Float.compare sorted;
    interpolate sorted p
  end

let time h f =
  let t0 = now_ns () in
  let result = f () in
  observe h (now_ns () -. t0);
  result

(* --- reading ---------------------------------------------------------- *)

let fold t ~init ~f =
  let entries =
    Hashtbl.fold
      (fun name cell acc ->
        let m =
          match cell with
          | C c -> Counter c.c
          | G g -> Gauge g.g
          | H h -> Histogram h
        in
        (name, m) :: acc)
      t.cells []
  in
  let entries =
    List.sort (fun (a, _) (b, _) -> String.compare a b) entries
  in
  List.fold_left (fun acc (name, m) -> f acc name m) init entries

let to_json t =
  let num v = Json.Fixed (3, v) in
  let value = function
    | Counter c -> Json.Int c
    | Gauge g -> num g
    | Histogram h ->
      Json.Obj
        [ "count", Int (hist_count h); "sum", num h.sum;
          "mean", num (hist_mean h); "p50", num (percentile h 50.0);
          "p90", num (percentile h 90.0); "p99", num (percentile h 99.0);
          "max", num h.mx ]
  in
  Json.Obj (List.rev (fold t ~init:[] ~f:(fun acc k m -> (k, value m) :: acc)))

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  fold t ~init:() ~f:(fun () name m ->
      match m with
      | Counter c -> Format.fprintf ppf "%-36s %12d@," name c
      | Gauge g -> Format.fprintf ppf "%-36s %12.2f@," name g
      | Histogram h ->
        Format.fprintf ppf
          "%-36s count=%d mean=%.1f p50=%.1f p90=%.1f p99=%.1f max=%.1f@,"
          name (hist_count h) (hist_mean h) (percentile h 50.0)
          (percentile h 90.0) (percentile h 99.0) (hist_max h));
  Format.fprintf ppf "@]"
