(** A zero-dependency metrics registry: counters, gauges, and
    histograms with percentile estimation and clock-based timers.

    The registry is the quantitative half of the observability layer
    ({!Obs}): engines and protocol layers increment named metrics as
    they run, and the CLI / bench harness read them back as a report
    or as JSON.  Everything lives in plain OCaml — no external
    dependencies — so the library can sit below every other layer of
    the repository.

    Metric names are free-form dotted strings ([engine.transforms],
    [channel.c2s.depth]).  Lookups create metrics on first use;
    repeated lookups return the same metric, so call sites can be
    written without registration ceremony.  All operations are O(1)
    amortized except percentiles, which sort a private copy. *)

(** {1 Clock}

    Timers need a monotonic wall clock, which the OCaml standard
    library does not provide.  The registry therefore exposes a
    settable clock: the bench harness installs bechamel's
    monotonic clock ([Harness.now_ns]); standalone users fall back to
    a monotonic event counter (durations are meaningless but ordering
    holds, and the registry stays dependency free). *)

(** Install the clock used by {!time} and {!Timer.start}.  The
    function must return nanoseconds from an arbitrary fixed origin. *)
val set_clock : (unit -> float) -> unit

(** Current clock reading, in nanoseconds. *)
val now_ns : unit -> float

(** {1 Registry} *)

type t

val create : unit -> t

(** {1 Counters} — monotonically increasing integers. *)

type counter

val counter : t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** Read a counter by name; [0] if it was never touched. *)
val counter_of : t -> string -> int

(** {1 Gauges} — last-write-wins floats. *)

type gauge

val gauge : t -> string -> gauge

val set_gauge : gauge -> float -> unit

val gauge_value : gauge -> float

(** {1 Histograms} — streaming value distributions. *)

type histogram

val histogram : t -> string -> histogram

val observe : histogram -> float -> unit

val hist_count : histogram -> int

val hist_sum : histogram -> float

val hist_min : histogram -> float
(** [nan] when empty. *)

val hist_max : histogram -> float
(** [nan] when empty. *)

val hist_mean : histogram -> float
(** [nan] when empty. *)

(** [percentile h p] for [p] in [0..100], by linear interpolation
    between closest ranks (the common "exclusive" definition reduces
    to min/max at the extremes).  [nan] when empty.
    @raise Invalid_argument when [p] is outside [0..100]. *)
val percentile : histogram -> float -> float

(** [interpolate sorted p] is the same percentile over an ascending,
    non-empty array (the caller chooses the empty-input result). *)
val interpolate : float array -> float -> float

(** Time a thunk with the installed clock and record the elapsed
    nanoseconds into the histogram.  The thunk's exceptions pass
    through untimed. *)
val time : histogram -> (unit -> 'a) -> 'a

(** {1 Reading the registry} *)

type metric =
  | Counter of int
  | Gauge of float
  | Histogram of histogram

(** All metrics, sorted by name. *)
val fold : t -> init:'a -> f:('a -> string -> metric -> 'a) -> 'a

(** One JSON object: counters as integers, gauges as 3-decimal
    numbers, histograms as [{"count", "sum", "mean", "p50", "p90",
    "p99", "max"}] summaries.  Keys sorted by name. *)
val to_json : t -> Json.t

(** Human-readable table of the same content. *)
val pp : Format.formatter -> t -> unit
