(** Zero-dependency metrics registry.

    Counters, gauges and fixed-bucket histograms, optionally grouped in
    labeled families, registered by name in a {!t}. Instrumented code
    creates handles once (registration is idempotent by name) and bumps
    them on the hot path; exporters walk the registry and render a
    point-in-time {!snapshot}, JSON, or Prometheus text exposition.

    All hooks across the scheduler are default-off: they test
    {!enabled} — a single bool read — before touching any handle, so
    the cost with metrics off is one predictable branch per site.

    {b Domain safety.} Every value is [Atomic]-backed: concurrent
    [inc]/[add]/[observe]/[set] from multiple domains never lose
    updates. Registration, snapshotting and reset serialize on a
    per-registry mutex, so handles may be created from any domain
    (hoist them off hot paths — each family call takes the lock). The
    only relaxation: one histogram observation updates bucket, sum and
    count as three separate atomic writes, so a concurrent snapshot
    can catch them out of sync by a single in-flight observation. *)

(** {1 Handles} *)

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  (** @raise Invalid_argument on a negative increment (counters are
      monotonic). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

module Histogram : sig
  type t

  val observe : t -> float -> unit
  (** Adds the observation to the first bucket whose upper bound is
      [>=] the value, or to the overflow bucket. *)

  val count : t -> int
  val sum : t -> float

  val buckets : t -> (float * int) array
  (** Per-bucket (non-cumulative) counts, one pair per upper bound plus
      a final [(infinity, overflow)] entry. *)

  val log_buckets : ?lo:float -> ?factor:float -> ?count:int -> unit -> float array
  (** Log-scale upper bounds [lo *. factor^i] for [i = 0 .. count-1].
      Defaults: [lo = 1e-6], [factor = 10^(1/3)] (three buckets per
      decade), [count = 36] — spanning 1 µs to beyond 1 ks (bound 27),
      the range of every duration this codebase measures.
      @raise Invalid_argument unless [lo > 0.], [factor > 1.], [count > 0]. *)

  val quantile : t -> float -> float
  (** [quantile t q] estimates the [q]-quantile ([0. <= q <= 1.]) from
      the live bucket counts — see {!histogram_quantile}. *)
end

(** {1 Registry} *)

type t

val create : unit -> t

val default : t
(** The process-wide registry every built-in instrumentation site uses. *)

val enabled : unit -> bool
(** Whether the built-in instrumentation sites are live. [false] at
    start-up: hot paths pay one branch and nothing else. *)

val set_enabled : bool -> unit

(** {1 Registration}

    Idempotent by name: re-registering returns the existing handle.
    @raise Invalid_argument when a name is reused with a different
    metric kind, label set or bucket layout. *)

val counter : ?registry:t -> ?help:string -> string -> Counter.t
val gauge : ?registry:t -> ?help:string -> string -> Gauge.t

val histogram :
  ?registry:t -> ?help:string -> ?buckets:float array -> string -> Histogram.t
(** [buckets] are strictly increasing upper bounds; default
    {!Histogram.log_buckets}[ ()]. *)

(** Labeled families: one metric per label-value vector. The returned
    function is the child factory; it caches children, so calling it on
    the hot path is a hashtable lookup — hoist it when that matters. *)

val counter_family :
  ?registry:t -> ?help:string -> string -> labels:string list ->
  string list -> Counter.t

val gauge_family :
  ?registry:t -> ?help:string -> string -> labels:string list ->
  string list -> Gauge.t

val histogram_family :
  ?registry:t -> ?help:string -> ?buckets:float array -> string ->
  labels:string list -> string list -> Histogram.t

(** {1 Snapshot and export} *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { sum : float; count : int; buckets : (float * int) array }

type family_snapshot = {
  name : string;
  help : string;
  kind : string;  (** ["counter"], ["gauge"] or ["histogram"] *)
  label_names : string list;
  samples : (string list * value) list;
      (** One entry per label-value vector, in first-use order;
          unlabeled metrics have a single [([], v)] sample. *)
}

val snapshot : t -> family_snapshot list
(** Families in registration order — deterministic output. *)

val reset : t -> unit
(** Zero every value; handles stay registered and live. *)

val to_json : t -> string
(** The whole registry as one JSON object:
    [{"families": [{"name": ..., "kind": ..., "samples": [...]}]}]. *)

val to_prometheus : t -> string
(** Prometheus text exposition format: one [# HELP]/[# TYPE] pair per
    family (never repeated per labeled child) followed by its samples,
    with cumulative [_bucket{le=...}] histogram series. HELP text
    escapes backslash and newline; label values additionally escape
    the double quote. *)

val to_file_format : string -> t -> string
(** The exporter a metrics file at [path] is written with — the one
    rule every [--metrics] style option follows: Prometheus text
    ({!to_prometheus}) when [path] ends in [.prom] (the suffix a
    Prometheus textfile collector reads), JSON ({!to_json}) for any
    other path. *)

val histogram_quantile : (float * int) array -> float -> float
(** [histogram_quantile buckets q] estimates the [q]-quantile from
    non-cumulative buckets as returned by {!Histogram.buckets} or
    carried in {!Histogram_v}: a cumulative walk finds the bucket
    holding rank [q * total], then linear interpolation between its
    edges locates the estimate. The first bucket's lower edge is taken
    as [0.] when its bound is positive and the bound itself otherwise;
    the overflow bucket reports its lower edge. Returns [nan] on an
    empty histogram. Monotone in [q], so p50 <= p95 <= p99 always
    holds.
    @raise Invalid_argument unless [0. <= q <= 1.]. *)
