(** Seeded zipfian workload generator.

    Builds a ranked {e population} of distinct requests — the cartesian
    product of named graphs × SPE counts × solver strategies, popularity
    rank assigned by a seeded shuffle — and samples [requests] of them
    under a Zipf distribution with skew [s] (rank [k] drawn with
    probability proportional to [1/(k+1)^s]; [s = 0] is uniform, larger
    [s] concentrates traffic on a few hot problems, the shape real
    request streams have).

    Everything is deterministic under {!Support.Rng}: equal specs
    generate byte-equal streams, which is what lets the traffic suite
    assert bitwise-identical replies across shard counts and pool sizes,
    and lets CI replay the exact published benchmark load. *)

type spec = {
  seed : int;
  requests : int;  (** Stream length. *)
  skew : float;  (** Zipf exponent [s >= 0.]; [0.] is uniform. *)
  graphs : (string * Streaming.Graph.t) list;
      (** [(label, graph)] population axis. Labels become request
          labels, so they must be request-line tokens (no whitespace,
          ['#'] or ['=']) if the stream is to be rendered with
          {!lines}. *)
  spes : int list;  (** SPE counts (each 0–8, QS22 platforms). *)
  strategies : Request.strategy list;
}

val population : spec -> Request.t array
(** The ranked population (index = popularity rank, hottest first).
    Exposed for tests and for sizing cache budgets against the number
    of distinct problems.
    @raise Invalid_argument on an empty axis or out-of-range [spes]. *)

val generate : spec -> Request.t array
(** The request stream: [spec.requests] samples from {!population}
    under the zipf law, in arrival order.
    @raise Invalid_argument as {!population}, or on a negative request
    count or non-finite/negative skew. *)

val split : domains:int -> Request.t array -> Request.t array array
(** Round-robin partition into [domains] per-client streams (client [d]
    gets requests [d, d+domains, ...] in arrival order) — the shape the
    multi-domain hammer and the [traffic --clients] replayer use. *)

val line : Request.t -> string
(** Render one request in the request-file grammar ({!Request.parse_line}
    round-trips it onto the same fingerprint).
    @raise Invalid_argument when the label is not token-safe. *)

val lines : ?ids:bool -> Request.t array -> string list
(** The whole stream, one line per request; [ids] (default [false])
    prefixes ["id=rI "] for daemon-framed replay. *)
