(** Deterministic pseudo-random number generator (splitmix64).

    Every randomized component of the reproduction (DAG generation, cost
    sampling, property tests that need their own stream) uses this generator
    so that experiments are exactly reproducible from a printed seed. *)

type t
(** Mutable PRNG state. *)

val create : int -> t
(** [create seed] returns a fresh generator; equal seeds give equal streams. *)

val copy : t -> t
(** Independent copy of the current state. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t n] is uniform in [\[0, n)]. Requires [n > 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] (inclusive). Requires
    [lo <= hi]. *)

val float : t -> float -> float
(** [float t x] is uniform in [\[0, x)]. *)

val float_in : t -> float -> float -> float
(** [float_in t lo hi] is uniform in [\[lo, hi)]. *)

val bool : t -> bool
(** Fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val split : t -> t
(** [split t] derives a statistically independent generator and advances
    [t]; used to give sub-components their own stream. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates shuffle. *)

val choose : t -> 'a array -> 'a
(** Uniformly random element of a non-empty array. *)
