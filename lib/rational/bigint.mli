(** Arbitrary-precision signed integers, written from scratch (no zarith in
    the sealed environment). Sign-magnitude representation over base-2^30
    limbs; operations are schoolbook (quadratic multiplication and long
    division), which is ample for the certification workloads of
    {!Rat} / {!Lp.Certify}. All values are immutable and normalized (no
    leading zero limbs, no negative zero). *)

type t

val zero : t
val one : t

val of_int : int -> t
val to_int_opt : t -> int option
(** [None] when the value does not fit in a native [int]. *)

val of_string : string -> t
(** Decimal, with an optional leading ['-'].
    @raise Invalid_argument on malformed input. *)

val to_string : t -> string

val compare : t -> t -> int
val equal : t -> t -> bool
val sign : t -> int
val neg : t -> t
val abs : t -> t

val add : t -> t -> t
val mul : t -> t -> t

val divmod : t -> t -> t * t
(** Euclidean division: [divmod a b = (q, r)] with [a = q*b + r] and
    [0 <= r < |b|]. @raise Division_by_zero. *)

val gcd : t -> t -> t
(** Non-negative greatest common divisor; [gcd 0 0 = 0]. *)

val shift_left : t -> int -> t
(** Multiplication by [2^k], [k >= 0]. *)
