(** Exact rational arithmetic over {!Bigint}.

    Values are kept normalized: positive denominator, numerator and
    denominator coprime, zero represented as [0/1]. Because IEEE floats
    are dyadic rationals, {!of_float} is {e exact}: it converts the float
    bit pattern, not a decimal approximation — which is what makes exact
    certification of floating-point solver output possible
    ({!Lp.Certify}). *)

type t

val zero : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den]; @raise Division_by_zero if [den] is zero. *)

val of_ints : int -> int -> t
(** [of_ints num den]. *)

val of_float : float -> t
(** Exact value of a finite float. @raise Invalid_argument on NaN or
    infinities. *)

val to_float : t -> float
(** Nearest float (may round). *)

val num : t -> Bigint.t
val den : t -> Bigint.t

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
(** @raise Division_by_zero. *)

val abs : t -> t

val compare : t -> t -> int
val equal : t -> t -> bool

val to_string : t -> string
(** ["num/den"], or just ["num"] for integers. *)
