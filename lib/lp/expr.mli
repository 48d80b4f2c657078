(** Linear expressions over integer-indexed variables.

    An expression is a normalized sparse list of [(variable, coefficient)]
    terms: variables are strictly increasing and coefficients non-zero.
    Expressions are immutable; all operations return fresh values. *)

type t

val zero : t

val term : ?coeff:float -> int -> t
(** [term ~coeff v] is [coeff * x_v] (default coefficient 1). *)

val of_list : (int * float) list -> t
(** Normalize an arbitrary term list: sorted stably by variable, the
    coefficients of a repeated variable summed left to right, zero sums
    dropped.
    @raise Invalid_argument on a negative variable index. *)

val to_list : t -> (int * float) list
(** Terms with increasing variable index and non-zero coefficients. *)

val eval : (int -> float) -> t -> float
(** Evaluate under a variable assignment. *)

val max_var : t -> int
(** Largest variable index used, -1 for {!zero}. *)

val pp : (Format.formatter -> int -> unit) -> Format.formatter -> t -> unit
(** Pretty-print with a variable printer. *)
