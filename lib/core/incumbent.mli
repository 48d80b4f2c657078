(** Shared best-solution cell for concurrent searches.

    An incumbent is the best feasible mapping seen so far, compared by
    the {e strict total order} (period, then [fp], an order-sensitive
    FNV-1a hash of the assignment, then the raw assignment
    lexicographically). Because the order is
    total and candidate insertion is a retry-CAS fold over it, the
    final content depends only on the {e set} of candidates offered,
    never on timing or completion order — this is what lets parallel
    portfolio search and branch-and-bound return results bitwise equal
    to their sequential counterparts. *)

type entry = private { period : float; fp : int64; arr : int array }

type t

val create : unit -> t
(** Empty: {!period} reads as [infinity]. *)

val of_option : (float * int array) option -> t
(** Seeded with an initial solution (the array is copied). *)

val offer : t -> period:float -> int array -> bool
(** Install the candidate iff it beats the current content; [true]
    when it did. Lock-free; safe from any domain. A candidate the
    content beats is turned away without allocating. *)

val best : t -> entry option

val period : t -> float
(** Period of the current best, [infinity] when empty. *)
