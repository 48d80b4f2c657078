(** Bounded priority admission queue.

    Holds the daemon's not-yet-dispatched requests, ordered by priority
    (higher first) with FIFO tie-breaking by arrival. The [bound]
    covers {e queued plus in-flight} work: once [load] reaches it,
    {!admit} refuses — the server replies [REJECT overload] immediately
    rather than queueing without bound, so a client always learns the
    fate of its request in bounded time. Single-owner: only the server
    loop touches a queue (dispatch and completion both run there). *)

type 'a t

val create : bound:int -> 'a t
(** @raise Invalid_argument on a non-positive bound. *)

val pending : 'a t -> int
(** Admitted but not yet dispatched. *)

val inflight : 'a t -> int
(** Dispatched ({!next}) but not yet finished ({!finish}). *)

val load : 'a t -> int
(** [pending + inflight] — the quantity compared against the bound. *)

val admit : 'a t -> prio:int -> 'a -> bool
(** Enqueue unless [load () >= bound]; [false] means reject. *)

val next : 'a t -> 'a option
(** Pop the highest-priority (FIFO within a level) pending item and
    count it in flight. *)

val finish : 'a t -> unit
(** Mark one in-flight item complete.
    @raise Invalid_argument if nothing is in flight. *)
