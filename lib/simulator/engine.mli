(** Generic discrete-event simulation core: a time-ordered event queue with
    stable FIFO ordering among simultaneous events. *)

type 'a t

val create : unit -> 'a t

val now : 'a t -> float
(** Current simulation time (time of the last dispatched event). *)

val schedule : 'a t -> float -> 'a -> unit
(** [schedule t time event] enqueues [event]; [time] must not precede
    {!now}. @raise Invalid_argument on events in the past. *)

val next : 'a t -> (float * 'a) option
(** Pop the earliest event (FIFO among ties) and advance the clock. *)
