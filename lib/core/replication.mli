(** Analysis of {e general} mappings with task replication (paper §3.1).

    The paper considers, and rejects, the general scheme where different
    instances of one task run on different PEs (round-robin over a replica
    set): it improves raw compute balance but needs complex flow control,
    larger buffers, and — decisively — duplicates communication whenever a
    task with [peek > 0] is replicated, since every replica must receive
    all instances in its look-ahead window. This module makes that
    trade-off quantitative: it computes the steady-state resource loads of
    a replicated mapping under round-robin instance distribution, with the
    exact per-edge duplication factor evaluated over one
    [lcm(r_src, r_dst)] hyper-period.

    The analysis mirrors {!Steady_state}; it exists to let users (and the
    ablation benchmarks) verify the paper's §3.1 design decision on their
    own applications. Stateful tasks cannot be replicated. *)

type t
(** A replicated mapping: each task owns a non-empty list of distinct PEs
    and processes instance [i] on replica [i mod r]. *)

val make : Cell.Platform.t -> Streaming.Graph.t -> int list array -> t
(** @raise Invalid_argument on arity mismatch, empty or duplicated replica
    lists, out-of-range PEs, or replicated stateful tasks. *)

val of_mapping : Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> t
(** Degenerate replication (one replica per task): same loads as
    {!Steady_state.loads}. *)

val loads : Cell.Platform.t -> Streaming.Graph.t -> t -> Steady_state.loads
(** Per-PE resource usage per period: compute split evenly across replicas;
    every data instance shipped from its producing replica to each
    distinct consuming replica of its look-ahead window (local copies are
    free); buffers allocated in full on every replica (the conservative
    model the paper assumes when arguing buffers grow). *)

val throughput : Cell.Platform.t -> Streaming.Graph.t -> t -> float

val violations :
  Cell.Platform.t -> Streaming.Graph.t -> t -> Steady_state.violation list
(** Memory and DMA checks under the replicated model (DMA counts one slot
    per distinct remote producer-replica/consumer-replica pair). *)

val duplication_factor : Streaming.Graph.t -> t -> int -> float
(** Average number of {e remote} copies of one instance of the given edge
    per period — 0 when producer and consumer replicas always coincide,
    above 1 when peeking forces duplication. *)
