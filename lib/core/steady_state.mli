(** Steady-state analysis of a mapped streaming application (paper §3.1,
    §4.2).

    Given a mapping, the periodic schedule is fully determined: during one
    period of length [T], the PE in charge of task [T_k] processes one
    instance while the data of neighbouring instances flows between PEs.
    The throughput is [1/T] where [T] is the maximal occupation time of any
    resource — PE compute time, or bytes through an interface divided by
    its bandwidth. Feasibility adds the SPE local-store capacity and the
    DMA-queue limits.

    The pipeline depth and buffer sizes (firstPeriod and [buff], §3.1)
    depend on the graph alone: they are sized once per graph, in
    {!Streaming.Graph.flat}. *)

(** {1 Resource loads} *)

type loads = {
  compute : float array;  (** Seconds of work per period, per PE. *)
  bytes_in : float array;  (** Incoming bytes per period (memory reads +
                               remote in-edges), per PE. *)
  bytes_out : float array;  (** Outgoing bytes (writes + remote out-edges). *)
  memory : float array;  (** Local-store bytes used for buffers, per PE
                             (meaningful for SPEs). *)
  dma_in : int array;  (** Concurrent incoming remote data per PE. *)
  dma_to_ppe : int array;  (** Concurrent SPE-to-PPE transfers per PE. *)
  link_out : float array;  (** Bytes leaving each Cell chip per period
                               (inter-Cell interface, multi-Cell only). *)
  link_in : float array;  (** Bytes entering each Cell chip per period. *)
}

val loads :
  ?share_colocated_buffers:bool ->
  ?tight_pipeline:bool ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Mapping.t ->
  loads
(** Resource usage of the induced periodic schedule.
    The buffers are the graph's own, [Streaming.Graph.flat]'s [buffer]
    (paper §3.1): each edge holds one copy on the producer's PE and one
    on the consumer's.
    [share_colocated_buffers] (default [false], as in the paper) counts a
    single buffer instead of separate in/out copies when both endpoints of
    an edge live on the same SPE — the §7 memory optimization.
    [tight_pipeline] (default [false]) sizes the buffers instead from
    {!Streaming.Graph.first_periods} under the mapping, skipping the
    communication period of colocated edges — the §4.2 future-work
    optimization. *)

val period : Cell.Platform.t -> loads -> float
(** Smallest feasible period [T]: the maximum resource occupation time
    over PE compute, PE interfaces and, on multi-Cell platforms, the
    inter-Cell links. *)

type resource =
  | Compute of int  (** PE index. *)
  | Interface_in of int
  | Interface_out of int
  | Link_out of int  (** Cell index. *)
  | Link_in of int

val bottleneck : Cell.Platform.t -> loads -> resource * float
(** The resource whose occupation time equals the period, and that time —
    i.e. {e why} the throughput is what it is. *)

val pp_resource : Cell.Platform.t -> Format.formatter -> resource -> unit

val throughput :
  ?share_colocated_buffers:bool ->
  ?tight_pipeline:bool ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Mapping.t ->
  float
(** [1 / period]; ignores feasibility (see {!violations}). *)

(** {1 Feasibility} *)

type violation =
  | Memory of { pe : int; used : float; budget : float }
      (** Constraint (1i): SPE buffers exceed [LS - code]. *)
  | Dma_in of { pe : int; used : int; limit : int }
      (** Constraint (1j): more than 16 concurrent incoming data. *)
  | Dma_to_ppe of { pe : int; used : int; limit : int }
      (** Constraint (1k): more than 8 concurrent SPE-to-PPE transfers. *)

val violations :
  ?share_colocated_buffers:bool ->
  ?tight_pipeline:bool ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Mapping.t ->
  violation list

val violations_of_loads : Cell.Platform.t -> loads -> violation list
(** The constraint checks of {!violations} applied to an already-computed
    resource state — the single code path shared by {!violations}, the
    replication analysis and the incremental {!Eval} engine. *)

val feasible :
  ?share_colocated_buffers:bool ->
  ?tight_pipeline:bool ->
  Cell.Platform.t ->
  Streaming.Graph.t ->
  Mapping.t ->
  bool

val achieves :
  Cell.Platform.t -> Streaming.Graph.t -> Mapping.t -> float -> bool
(** Polynomial-time throughput check of Theorem 1: does the mapping achieve
    throughput at least the given bound (and satisfy all feasibility
    constraints)? *)

val pp_violation : Cell.Platform.t -> Format.formatter -> violation -> unit
