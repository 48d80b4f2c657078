(** Communication-to-computation ratio (paper §6.2).

    The paper defines the CCR of a scenario as "the total number of
    transferred elements divided by the number of operations on these
    elements". Elements are bytes here, and the number of operations a task
    performs on its stream elements is proportional to its SPE computation
    time: [ops = w_spe * ops_per_second].

    The proportionality constant [ops_per_second] (9.0e6, the default
    [?ops_rate] below) is calibrated so that the paper's CCR range
    (0.775 computation-intensive … 4.6 communication-intensive) spans the same regimes as on the hardware: at CCR 0.775 a
    50-task graph carries edges of a few kB — SPE local stores can hold
    several tasks' buffers, computation dominates — while at the 6x larger
    CCR 4.6 task buffer footprints approach the 192 kB local-store budget
    and most tasks are forced onto the PPE. This matches §6.4.3: at high CCR "the best policy
    is to map all tasks to the PPE". *)

val compute : ?ops_rate:float -> Graph.t -> float
(** CCR of a graph: (edge bytes + memory traffic bytes) per instance divided
    by element-operations per instance. Returns [0.] for a graph with no
    computation. *)

val scale_to : ?ops_rate:float -> Graph.t -> target:float -> Graph.t
(** [scale_to g ~target] rescales every edge volume and every task's memory
    traffic by the unique factor making [compute g' = target].
    @raise Invalid_argument if [target < 0], or if the graph transfers no
    data (no finite scaling can change its CCR). *)

val paper_ccrs : float list
(** The six CCR values used for the paper's experiment variants, spanning
    0.775 to 4.6. *)
