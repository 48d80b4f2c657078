(** Minimal aligned-console-table printer used by the benchmark harness and
    the examples to report figure/table series. *)

type t

val create : string list -> t
(** [create headers] starts a table with the given column headers. *)

val add_row : t -> string list -> unit
(** Append a row; extra/missing cells are padded. *)

val print : ?oc:out_channel -> t -> unit
(** Render with aligned columns. *)

val to_csv : t -> string
(** CSV rendering (headers + rows). *)
