(** Plain-text (de)serialization of application graphs.

    The format is line based; blank lines and [#] comments are ignored:
    {v
    task <name> wppe=<float> wspe=<float> [peek=<int>] [stateful=<0|1>]
         [read=<float>] [write=<float>]
    edge <src-name> <dst-name> data=<float>
    v}
    Task lines must precede the edges that mention them. Task names are
    free-form non-empty strings: bytes that would break tokenization
    (whitespace, ['#'], ['='], ['%'], non-printables) are
    percent-encoded as [%XX] on output and decoded on input, so
    [of_string (to_string g)] reconstructs [g] exactly — the property
    test_streaming checks over generated graphs, and the foundation of
    the canonical fingerprints ({!Canonical}) the service layer keys
    its mapping cache on. *)

exception Parse_error of int * string
(** [(line number, message)]. *)

val to_string : Graph.t -> string
val of_string : string -> Graph.t

val split_words : string -> string list
(** The line tokenizer of this format, shared by the request and
    daemon protocol parsers: split on spaces and tabs, drop empty
    words. *)

val to_file : Graph.t -> string -> unit
val of_file : string -> Graph.t
