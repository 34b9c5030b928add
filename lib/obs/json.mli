(** The JSON scalar encoding shared by the engine's JSONL sink and the
    Chrome trace writer.  Both emit flat JSON by hand: the repo takes no
    JSON dependency. *)

val escape : string -> string
(** The body of a JSON string literal for [s] (no surrounding quotes):
    quote, backslash and control characters escaped. *)

val float : float -> string
(** A JSON number: integral values below 10{^15} print exactly, others
    with 12 significant digits; NaN and infinities print as [null]. *)
