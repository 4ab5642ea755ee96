(** Plain-text rendering of experiment outputs: aligned tables and simple
    series, printed by both the benchmark harness and the CLI. *)

val table :
  ?out:Format.formatter -> title:string -> headers:string list ->
  string list list -> unit
(** Column-aligned table with a title rule. *)

val f : float -> string
(** Standard float cell ([%.4g]). *)

val f3 : float -> string
(** Fixed three decimals, for rates in [0, 1]. *)

val i : int -> string

val cdf_series :
  ?out:Format.formatter -> title:string -> resolution:int ->
  (string * Bwc_stats.Cdf.t) list -> unit
(** Quantile table for one or more CDFs side by side: rows are cumulative
    fractions, columns the corresponding value per CDF. *)

val save_csv : path:string -> headers:string list -> string list list -> unit
(** Writes a plain CSV file (header row first).  Cells containing commas
    or quotes are quoted. *)
