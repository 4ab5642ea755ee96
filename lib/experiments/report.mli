(** Plain-text rendering of experiment outputs: aligned tables and CSV
    series, printed by both the benchmark harness and the CLI.  An
    experiment declares each table once, as a column list; {!print} and
    {!save_csv} render the text table and the CSV file from it. *)

val table :
  ?out:Format.formatter -> title:string -> headers:string list ->
  string list list -> unit
(** Column-aligned table with a title rule; text-only tables call it
    directly. *)

val line : string -> unit
(** One line of text, e.g. a summary under a table. *)

val f : float -> string
(** Standard float cell ([%.4g]). *)

val f3 : float -> string
(** Fixed three decimals, for rates in [0, 1]. *)

val i : int -> string

val yes_no : bool -> string

type 'r column
(** One column over rows of type ['r]: its text header, its CSV header
    and its cell. *)

val col : ?csv:('r -> string) -> string -> string -> ('r -> string) -> 'r column
(** [col header csv_header cell] is shown as [header] in the text table
    and as [csv_header] in the CSV.  [cell] renders both, unless [csv]
    gives the CSV cell. *)

val csv_only : string -> ('r -> string) -> 'r column
(** A column written to the CSV only. *)

val print :
  ?out:Format.formatter -> title:string -> 'r column list -> 'r list -> unit
(** {!table} of the columns that have a text header. *)

val save_csv : 'r column list -> 'r list -> string -> unit
(** [save_csv columns rows path] writes every column as CSV (header row
    first).  Cells containing commas or quotes are quoted.  The file is
    written whole or not at all ({!Bwc_persist.Codec.write_file}): a
    failure raises [Sys_error] and leaves nothing at [path]. *)
