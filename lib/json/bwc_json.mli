(** The one JSON codec of the repository.

    Every JSON artefact — round-clocked traces, registry snapshots,
    causal reports, the BENCH-style experiment reports and bwclint's
    JSON and SARIF reports — is built as a {!t} and rendered by one of
    two printers; traces are read back by {!of_string}, which inverts
    both.  No dependencies, so the linter can use it too.

    Numbers are either exact ints or floats carried with a fixed count
    of decimal places, so a rendering is a pure function of the value:
    [Num (0.5, 4)] prints [0.5000], never [0.5] or [5e-1]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float * int
      (** a float printed with exactly this many (>= 0) decimals, as by
          [%.*f]; non-finite floats print [null] *)
  | Str of string  (** arbitrary bytes; control characters are escaped *)
  | Arr of t list
  | Obj of (string * t) list  (** members in printing order *)

val to_string : t -> string
(** Compact: one line, no whitespace — [{"a":1,"b":[true,null]}]. *)

val to_rows : t -> string
(** The rows layout of the BENCH-style reports: each member of a
    top-level object on its own line, and each element of a list that
    is a top-level member on its own line; everything deeper stays
    inline, separated by [": "] and [", "].  Ends with a newline.
{v
{
  "seed": 1,
  "rows": [
    {"n": 64, "speedup": 13.06},
    {"n": 128, "speedup": 30.71}
  ]
}
v} *)

val of_string : string -> (t, string) result
(** Parses one JSON value surrounded by optional whitespace, in the
    grammar the printers write: numbers carry no exponent, and a
    [\u] escape names one code point below U+10000 (stored as UTF-8).
    A number with a fraction becomes [Num] with as many decimals as it
    has fraction digits, an integer literal becomes [Int] when it is an
    int's own rendering (else [Num] with 0 decimals), so
    [to_string (of_string (to_string v))] and the same through
    {!to_rows} reproduce the first rendering byte for byte.  [Error]
    carries the byte offset of the first problem. *)

val member : string -> t -> t option
(** The first member named so, when the value is an object. *)
