(** Snapshot container and token codec.

    A snapshot file is

    {v
BWCSNAP 3
len <payload bytes> crc <crc32, 8 hex digits>
<payload>
    v}

    {!decode} verifies magic, version, exact length and CRC-32 before
    returning the payload, so every way a file can rot on disk —
    truncation, bit flips, a stale or future format version — is
    classified into a typed {!error} here, and the structured decoders
    above this layer never crash on garbage.

    The payload is a stream of typed newline-terminated tokens written
    by {!W} and read back by {!R}.  Floats travel in hexadecimal
    ("%h") notation and round-trip bit-exactly, which is what makes
    snapshot → restore → re-snapshot byte-identical.  The format never
    uses [Marshal] (see the [no-marshal] lint rule): it is versioned,
    compiler-independent, and every read is validated. *)

type error =
  | Bad_magic  (** the file does not start with the snapshot magic *)
  | Bad_version of int  (** recognisably a snapshot, but not our version *)
  | Truncated  (** shorter than its header promises *)
  | Bad_checksum  (** payload CRC-32 disagrees with the header *)
  | Corrupt of string  (** payload structure or semantic validation failed *)

exception Error of error

val error_to_string : error -> string

val corrupt : ('a, unit, string, 'b) format4 -> 'a
(** [corrupt fmt ...] raises {!Error}[ (Corrupt msg)].  Reader primitives
    and payload decoders use this for every structural violation. *)

val encode : string -> string
(** Wraps a payload in the container (header lines + checksum). *)

val decode : string -> (string, error) result
(** Verifies the container and returns the payload.  Never raises on any
    input bytes. *)

val write_file : string -> string -> unit
(** Crash-consistent write: the bytes go to [path ^ ".tmp"] first and
    are renamed into place, so a crash mid-write leaves either the old
    file or the new one, never a torn snapshot. *)

val read_file : string -> string
(** Whole file, binary.  Raises [Sys_error] like [open_in]. *)

(** Token writer. *)
module W : sig
  type t

  val create : unit -> t
  val contents : t -> string
  val int : t -> int -> unit
  val i64 : t -> int64 -> unit

  val float : t -> float -> unit
  (** Hexadecimal notation: bit-exact round-trip, deterministic bytes. *)

  val bool : t -> bool -> unit
  val str : t -> string -> unit
  (** Length-prefixed; the string may contain any bytes. *)

  val tag : t -> string -> unit
  (** Section marker; {!R.tag} requires it verbatim, so reader/writer
      drift fails fast with a named section instead of a token soup. *)

  val list : t -> ('a -> unit) -> 'a list -> unit
  val array : t -> ('a -> unit) -> 'a array -> unit
  val option : t -> ('a -> unit) -> 'a option -> unit
end

(** Token reader.  Every primitive raises {!Error}[ (Corrupt _)] on
    mismatch; nothing here ever raises anything else. *)
module R : sig
  type t

  val create : string -> t
  val int : t -> int
  val i64 : t -> int64
  val float : t -> float
  val bool : t -> bool
  val str : t -> string
  val tag : t -> string -> unit

  val list : t -> (unit -> 'a) -> 'a list
  (** Reads a count then that many items, in stream order. *)

  val array : t -> (unit -> 'a) -> 'a array

  val option : t -> (unit -> 'a) -> 'a option

  val eof : t -> unit
  (** Requires the whole payload to have been consumed. *)
end
