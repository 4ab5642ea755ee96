(** Dense symmetric matrices of pairwise values (distances or bandwidths).

    Storage is a flat upper-triangular array, so an [n]-node matrix costs
    [n*(n+1)/2] floats and [get m i j = get m j i] holds by construction.
    Diagonal entries are stored explicitly (distance matrices keep them at
    [0.]; bandwidth matrices conventionally hold [infinity], a node's
    bandwidth to itself). *)

type t

val create : int -> diag:float -> off:float -> t
(** [create n ~diag ~off] is the [n]x[n] matrix with [diag] on the diagonal
    and [off] elsewhere. *)

val of_fun : int -> diag:float -> (int -> int -> float) -> t
(** [of_fun n ~diag f] fills entry [(i, j)], [i < j], with [f i j]. *)

val size : t -> int
val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
(** [set m i j v] also sets [(j, i)].  Setting a diagonal entry is
    allowed. *)

val map_off_diagonal : t -> (int -> int -> float -> float) -> t
(** Fresh matrix with every off-diagonal entry transformed; the diagonal is
    copied unchanged. *)

val sub : t -> int array -> t
(** [sub m idx] is the principal submatrix on rows/columns [idx] (in that
    order).  Indices must be distinct and in range. *)

val off_diagonal_values : t -> float array
(** All entries above the diagonal, row-major: [n*(n-1)/2] values. *)

val iter_pairs : t -> (int -> int -> float -> unit) -> unit
(** Iterates over all [i < j] with the stored value. *)

val diameter_of : t -> int list -> float
(** Maximum pairwise entry over a set of indices; [0.] for sets smaller than
    two. *)

val max_symmetric_error : t -> t -> float
(** [max_symmetric_error a b] is the largest absolute difference over all
    entries; requires equal sizes. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
(** Prints small matrices in full; larger ones as a size summary. *)
