(** Algorithm 1: centralized clustering in a tree metric space.

    For every node pair [(p, q)] the set
    [S*_pq = { x : d(x,p) <= d(p,q) && d(x,q) <= d(p,q) }]
    is the largest cluster whose diameter is realised by [(p, q)]
    (Theorem 3.1: in a tree metric, [diam S*_pq = d(p,q)]), so scanning
    pairs and checking [|S*_pq| >= k] with [d(p,q) <= l] decides the
    query in O(n^3).

    Pairs are scanned in plain index order, exactly as the paper's
    pseudocode iterates "foreach node pair (p,q)": any satisfying pair is
    a correct answer.  (Scanning by ascending predicted distance would
    systematically return the pairs an imperfect embedding placed
    over-confidently close and bias the accuracy evaluation.)

    On spaces that are only approximately tree metrics the guarantee
    [diam S*_pq = d(p,q)] can fail; {!Index.find}'s [~verify:true]
    re-checks the returned cluster's diameter (the paper's evaluation,
    and the one-shot {!find}, do {e not} verify — the resulting wrong
    pairs are exactly what WPR measures). *)

val diam_tol : float
(** Relative slack ([1e-9]) applied when a cluster diameter is verified
    against the constraint [l]; shared by every verification path. *)

val members : Bwc_metric.Space.t -> p:int -> q:int -> int list
(** [S*_pq], ascending node order ([p] and [q] are members). *)

val find : Bwc_metric.Space.t -> k:int -> l:float -> int list option
(** One-shot Algorithm 1.  Returns [k] members of the first satisfying
    [S*_pq] ([p] and [q] always included), without verifying its
    diameter. *)

val max_sizes : Bwc_metric.Space.t -> ls:float array -> int array
(** For each distance class [l] of [ls], the largest cluster size
    achievable with diameter [<= l] (the quantity aggregated into cluster
    routing tables by Algorithm 3): at least 1 when the space is
    non-empty, 0 when it is empty.  One pass over the pairs counts each
    [|S*_pq|] once and skips pairs farther apart than the largest
    class. *)

(** Precomputed all-pairs index for repeated queries: O(n^3) once, then
    O(log n) feasibility and max-size lookups — and {e incrementally
    maintainable} under membership churn.

    The index is built over a fixed universe space whose distances never
    change; what changes is which points are {e members}.  A membership
    event only touches pairs the moving host participates in, plus the
    membership counts [|S*_pq|] of pairs whose ball it falls inside, so
    {!add_host} and {!remove_host} repair the index in O(n^2) — against
    O(n^3) for a rebuild — while keeping the sorted-distance/prefix-max
    query structures valid (pair distances are immutable, so mutating
    counts in place and merging the O(n) new pairs preserves both the
    sort order and the prefix-max invariant).  An index reserves room for
    every pair of its universe up front, about [20 n^2] bytes with its
    per-pair counts, so neither delta reallocates.  A pair's two
    endpoints pack into one int, so a universe holds at most [2^20]
    points; {!build}, {!build_subset} and {!of_dump} raise
    [Invalid_argument] beyond that. *)
module Index : sig
  type t

  val build : Bwc_metric.Space.t -> t
  (** Index with every point of the space as a member. *)

  val build_subset : Bwc_metric.Space.t -> int list -> t
  (** Index over the given members only (deduplicated; order
      irrelevant).  Raises [Invalid_argument] for out-of-range hosts. *)

  val size : t -> int
  (** Current member count. *)

  val is_member : t -> int -> bool

  val add_host : t -> int -> unit
  (** O(n^2) incremental join: sizes every pair the newcomer forms with a
      current member and bumps [|S*_pq|] of every existing pair whose
      ball contains it; the new pairs are merged into the sorted query
      structure without re-sorting the old run.  Raises
      [Invalid_argument] if out of range or already a member. *)

  val remove_host : t -> int -> unit
  (** O(n^2) incremental leave: drops the host's own pairs and decrements
      [|S*_pq|] of every remaining pair whose ball contained it.  Raises
      [Invalid_argument] for non-members. *)

  val find : ?verify:bool -> t -> k:int -> l:float -> int list option
  (** Same result as {!find} on the space restricted to the current
      members (hosts are reported under their universe ids).  [verify]
      (default [false]) skips satisfying pairs whose cluster's real
      diameter exceeds [l]. *)

  val exists : t -> k:int -> l:float -> bool
  val max_size : t -> l:float -> int

  (** {2 Persistence} *)

  type dump = {
    d_members : int list;  (** ascending host ids *)
    d_sizes : int array;
        (** per-pair [|S*_uv|] counts, row-major over [(i, j)], [i < j],
            of [d_members] *)
  }

  val dump : t -> dump

  val of_dump : Bwc_metric.Space.t -> dump -> t
  (** Reconstructs the index over the given universe space (pair
      distances are read from it; the counts come from the dump, so
      restore is O(a^2 log a) instead of a O(a^3) rebuild).  Validates
      membership ordering/range and count bounds; raises
      [Invalid_argument] on any violation. *)
end
