(** Crash-consistent whole-system snapshots.

    A snapshot captures everything durable a running system holds:
    the dataset matrix, bandwidth classes, the full prediction-tree
    geometry of every tree in the ensemble (vertices, edge weights,
    anchor overlay, distance labels), the aggregation protocol's state
    as one record per overlay link (the delivered update, the pending
    out-entry, the seq/ACK and epoch state), both RNG streams, and the
    centralized index counts (when materialised).  A {!decode} therefore
    yields a system that answers queries immediately and resumes
    aggregation mid-epoch — restart without reconvergence.

    Deliberately {e not} captured: in-flight engine messages (a crash
    loses the network; the protocol's seq/ACK + retransmission layer is
    the recovery mechanism for exactly that loss, so restored unacked
    entries simply resend) and metrics counters (observability restarts
    from zero).  Nor can an image hold a failure detector or a crashed
    member: every system a daemon or the CLI writes is a detector-less
    {!Bwc_core.Dynamic} system that crashes no host, and {!encode}
    refuses any other.

    Algorithm 2 hands the same node infos (a host and its distance
    labels) to every neighbour; an image writes each distinct info once,
    in the protocol section's slot table, and every aggrNode table and
    out-entry refers to it by slot.

    Encoding is deterministic: snapshot → restore → re-snapshot is
    byte-identical, which CI checks with [cmp].  All validation errors
    inside a structurally intact container surface as
    {!Codec.Corrupt} — decoding never raises, whatever the bytes.

    With [?metrics], entry points maintain [persist.snapshots],
    [persist.restores], [persist.restore_rejected] and
    [persist.cold_starts]; with [?trace] they emit [Snapshot_write],
    [Restore] and [Restore_rejected] events. *)

type source = [ `Dynamic of Bwc_core.Dynamic.t ]
(** One constructor: the system facade has a single kind of image.  The
    retired static ["system"] kind was only written as format version 1,
    which decodes as {!Codec.Bad_version}[ 1]; that kind in a current
    container decodes as {!Codec.Corrupt}. *)

val encode :
  ?metrics:Bwc_obs.Registry.t -> ?trace:Bwc_obs.Trace.t -> source -> string
(** The complete snapshot file image (container + payload).  Raises
    [Invalid_argument] when the system's protocol runs a failure
    detector or holds a crashed member. *)

val decode :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  string ->
  (Bwc_core.Dynamic.t, Codec.error) result
(** Verifies the container (magic, version, length, CRC-32), then decodes
    and validates every layer, then re-assembles a live system.  Any
    corruption — truncation, bit flips, stale versions, semantic
    violations — comes back as [Error]; this function never raises. *)

val load :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  string ->
  (Bwc_core.Dynamic.t, Codec.error) result

val restore_or_cold :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  cold:(unit -> Bwc_core.Dynamic.t) ->
  string ->
  Bwc_core.Dynamic.t * [ `Warm | `Cold of Codec.error ]
(** Graceful degradation: a verified snapshot restores warm; any
    rejection falls back to [cold ()] (typically a full rebuild +
    reconvergence) and reports why.  Counts [persist.cold_starts] and
    emits [Restore {warm = false}] on the fallback path. *)

val gen_path : string -> int -> string
(** [gen_path path g] is the on-disk name of generation [g]: [path]
    itself for [g = 0] (the newest image), ["path.g"] otherwise. *)

val rotate :
  ?metrics:Bwc_obs.Registry.t ->
  ?keep:int ->
  path:string ->
  string ->
  (unit, Codec.error) result
(** [rotate ~keep ~path bytes] installs [bytes] as the newest snapshot
    image after shifting existing generations one slot down, retaining
    the last [keep] (default 3) images: [path], [path.1], ...,
    [path.(keep - 1)].  The oldest image falls off the end.

    Safety: [bytes] is container-verified (magic, version, length,
    CRC-32) {e before} anything on disk moves, and a verification
    failure is returned without touching the chain — rotation can never
    replace the only valid image with garbage.  The final write itself
    goes through {!Codec.write_file} (atomic temp-and-rename).  Counts
    [persist.rotations] / [persist.rotate_rejected].  Raises
    [Invalid_argument] if [keep < 1]. *)

val load_any :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  ?keep:int ->
  string ->
  (Bwc_core.Dynamic.t * int) option * (int * Codec.error) list
(** Walk the rotated generations newest-first and restore the first
    image that verifies; [Some (dyn, g)] names the generation that won,
    [None] means none did.  The list reports, with their index, the
    existing generations rejected on the way — every one of them when
    none restores; it is empty when no generation exists at all.
    Missing files are skipped silently.  A successful fallback past
    generation 0 counts [persist.generation_fallbacks]. *)
