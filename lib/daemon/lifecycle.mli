(** Daemon lifecycle: warm boot across rotated snapshot generations and
    rotation of new images (periodic, on request, and the final one
    after a drain).

    All file IO is delegated to [Bwc_persist] (atomic temp-and-rename
    writes, container-verified rotation, newest-first generation
    fallback); this module only orchestrates. *)

type boot = {
  system : Bwc_core.Dynamic.t;
  warm : bool;
  generation : int option;
      (** the rotated generation that restored (0 = newest), when warm *)
  rejected : (int * Bwc_persist.Codec.error) list;
      (** generations that existed but failed verification, newest first
          (on a warm boot, the ones tried before the winner) *)
}

val boot :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  ?keep:int ->
  path:string ->
  cold:(unit -> Bwc_core.Dynamic.t) ->
  unit ->
  boot
(** Restore the newest verifiable generation of [path] (walking
    [path], [path.1], ... — see {!Bwc_persist.Snapshot.load_any}); any
    rejection falls back to [cold ()], reporting every generation's
    error.  A warm boot answers queries at the instant of restart; a
    cold boot pays full construction + reconvergence. *)

val snapshot :
  ?metrics:Bwc_obs.Registry.t ->
  ?keep:int ->
  path:string ->
  Bwc_core.Dynamic.t ->
  (int, Bwc_persist.Codec.error) result
(** Encode and rotate one image in (crash-safe: verification before the
    chain moves, atomic final write).  Returns the image size in
    bytes. *)
