(** Crash-restart chaos harness.

    Interprets the whole-system crash schedule of a {!Bwc_sim.Fault}
    plan over a live {!Bwc_core.System}: on every scheduled crash the
    system is snapshotted, the bytes are optionally corrupted
    ({!Bwc_sim.Fault.corrupt_snapshot}), the live system is discarded,
    the scheduled downtime elapses, and the system comes back — warm
    when the snapshot verifies, cold through [cold ()] when it does
    not.  Ordinary ticks run one protocol round each.

    This is the robustness-claim driver: whatever the corruption mode,
    the run completes without an exception, every injected corruption
    shows up in [rejections] as a typed {!Codec.error}, and the
    returned system is live. *)

type outcome = {
  ticks : int;  (** harness ticks driven (protocol rounds + downtime) *)
  crashes : int;
  warm_restores : int;
  cold_restores : int;
  downtime : int;  (** ticks spent with the system down *)
  rejections : (int * Codec.error) list;
      (** scheduled corruptions that were caught, with the tick and the
          error class each surfaced as *)
}

(* bwclint: allow test-only-export -- test/test_persist.ml (chaos crash-restart schedule) is the only caller; deleting the harness with its tests is queued on ROADMAP *)
val run :
  ?metrics:Bwc_obs.Registry.t ->
  ?trace:Bwc_obs.Trace.t ->
  rng:Bwc_stats.Rng.t ->
  faults:Bwc_sim.Fault.t ->
  ticks:int ->
  cold:(unit -> Bwc_core.System.t) ->
  Bwc_core.System.t ->
  Bwc_core.System.t * outcome
(** [rng] feeds only the bit-flip corruption positions.  [cold] rebuilds
    a fresh system from scratch (full reconvergence); it is invoked once
    per rejected snapshot.  Raises [Invalid_argument] on negative
    [ticks]; never raises on account of snapshot bytes. *)
