(* Daemon lifecycle: warm boot over rotated snapshot generations and
   rotation of new images.

   All file IO lives in Bwc_persist (Codec's atomic temp-and-rename
   write, Snapshot.rotate/load_any); this module only orchestrates, so
   lib/daemon stays free of blocking IO primitives (enforced by the
   no-blocking-io-in-daemon-core lint rule). *)

module Dynamic = Bwc_core.Dynamic
module Snapshot = Bwc_persist.Snapshot
module Codec = Bwc_persist.Codec
module Registry = Bwc_obs.Registry

type boot = {
  system : Dynamic.t;
  warm : bool;
  generation : int option;  (* which rotated image restored, when warm *)
  rejected : (int * Codec.error) list;  (* generations that failed verification *)
}

let bump metrics name =
  match metrics with
  | Some m -> Registry.Counter.incr (Registry.counter m name)
  | None -> ()

let boot ?metrics ?trace ?keep ~path ~cold () =
  match Snapshot.load_any ?metrics ?trace ?keep path with
  | Some (dyn, g), rejected -> { system = dyn; warm = true; generation = Some g; rejected }
  | None, rejected ->
      bump metrics "persist.cold_starts";
      { system = cold (); warm = false; generation = None; rejected }

let snapshot ?metrics ?keep ~path dyn =
  let bytes = Snapshot.encode ?metrics (`Dynamic dyn) in
  match Snapshot.rotate ?metrics ?keep ~path bytes with
  | Ok () -> Ok (String.length bytes)
  | Error e -> Error e
