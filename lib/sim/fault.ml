module Rng = Bwc_stats.Rng
module Registry = Bwc_obs.Registry

type partition = {
  starts : int;
  heals : int;
  severs : src:int -> dst:int -> bool;
}

type crash = {
  node : int;
  down_from : int;
  up_at : int;
}

type snapshot_corruption =
  | Truncate of int
  | Flip_bits of int
  | Stale_version

type system_crash = {
  crash_round : int;
  restore_after : int;
  corrupt : snapshot_corruption option;
}

type t = {
  rng : Rng.t;
  drop : float;
  duplicate : float;
  jitter : int;
  partitions : partition list;
  transitions : (int, (int * bool) list) Hashtbl.t; (* round -> (node, up) *)
  system_crashes : system_crash list; (* ascending crash_round *)
  c_lost : Registry.Counter.t;
  c_duplicated : Registry.Counter.t;
  c_delayed : Registry.Counter.t;
  c_partition_dropped : Registry.Counter.t;
}

let make ?metrics ~rng ~drop ~duplicate ~jitter ~partitions ~crashes
    ~system_crashes () =
  if drop < 0.0 || drop > 1.0 then invalid_arg "Fault.create: drop not in [0,1]";
  if duplicate < 0.0 || duplicate > 1.0 then
    invalid_arg "Fault.create: duplicate not in [0,1]";
  if jitter < 0 then invalid_arg "Fault.create: negative jitter";
  let transitions = Hashtbl.create (Stdlib.max 1 (2 * List.length crashes)) in
  let schedule round ev =
    let cur = Option.value ~default:[] (Hashtbl.find_opt transitions round) in
    Hashtbl.replace transitions round (ev :: cur)
  in
  List.iter
    (fun c ->
      if c.up_at <= c.down_from then invalid_arg "Fault.create: empty crash window";
      schedule c.down_from (c.node, false);
      if c.up_at < max_int then schedule c.up_at (c.node, true))
    crashes;
  List.iter
    (fun sc ->
      if sc.crash_round < 1 then invalid_arg "Fault.create: system crash before round 1";
      if sc.restore_after < 0 then invalid_arg "Fault.create: negative restore delay";
      (match sc.corrupt with
      | Some (Truncate keep) when keep < 0 ->
          invalid_arg "Fault.create: negative truncation"
      | Some (Flip_bits k) when k < 1 ->
          invalid_arg "Fault.create: Flip_bits needs at least one bit"
      | Some (Truncate _ | Flip_bits _ | Stale_version) | None -> ()))
    system_crashes;
  let system_crashes =
    List.sort (fun a b -> compare a.crash_round b.crash_round) system_crashes
  in
  (let rec dup = function
     | a :: (b :: _ as rest) ->
         if a.crash_round = b.crash_round then
           invalid_arg "Fault.create: two system crashes in the same round";
         dup rest
     | [ _ ] | [] -> ()
   in
   dup system_crashes);
  (* downs before ups within a round, insertion order otherwise.
     Order-independent: each round's bucket is rewritten in isolation. *)
  (* bwclint: allow no-unordered-hashtbl-iter -- each round bucket is rewritten in isolation; relative order within a bucket is preserved *)
  Hashtbl.filter_map_inplace
    (fun _ evs ->
      let evs = List.rev evs in
      Some (List.filter (fun (_, up) -> not up) evs @ List.filter snd evs))
    transitions;
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  {
    rng;
    drop;
    duplicate;
    jitter;
    partitions;
    transitions;
    system_crashes;
    c_lost = Registry.counter metrics "fault.lost";
    c_duplicated = Registry.counter metrics "fault.duplicated";
    c_delayed = Registry.counter metrics "fault.delayed";
    c_partition_dropped = Registry.counter metrics "fault.partition_dropped";
  }

let none =
  make ~rng:(Rng.create 0) ~drop:0.0 ~duplicate:0.0 ~jitter:0 ~partitions:[]
    ~crashes:[] ~system_crashes:[] ()

let create ?(drop = 0.0) ?(duplicate = 0.0) ?(jitter = 0) ?(partitions = [])
    ?(crashes = []) ?(system_crashes = []) ?metrics ~rng () =
  make ?metrics ~rng ~drop ~duplicate ~jitter ~partitions ~crashes ~system_crashes ()

let partitioned t ~round ~src ~dst =
  List.exists
    (fun p -> p.starts <= round && round < p.heals && p.severs ~src ~dst)
    t.partitions

let sample_loss t = t.drop > 0.0 && Rng.float t.rng 1.0 < t.drop

let sample_jitter t = if t.jitter = 0 then 0 else Rng.int t.rng (t.jitter + 1)

type verdict =
  | Blocked of [ `Partition | `Loss ]
  | Deliver of int list

let on_send t ~round ~src ~dst =
  if partitioned t ~round ~src ~dst then begin
    Registry.Counter.incr t.c_partition_dropped;
    Blocked `Partition
  end
  else if sample_loss t then begin
    Registry.Counter.incr t.c_lost;
    Blocked `Loss
  end
  else begin
    let jitter_of () =
      let j = sample_jitter t in
      if j > 0 then Registry.Counter.incr t.c_delayed;
      j
    in
    let first = jitter_of () in
    if t.duplicate > 0.0 && Rng.float t.rng 1.0 < t.duplicate then begin
      Registry.Counter.incr t.c_duplicated;
      Deliver [ first; jitter_of () ]
    end
    else Deliver [ first ]
  end

let crashes_at t round =
  Option.value ~default:[] (Hashtbl.find_opt t.transitions round)

let system_crash_at t round =
  List.find_opt (fun sc -> sc.crash_round = round) t.system_crashes

(* Byte-mangling a snapshot image.  This is deliberately a pure function
   of (rng, mode, bytes): the chaos harness and the experiments corrupt
   in-memory images or files alike with it, and tests can assert the
   exact rejection class each mode must produce. *)
let corrupt_snapshot ~rng mode bytes =
  let len = String.length bytes in
  match mode with
  | Truncate keep -> String.sub bytes 0 (Stdlib.min keep len)
  | Flip_bits k ->
      if len = 0 then bytes
      else begin
        let b = Bytes.of_string bytes in
        for _ = 1 to k do
          let bit = Rng.int rng (len * 8) in
          let byte = bit / 8 and off = bit mod 8 in
          Bytes.set b byte
            (Char.chr (Char.code (Bytes.get b byte) lxor (1 lsl off)))
        done;
        Bytes.to_string b
      end
  | Stale_version -> (
      (* rewrite the header line to a version no decoder knows; the
         constant mirrors bwc_persist's magic (asserted by its tests) *)
      match String.index_opt bytes '\n' with
      | None -> "BWCSNAP 999"
      | Some nl ->
          "BWCSNAP 999" ^ String.sub bytes nl (len - nl))
