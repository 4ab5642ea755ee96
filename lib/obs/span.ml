(* Wall-clock span timers.

   The single audited wall-clock reader in lib/ (see the
   no-wall-clock-in-lib rule): spans profile hot paths for bench
   harnesses and must never feed Registry metrics or Trace events —
   wall time would break the byte-identical same-seed contract. *)

type t = {
  name : string;
  mutable count : int;
  mutable total_s : float;
  mutable max_s : float;
}

let create name = { name; count = 0; total_s = 0.0; max_s = 0.0 }
let name t = t.name

let record t elapsed =
  t.count <- t.count + 1;
  t.total_s <- t.total_s +. elapsed;
  if elapsed > t.max_s then t.max_s <- elapsed

let time t f =
  let t0 = Unix.gettimeofday () in
  Fun.protect ~finally:(fun () -> record t (Unix.gettimeofday () -. t0)) f

let total_s t = t.total_s
let mean_s t = if t.count = 0 then 0.0 else t.total_s /. float_of_int t.count

let pp_duration ppf s =
  if s >= 1.0 then Format.fprintf ppf "%.3f s" s
  else if s >= 1e-3 then Format.fprintf ppf "%.3f ms" (s *. 1e3)
  else if s >= 1e-6 then Format.fprintf ppf "%.3f us" (s *. 1e6)
  else Format.fprintf ppf "%.0f ns" (s *. 1e9)

let pp ppf t =
  Format.fprintf ppf "%s: total %a over %d run%s (mean %a, max %a)" t.name pp_duration
    t.total_s t.count
    (if t.count = 1 then "" else "s")
    pp_duration (mean_s t) pp_duration t.max_s
