(* Deterministic metrics registry.

   Handles are resolved once and bumped on hot paths (a Counter.incr is
   one int store); snapshots and renderers traverse in sorted
   (name, labels) order so same-seed runs produce byte-identical
   reports.  Nothing here reads the clock or draws randomness. *)

type labels = (string * string) list

let normalize_labels labels = List.sort_uniq Stdlib.compare labels

(* 0 is its own bucket; bucket i >= 1 holds [2^(i-1), 2^i).  63 value
   buckets cover every non-negative OCaml int. *)
let n_buckets = 64

type hist = {
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array;
}

type metric =
  | M_counter of int ref
  | M_gauge of int ref
  | M_hist of hist

type t = { tbl : (string * labels, metric) Hashtbl.t }

let create () = { tbl = Hashtbl.create 32 }

module Counter = struct
  type t = int ref

  let incr ?(by = 1) c =
    if by < 0 then invalid_arg "Registry.Counter.incr: negative increment";
    c := !c + by

  let value c = !c
end

module Gauge = struct
  type t = int ref

  let set g v = g := v
  let add g d = g := !g + d
end

module Histogram = struct
  type t = hist

  let bucket_of v =
    (* v = 0 -> 0; otherwise 1 + floor(log2 v) = the bit width of v *)
    let rec width acc v = if v = 0 then acc else width (acc + 1) (v lsr 1) in
    width 0 v

  let observe h v =
    if v < 0 then invalid_arg "Registry.Histogram.observe: negative sample";
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum + v;
    if v > h.h_max then h.h_max <- v;
    let b = bucket_of v in
    h.h_buckets.(b) <- h.h_buckets.(b) + 1

  let bucket_bounds i =
    if i <= 0 then (0, 0) else (1 lsl (i - 1), (1 lsl i) - 1)
end

let counter t ?(labels = []) name =
  let key = (name, normalize_labels labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some (M_counter c) -> c
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Registry.counter: %s already registered with a different type" name)
  | None ->
      let c = ref 0 in
      Hashtbl.replace t.tbl key (M_counter c);
      c

let gauge t ?(labels = []) name =
  let key = (name, normalize_labels labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some (M_gauge g) -> g
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Registry.gauge: %s already registered with a different type" name)
  | None ->
      let g = ref 0 in
      Hashtbl.replace t.tbl key (M_gauge g);
      g

let histogram t ?(labels = []) name =
  let key = (name, normalize_labels labels) in
  match Hashtbl.find_opt t.tbl key with
  | Some (M_hist h) -> h
  | Some _ ->
      invalid_arg
        (Printf.sprintf "Registry.histogram: %s already registered with a different type"
           name)
  | None ->
      let h = { h_count = 0; h_sum = 0; h_max = 0; h_buckets = Array.make n_buckets 0 } in
      Hashtbl.replace t.tbl key (M_hist h);
      h

type sample =
  | Counter of int
  | Gauge of int
  | Histogram of {
      count : int;
      sum : int;
      max_value : int;
      buckets : (int * int) list;
    }

type snapshot = (string * labels * sample) list

let sample_of = function
  | M_counter c -> Counter !c
  | M_gauge g -> Gauge !g
  | M_hist h ->
      let buckets = ref [] in
      for i = n_buckets - 1 downto 0 do
        if h.h_buckets.(i) > 0 then buckets := (i, h.h_buckets.(i)) :: !buckets
      done;
      Histogram { count = h.h_count; sum = h.h_sum; max_value = h.h_max; buckets = !buckets }

let snapshot t =
  List.rev
    (Bwc_stats.Tbl.fold_sorted
       (fun (name, labels) m acc -> (name, labels, sample_of m) :: acc)
       t.tbl [])

let diff ~before ~after =
  let prior = Hashtbl.create (List.length before) in
  List.iter (fun (name, labels, s) -> Hashtbl.replace prior (name, labels) s) before;
  List.map
    (fun (name, labels, s) ->
      let s =
        match (s, Hashtbl.find_opt prior (name, labels)) with
        | Counter a, Some (Counter b) -> Counter (a - b)
        | Gauge a, _ -> Gauge a
        | Histogram a, Some (Histogram b) ->
            let old = Hashtbl.create 8 in
            List.iter (fun (i, c) -> Hashtbl.replace old i c) b.buckets;
            let buckets =
              List.filter_map
                (fun (i, c) ->
                  let c = c - Option.value ~default:0 (Hashtbl.find_opt old i) in
                  if c > 0 then Some (i, c) else None)
                a.buckets
            in
            Histogram
              {
                count = a.count - b.count;
                sum = a.sum - b.sum;
                max_value = a.max_value;
                buckets;
              }
        | s, _ -> s
      in
      (name, labels, s))
    after

let reset t =
  Bwc_stats.Tbl.iter_sorted
    (fun _ m ->
      match m with
      | M_counter c -> c := 0
      | M_gauge g -> g := 0
      | M_hist h ->
          h.h_count <- 0;
          h.h_sum <- 0;
          h.h_max <- 0;
          Array.fill h.h_buckets 0 n_buckets 0)
    t.tbl

let find snap ?(labels = []) name =
  let labels = normalize_labels labels in
  List.find_map
    (fun (n, l, s) -> if n = name && l = labels then Some s else None)
    snap

let scalar = function
  | Counter v | Gauge v -> v
  | Histogram h -> h.count

let get snap ?labels name =
  match find snap ?labels name with Some s -> scalar s | None -> 0

let sum_by_name snap name =
  List.fold_left
    (fun acc (n, _, s) -> if n = name then acc + scalar s else acc)
    0 snap

(* ----- quantile estimation -----

   The log2 buckets already carry the data; the estimate walks the
   cumulative counts to the bucket covering the requested rank and
   interpolates linearly inside its bounds.  Integer arithmetic only
   (rank = ceil(pct * count / 100)), so renderings stay byte-stable. *)

let hist_quantile ~count ~max_value ~buckets ~pct =
  if pct < 0 || pct > 100 then invalid_arg "Registry.quantile: pct not in [0,100]";
  if count = 0 then 0
  else begin
    let rank = Stdlib.max 1 (((pct * count) + 99) / 100) in
    let rec go cum = function
      | [] -> max_value
      | (i, c) :: rest ->
          if cum + c >= rank then begin
            let lo, hi = Histogram.bucket_bounds i in
            let p = rank - cum in
            let v = if c <= 1 then hi else lo + ((hi - lo) * (p - 1) / (c - 1)) in
            Stdlib.min v max_value
          end
          else go (cum + c) rest
    in
    go 0 buckets
  end

(* ----- text rendering ----- *)

let pp_labels ppf = function
  | [] -> ()
  | labels ->
      Format.fprintf ppf "{%s}"
        (String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) labels))

let pp_sample ppf = function
  | Counter v -> Format.fprintf ppf "%d" v
  | Gauge v -> Format.fprintf ppf "%d gauge" v
  | Histogram h ->
      let q pct =
        hist_quantile ~count:h.count ~max_value:h.max_value ~buckets:h.buckets ~pct
      in
      Format.fprintf ppf "histogram count=%d sum=%d max=%d p50=%d p90=%d p99=%d"
        h.count h.sum h.max_value (q 50) (q 90) (q 99);
      if h.buckets <> [] then begin
        let bucket (i, c) =
          let lo, hi = Histogram.bucket_bounds i in
          if lo = hi then Printf.sprintf "%d:%d" lo c
          else Printf.sprintf "%d-%d:%d" lo hi c
        in
        Format.fprintf ppf " buckets=[%s]"
          (String.concat " " (List.map bucket h.buckets))
      end

let pp_text ppf snap =
  List.iter
    (fun (name, labels, s) ->
      Format.fprintf ppf "%s%a %a@." name pp_labels labels pp_sample s)
    snap

let to_text snap = Format.asprintf "%a" pp_text snap

(* ----- JSON rendering ----- *)

let json_of_entry (name, labels, s) : Bwc_json.t =
  let open Bwc_json in
  let sample =
    match s with
    | Counter v -> [ ("type", Str "counter"); ("value", Int v) ]
    | Gauge v -> [ ("type", Str "gauge"); ("value", Int v) ]
    | Histogram h ->
        let q pct =
          Int (hist_quantile ~count:h.count ~max_value:h.max_value ~buckets:h.buckets ~pct)
        in
        [
          ("type", Str "histogram"); ("count", Int h.count); ("sum", Int h.sum);
          ("max", Int h.max_value); ("p50", q 50); ("p90", q 90); ("p99", q 99);
          ("buckets", Arr (List.map (fun (b, c) -> Arr [ Int b; Int c ]) h.buckets));
        ]
  in
  Obj
    (("name", Str name)
    :: ("labels", Obj (List.map (fun (k, v) -> (k, Str v)) labels))
    :: sample)

let to_json snap =
  let open Bwc_json in
  to_string (Obj [ ("metrics", Arr (List.map json_of_entry snap)) ])
