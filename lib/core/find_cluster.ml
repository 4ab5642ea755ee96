module Space = Bwc_metric.Space

(* Relative slack used whenever a cluster diameter is compared against the
   query constraint [l] — shared by the one-shot scan and the index so the
   two paths can never disagree on a borderline verification. *)
let diam_tol = 1e-9

let members space ~p ~q =
  let d = space.Space.dist in
  let dpq = d p q in
  let out = ref [] in
  for x = space.Space.n - 1 downto 0 do
    if d x p <= dpq && d x q <= dpq then out := x :: !out
  done;
  !out

(* |S*_pq| without materialising the member list: the scan hot path only
   needs the count, and allocating an O(n) list per pair turned the
   O(n^3) scan into an allocation storm. *)
let count_members space ~p ~q =
  let d = space.Space.dist in
  let dpq = d p q in
  let count = ref 0 in
  for x = 0 to space.Space.n - 1 do
    if d x p <= dpq && d x q <= dpq then incr count
  done;
  !count

let rec take k = function
  | [] -> []
  | x :: rest -> if k = 0 then [] else x :: take (k - 1) rest

(* Pick k members, always keeping p and q (the diameter-realising pair is
   certainly inside any wanted cluster of this group). *)
let pick_k ~p ~q k members =
  let others = List.filter (fun x -> x <> p && x <> q) members in
  p :: q :: take (k - 2) others

let cluster_ok ~verify space ~l cluster =
  (not verify) || Space.diameter space cluster <= l *. (1.0 +. diam_tol)

(* Pairs are scanned in plain index order, as in the paper's pseudocode
   ("foreach node pair (p,q)").  The order matters on approximate tree
   metrics: scanning by ascending predicted distance would systematically
   return the most over-confidently embedded pairs (the ones noise made
   look closest) and bias the accuracy evaluation; index order returns an
   arbitrary satisfying pair instead. *)
let iter_pairs_until n f =
  try
    for p = 0 to n - 1 do
      for q = p + 1 to n - 1 do
        f p q
      done
    done
  with Exit -> ()

let find ?(verify = false) space ~k ~l =
  if k < 2 then invalid_arg "Find_cluster.find: k < 2";
  if space.Space.n < k then None
  else begin
    let result = ref None in
    iter_pairs_until space.Space.n (fun p q ->
        if space.Space.dist p q <= l then begin
          if count_members space ~p ~q >= k then begin
            let cluster = pick_k ~p ~q k (members space ~p ~q) in
            if cluster_ok ~verify space ~l cluster then begin
              result := Some cluster;
              raise Exit
            end
          end
        end);
    !result
  end

let max_size space ~l =
  if space.Space.n = 0 then 0
  else begin
    let best = ref 1 in
    iter_pairs_until space.Space.n (fun p q ->
        if space.Space.dist p q <= l then begin
          let size = count_members space ~p ~q in
          if size > !best then best := size
        end);
    !best
  end

module Index = struct
  (* One active pair (u < v, host ids of the universe space).  [size] is
     |S*_uv| restricted to the current members and is the only mutable
     field: membership deltas never change a pair's distance, so the
     sorted query structure stays valid across updates. *)
  type pair = {
    u : int;
    v : int;
    d : float;
    mutable size : int;
  }

  type t = {
    space : Space.t;            (* fixed universe; distances never change *)
    active : bool array;        (* membership flag per universe point *)
    mutable members : int array;    (* active host ids, ascending *)
    pairs : (int, pair) Hashtbl.t;  (* key [u * space.n + v], u < v *)
    mutable sorted : pair array;    (* ascending (d, u, v) *)
    mutable prefix_max : int array; (* running max of sizes along sorted *)
  }

  let key t u v = (u * t.space.Space.n) + v

  (* Primary order is the distance (what the binary search needs); the
     (u, v) tie-break makes merges and rebuilds byte-deterministic. *)
  let pair_cmp a b =
    let c = Float.compare a.d b.d in
    if c <> 0 then c
    else begin
      let c = Stdlib.compare a.u b.u in
      if c <> 0 then c else Stdlib.compare a.v b.v
    end

  (* |S*_uv ∩ members| by counting loop (cf. [count_members]). *)
  let count_active t ~u ~v d =
    let dist = t.space.Space.dist in
    let count = ref 0 in
    Array.iter (fun x -> if dist x u <= d && dist x v <= d then incr count) t.members;
    !count

  let recompute_prefix_max t =
    let m = Array.length t.sorted in
    let prefix = Array.make m 0 in
    let run = ref 0 in
    for i = 0 to m - 1 do
      run := Stdlib.max !run t.sorted.(i).size;
      prefix.(i) <- !run
    done;
    t.prefix_max <- prefix

  let build_subset space hosts =
    let n = space.Space.n in
    let members = Array.of_list (List.sort_uniq compare hosts) in
    Array.iter
      (fun h ->
        if h < 0 || h >= n then invalid_arg "Find_cluster.Index: host out of range")
      members;
    let active = Array.make n false in
    Array.iter (fun h -> active.(h) <- true) members;
    let a = Array.length members in
    let count = a * (a - 1) / 2 in
    let t =
      {
        space;
        active;
        members;
        pairs = Hashtbl.create (Stdlib.max 16 count);
        sorted = [||];
        prefix_max = [||];
      }
    in
    let all = Array.make (Stdlib.max 1 count) { u = 0; v = 0; d = 0.0; size = 0 } in
    let pos = ref 0 in
    for i = 0 to a - 1 do
      for j = i + 1 to a - 1 do
        let u = members.(i) and v = members.(j) in
        let d = space.Space.dist u v in
        let pr = { u; v; d; size = count_active t ~u ~v d } in
        Hashtbl.replace t.pairs (key t u v) pr;
        all.(!pos) <- pr;
        incr pos
      done
    done;
    let all = if count = 0 then [||] else all in
    Array.sort pair_cmp all;
    t.sorted <- all;
    recompute_prefix_max t;
    t

  let build space = build_subset space (List.init space.Space.n Fun.id)

  let size t = Array.length t.members
  let is_member t h = h >= 0 && h < t.space.Space.n && t.active.(h)

  (* ----- incremental maintenance ----- *)

  (* Sorted insertion of [h] into the member array: O(n). *)
  let insert_member t h =
    let a = Array.length t.members in
    let out = Array.make (a + 1) h in
    let i = ref 0 in
    while !i < a && t.members.(!i) < h do
      out.(!i) <- t.members.(!i);
      incr i
    done;
    Array.blit t.members !i out (!i + 1) (a - !i);
    t.members <- out

  let delete_member t h =
    t.members <- Array.of_list (List.filter (fun x -> x <> h) (Array.to_list t.members))

  (* Merge of two pair arrays each sorted by [pair_cmp]: O(m + f). *)
  let merge_sorted a b =
    let la = Array.length a and lb = Array.length b in
    if la = 0 then b
    else if lb = 0 then a
    else begin
      let out = Array.make (la + lb) a.(0) in
      let i = ref 0 and j = ref 0 in
      for k = 0 to la + lb - 1 do
        if !j >= lb || (!i < la && pair_cmp a.(!i) b.(!j) <= 0) then begin
          out.(k) <- a.(!i);
          incr i
        end
        else begin
          out.(k) <- b.(!j);
          incr j
        end
      done;
      out
    end

  let add_host t h =
    if h < 0 || h >= t.space.Space.n then
      invalid_arg "Find_cluster.Index.add_host: host out of range";
    if t.active.(h) then invalid_arg "Find_cluster.Index.add_host: already a member";
    let dist = t.space.Space.dist in
    (* 1. every existing pair whose ball the newcomer falls into grows *)
    Array.iter
      (fun pr -> if dist h pr.u <= pr.d && dist h pr.v <= pr.d then pr.size <- pr.size + 1)
      t.sorted;
    (* 2. the newcomer's own pairs, sized against the grown membership *)
    t.active.(h) <- true;
    insert_member t h;
    let fresh =
      Array.map
        (fun p ->
          let u = Stdlib.min p h and v = Stdlib.max p h in
          let d = dist u v in
          let pr = { u; v; d; size = count_active t ~u ~v d } in
          Hashtbl.replace t.pairs (key t u v) pr;
          pr)
        (Array.of_list (List.filter (fun p -> p <> h) (Array.to_list t.members)))
    in
    (* 3. incremental merge keeps the binary-searchable order without a
       full re-sort: the old run is already sorted and only the O(n)
       fresh pairs need sorting *)
    Array.sort pair_cmp fresh;
    t.sorted <- merge_sorted t.sorted fresh;
    recompute_prefix_max t

  let remove_host t h =
    if not (is_member t h) then invalid_arg "Find_cluster.Index.remove_host: not a member";
    if Array.length t.members = 1 then Hashtbl.reset t.pairs
    else
      Array.iter
        (fun p -> if p <> h then Hashtbl.remove t.pairs (key t (Stdlib.min p h) (Stdlib.max p h)))
        t.members;
    t.active.(h) <- false;
    delete_member t h;
    let dist = t.space.Space.dist in
    let kept =
      Array.of_list
        (List.filter (fun pr -> pr.u <> h && pr.v <> h) (Array.to_list t.sorted))
    in
    (* the departed host leaves every ball it was counted in *)
    Array.iter
      (fun pr -> if dist h pr.u <= pr.d && dist h pr.v <= pr.d then pr.size <- pr.size - 1)
      kept;
    t.sorted <- kept;
    recompute_prefix_max t

  (* ----- queries ----- *)

  (* Rank of the last sorted pair with distance <= l, or -1. *)
  let last_within t l =
    let n = Array.length t.sorted in
    let rec search lo hi =
      if lo >= hi then lo - 1
      else begin
        let mid = (lo + hi) / 2 in
        if t.sorted.(mid).d <= l then search (mid + 1) hi else search lo mid
      end
    in
    search 0 n

  (* S*_uv restricted to the active members, ascending host id. *)
  let members_active t ~u ~v d =
    let dist = t.space.Space.dist in
    List.filter
      (fun x -> dist x u <= d && dist x v <= d)
      (Array.to_list t.members)

  let find ?(verify = false) t ~k ~l =
    if k < 2 then invalid_arg "Find_cluster.Index.find: k < 2";
    let a = Array.length t.members in
    let result = ref None in
    (try
       for i = 0 to a - 1 do
         for j = i + 1 to a - 1 do
           let u = t.members.(i) and v = t.members.(j) in
           match Hashtbl.find_opt t.pairs (key t u v) with
           | None -> ()
           | Some pr ->
               if pr.d <= l && pr.size >= k then begin
                 let cluster = pick_k ~p:u ~q:v k (members_active t ~u ~v pr.d) in
                 if cluster_ok ~verify t.space ~l cluster then begin
                   result := Some cluster;
                   raise Exit
                 end
               end
         done
       done
     with Exit -> ());
    !result

  let exists t ~k ~l =
    if k < 2 then invalid_arg "Find_cluster.Index.exists: k < 2";
    let limit = last_within t l in
    limit >= 0 && t.prefix_max.(limit) >= k

  let max_size t ~l =
    if Array.length t.members = 0 then 0
    else begin
      let limit = last_within t l in
      if limit < 0 then 1 else Stdlib.max 1 t.prefix_max.(limit)
    end

  let max_sizes t ~ls = Array.map (fun l -> max_size t ~l) ls

  (* ----- persistence -----

     The universe space is a function and cannot be serialized; the dump
     carries the membership and the per-pair counts, and [of_dump]
     recomputes pair distances against the caller-provided space.  Using
     the stored counts (instead of recounting) keeps restore at
     O(a^2 log a) instead of the O(a^3) of [build_subset]. *)

  type dump = {
    d_members : int list; (* ascending *)
    d_sizes : int array; (* per (i, j), i < j over d_members, row-major *)
  }

  let dump t =
    let a = Array.length t.members in
    let sizes = Array.make (Stdlib.max 1 (a * (a - 1) / 2)) 0 in
    let pos = ref 0 in
    for i = 0 to a - 1 do
      for j = i + 1 to a - 1 do
        (match Hashtbl.find_opt t.pairs (key t t.members.(i) t.members.(j)) with
        | Some pr -> sizes.(!pos) <- pr.size
        | None -> assert false);
        incr pos
      done
    done;
    { d_members = Array.to_list t.members; d_sizes = Array.sub sizes 0 !pos }

  let of_dump space d =
    let fail msg = invalid_arg ("Find_cluster.Index.of_dump: " ^ msg) in
    let n = space.Space.n in
    let members = Array.of_list d.d_members in
    let a = Array.length members in
    Array.iteri
      (fun i h ->
        if h < 0 || h >= n then fail "host out of range";
        if i > 0 && members.(i - 1) >= h then fail "members not strictly ascending")
      members;
    if Array.length d.d_sizes <> a * (a - 1) / 2 then fail "size table arity mismatch";
    Array.iter (fun s -> if s < 0 || s > a then fail "count out of range") d.d_sizes;
    let active = Array.make n false in
    Array.iter (fun h -> active.(h) <- true) members;
    let count = a * (a - 1) / 2 in
    let t =
      {
        space;
        active;
        members;
        pairs = Hashtbl.create (Stdlib.max 16 count);
        sorted = [||];
        prefix_max = [||];
      }
    in
    let all = Array.make (Stdlib.max 1 count) { u = 0; v = 0; d = 0.0; size = 0 } in
    let pos = ref 0 in
    for i = 0 to a - 1 do
      for j = i + 1 to a - 1 do
        let u = members.(i) and v = members.(j) in
        let pr = { u; v; d = space.Space.dist u v; size = d.d_sizes.(!pos) } in
        Hashtbl.replace t.pairs (key t u v) pr;
        all.(!pos) <- pr;
        incr pos
      done
    done;
    let all = if count = 0 then [||] else all in
    Array.sort pair_cmp all;
    t.sorted <- all;
    recompute_prefix_max t;
    t
end
