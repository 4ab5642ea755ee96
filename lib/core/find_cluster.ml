module Space = Bwc_metric.Space

(* Relative slack used whenever a cluster diameter is compared against the
   query constraint [l] — shared by the one-shot scan and the index so the
   two paths can never disagree on a borderline verification. *)
let diam_tol = 1e-9

(* Kernels read the dense matrix directly: [Float.Array.get] is a
   primitive and inlines, where a call to [Space.dist] from this module is
   a real call that boxes its result (no flambda, [-opaque] dev builds).
   Ball tests read rows [p] and [q], which equal the columns by symmetry
   and are contiguous. *)

(* The ball test as a bit: 1 when a point at distances [dp] and [dq] from
   a pair's endpoints lies in the pair's ball of radius [r].  Counting
   loops add it instead of branching on it: which points pass is hard to
   predict, so a branch there mispredicts often, while each [<=] compiles
   to a [cmplesd] mask and the sum has no jump.  Without the [float]
   annotation the comparisons would be polymorphic calls on boxed
   floats. *)
let[@inline] in_ball (dp : float) dq r = Bool.to_int (dp <= r) land Bool.to_int (dq <= r)

let members space ~p ~q =
  let n = space.Space.n and d = space.Space.d in
  let dpq = Float.Array.get d ((p * n) + q) in
  let rp = p * n and rq = q * n in
  let out = ref [] in
  for x = n - 1 downto 0 do
    if Float.Array.get d (rp + x) <= dpq && Float.Array.get d (rq + x) <= dpq then
      out := x :: !out
  done;
  !out

(* |S*_pq| without materialising the member list: the scan hot path only
   needs the count, and allocating an O(n) list per pair turned the
   O(n^3) scan into an allocation storm. *)
let count_members space ~p ~q =
  let n = space.Space.n and d = space.Space.d in
  let dpq = Float.Array.get d ((p * n) + q) in
  let rp = p * n and rq = q * n in
  let count = ref 0 in
  for x = 0 to n - 1 do
    count := !count + in_ball (Float.Array.get d (rp + x)) (Float.Array.get d (rq + x)) dpq
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

let find space ~k ~l =
  if k < 2 then invalid_arg "Find_cluster.find: k < 2";
  if space.Space.n < k then None
  else begin
    let result = ref None in
    iter_pairs_until space.Space.n (fun p q ->
        if Float.Array.get space.Space.d ((p * space.Space.n) + q) <= l then begin
          if count_members space ~p ~q >= k then begin
            result := Some (pick_k ~p ~q k (members space ~p ~q));
            raise Exit
          end
        end);
    !result
  end

(* The largest |S*_pq| over pairs with d(p,q) <= l, for every class l in
   one pass: a pair farther apart than the widest class fits none, and a
   kept pair's |S*_pq| is counted once for all the classes it fits. *)
let max_sizes space ~ls =
  let n = space.Space.n and d = space.Space.d in
  let best = Array.make (Array.length ls) (if n = 0 then 0 else 1) in
  let l_max = ref neg_infinity in
  for c = 0 to Array.length ls - 1 do
    if ls.(c) > !l_max then l_max := ls.(c)
  done;
  let l_max = !l_max in
  for p = 0 to n - 1 do
    let rp = p * n in
    for q = p + 1 to n - 1 do
      let dpq = Float.Array.get d (rp + q) in
      if dpq <= l_max then begin
        let rq = q * n in
        let size = ref 0 in
        for x = 0 to n - 1 do
          size := !size + in_ball (Float.Array.get d (rp + x)) (Float.Array.get d (rq + x)) dpq
        done;
        for c = 0 to Array.length ls - 1 do
          best.(c) <- Int.max best.(c) (Bool.to_int (dpq <= ls.(c)) * !size)
        done
      end
    done
  done;
  best

module Index = struct
  (* Struct-of-arrays over the universe's dense matrix.  A pair u < v of
     members is keyed by [u * n + v], its index in the space's matrix; its
     count |S*_uv ∩ members| lives at the same index of [size], so [find]
     and [dump] read counts by (u, v) with no hash table.  The query order
     is two parallel arrays sorted by (d, u, v) — equivalently by
     (d, key) — the distances and the endpoints packed into one int, with
     the running maximum of the counts along it.

     A membership delta touches every pair once, streaming those arrays
     against the moving host's matrix row; pair distances never change,
     so counts are repaired in place and only the moving host's own pairs
     enter or leave the order.  The pair arrays are sized for the whole
     universe up front, so neither delta allocates anything proportional
     to the pair count. *)
  type t = {
    space : Space.t;     (* fixed universe; distances never change *)
    active : bool array; (* membership flag per universe point *)
    members : int array; (* ascending member ids in [0, a) *)
    mutable a : int;
    size : int array;    (* |S*_uv ∩ members| at u * n + v, u < v members *)
    mutable m : int;     (* pairs in the order: a (a - 1) / 2 *)
    pd : Float.Array.t;  (* ascending (d, u, v) over [0, m) *)
    pe : int array;      (* endpoints along it, packed (see [pack]) *)
    prefix : int array;  (* running max of the counts along that order *)
  }

  (* A pair's endpoints u < v packed as [u lsl bits lor v].  With
     v < n <= 2^bits, packed values order pairs as their keys [u * n + v]
     do, so tie-breaks compare them directly. *)
  let bits = 20
  let low = (1 lsl bits) - 1
  let pack n key = ((key / n) lsl bits) lor (key mod n)

  let create space =
    let n = space.Space.n in
    if n > 1 lsl bits then invalid_arg "Find_cluster.Index: universe too large to index";
    let cap = n * (n - 1) / 2 in
    {
      space;
      active = Array.make n false;
      members = Array.make n 0;
      a = 0;
      size = Array.make (n * n) 0;
      m = 0;
      pd = Float.Array.make cap 0.0;
      pe = Array.make cap 0;
      prefix = Array.make cap 0;
    }

  (* The (d, u, v) order on pair keys: distance first (what the binary
     search needs), then the key, which orders (u, v) lexicographically
     and makes merges and rebuilds byte-deterministic. *)
  let key_cmp d a b =
    let c = Float.compare (Float.Array.get d a) (Float.Array.get d b) in
    if c <> 0 then c else Int.compare a b

  (* |S*_uv ∩ members| by counting loop (cf. [count_members]); the
     distance is read here, so no float crosses the call boxed. *)
  let count_active t ~u ~v =
    let n = t.space.Space.n and d = t.space.Space.d in
    let ru = u * n and rv = v * n in
    let duv = Float.Array.get d (ru + v) in
    let count = ref 0 in
    for i = 0 to t.a - 1 do
      let x = t.members.(i) in
      count := !count + in_ball (Float.Array.get d (ru + x)) (Float.Array.get d (rv + x)) duv
    done;
    !count

  let set_pair t pos key =
    Float.Array.set t.pd pos (Float.Array.get t.space.Space.d key);
    t.pe.(pos) <- pack t.space.Space.n key

  let refresh_prefix t =
    let n = t.space.Space.n in
    let run = ref 0 in
    for k = 0 to t.m - 1 do
      let e = t.pe.(k) in
      run := Int.max !run t.size.(((e lsr bits) * n) + (e land low));
      t.prefix.(k) <- !run
    done

  (* An index over [members] (ascending, in range) whose pair at
     row-major position [pos] over (i, j), i < j, of [members] has count
     [count t pos u v]. *)
  let load space members ~count =
    let t = create space in
    let n = space.Space.n and a = Array.length members in
    Array.blit members 0 t.members 0 a;
    Array.iter (fun h -> t.active.(h) <- true) members;
    t.a <- a;
    let keys = Array.make (a * (a - 1) / 2) 0 in
    let pos = ref 0 in
    for i = 0 to a - 1 do
      for j = i + 1 to a - 1 do
        let u = members.(i) and v = members.(j) in
        t.size.((u * n) + v) <- count t !pos u v;
        keys.(!pos) <- (u * n) + v;
        incr pos
      done
    done;
    Array.stable_sort (key_cmp space.Space.d) keys;
    Array.iteri (set_pair t) keys;
    t.m <- Array.length keys;
    refresh_prefix t;
    t

  let build_subset space hosts =
    let n = space.Space.n in
    let members = Array.of_list (List.sort_uniq compare hosts) in
    Array.iter
      (fun h ->
        if h < 0 || h >= n then invalid_arg "Find_cluster.Index: host out of range")
      members;
    load space members ~count:(fun t _ u v -> count_active t ~u ~v)

  let build space = build_subset space (List.init space.Space.n Fun.id)

  let size t = t.a
  let is_member t h = h >= 0 && h < t.space.Space.n && t.active.(h)

  (* ----- incremental maintenance ----- *)

  (* Rank of the first pair in [0, hi) of the order that sorts after the
     pair keyed [key], a fresh pair not yet in the order. *)
  let slot t ~hi key =
    let dk = Float.Array.get t.space.Space.d key and ek = pack t.space.Space.n key in
    let lo = ref 0 and hi = ref hi in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      let c = Float.compare (Float.Array.get t.pd mid) dk in
      if c < 0 || (c = 0 && t.pe.(mid) < ek) then lo := mid + 1 else hi := mid
    done;
    !lo

  let add_host t h =
    let n = t.space.Space.n and d = t.space.Space.d in
    if h < 0 || h >= n then invalid_arg "Find_cluster.Index.add_host: host out of range";
    if t.active.(h) then invalid_arg "Find_cluster.Index.add_host: already a member";
    (* 1. the newcomer's own pairs, sized against the members before it:
       the streaming pass below counts the newcomer into their balls as
       into every other *)
    let rh = h * n in
    let fresh = Array.make t.a 0 in
    for i = 0 to t.a - 1 do
      let p = t.members.(i) in
      let key = if p < h then (p * n) + h else rh + p in
      t.size.(key) <- count_active t ~u:p ~v:h;
      fresh.(i) <- key
    done;
    t.active.(h) <- true;
    let i = ref t.a in
    while !i > 0 && t.members.(!i - 1) > h do
      t.members.(!i) <- t.members.(!i - 1);
      decr i
    done;
    t.members.(!i) <- h;
    t.a <- t.a + 1;
    (* 2. only the fresh pairs are sorted (in place).  They merge into the
       sorted run from the largest down: each one's slot is found by
       binary search, and the old pairs above it move up in one copy
       (a loop for the int array: [Array.blit] would pay a write barrier
       per element) *)
    Array.sort (key_cmp d) fresh;
    let hi = ref t.m in
    for j = Array.length fresh - 1 downto 0 do
      let pos = slot t ~hi:!hi fresh.(j) in
      Float.Array.blit t.pd pos t.pd (pos + j + 1) (!hi - pos);
      for k = !hi - 1 downto pos do
        t.pe.(k + j + 1) <- t.pe.(k)
      done;
      set_pair t (pos + j) fresh.(j);
      hi := pos
    done;
    t.m <- t.m + Array.length fresh;
    (* 3. one streaming pass against the newcomer's row: every pair whose
       ball it falls into grows, and the prefix maxima follow *)
    let run = ref 0 in
    for k = 0 to t.m - 1 do
      let e = t.pe.(k) in
      let u = e lsr bits and v = e land low in
      let key = (u * n) + v and duv = Float.Array.get t.pd k in
      let s = t.size.(key) + in_ball (Float.Array.get d (rh + u)) (Float.Array.get d (rh + v)) duv in
      t.size.(key) <- s;
      run := Int.max !run s;
      t.prefix.(k) <- !run
    done

  let remove_host t h =
    if not (is_member t h) then invalid_arg "Find_cluster.Index.remove_host: not a member";
    let n = t.space.Space.n and d = t.space.Space.d in
    t.active.(h) <- false;
    let i = ref 0 in
    while t.members.(!i) <> h do
      incr i
    done;
    Array.blit t.members (!i + 1) t.members !i (t.a - !i - 1);
    t.a <- t.a - 1;
    (* one compacting pass against the departed host's row: it leaves
       every ball it was counted in, its own pairs leave the order (the
       write cursor advances by their keep bit; their counts go stale,
       unread until a join sizes them afresh), and the prefix maxima
       follow *)
    let rh = h * n in
    let w = ref 0 and run = ref 0 in
    for k = 0 to t.m - 1 do
      let e = t.pe.(k) in
      let u = e lsr bits and v = e land low in
      let key = (u * n) + v and duv = Float.Array.get t.pd k in
      let s = t.size.(key) - in_ball (Float.Array.get d (rh + u)) (Float.Array.get d (rh + v)) duv in
      t.size.(key) <- s;
      let keep = Bool.to_int (u <> h) land Bool.to_int (v <> h) in
      Float.Array.set t.pd !w duv;
      t.pe.(!w) <- e;
      run := Int.max !run (keep * s);
      t.prefix.(!w) <- !run;
      w := !w + keep
    done;
    t.m <- !w

  (* ----- queries ----- *)

  (* Rank of the last sorted pair with distance <= l, or -1. *)
  let last_within t l =
    let rec search lo hi =
      if lo >= hi then lo - 1
      else begin
        let mid = (lo + hi) / 2 in
        if Float.Array.get t.pd mid <= l then search (mid + 1) hi else search lo mid
      end
    in
    search 0 t.m

  let exists t ~k ~l =
    if k < 2 then invalid_arg "Find_cluster.Index.exists: k < 2";
    let limit = last_within t l in
    limit >= 0 && t.prefix.(limit) >= k

  let max_size t ~l =
    if t.a = 0 then 0
    else begin
      let limit = last_within t l in
      if limit < 0 then 1 else Int.max 1 t.prefix.(limit)
    end

  (* S*_uv restricted to the active members, ascending host id. *)
  let members_active t ~u ~v duv =
    let n = t.space.Space.n and d = t.space.Space.d in
    let out = ref [] in
    for i = t.a - 1 downto 0 do
      let x = t.members.(i) in
      if Float.Array.get d ((u * n) + x) <= duv && Float.Array.get d ((v * n) + x) <= duv then
        out := x :: !out
    done;
    !out

  (* Member pairs in index order, as the one-shot [find] scans them. *)
  let find ?(verify = false) t ~k ~l =
    if k < 2 then invalid_arg "Find_cluster.Index.find: k < 2";
    if not (exists t ~k ~l) then None
    else begin
      let n = t.space.Space.n and d = t.space.Space.d in
      let result = ref None in
      (try
         for i = 0 to t.a - 1 do
           for j = i + 1 to t.a - 1 do
             let u = t.members.(i) and v = t.members.(j) in
             let key = (u * n) + v in
             let duv = Float.Array.get d key in
             if duv <= l && t.size.(key) >= k then begin
               let cluster = pick_k ~p:u ~q:v k (members_active t ~u ~v duv) in
               if cluster_ok ~verify t.space ~l cluster then begin
                 result := Some cluster;
                 raise Exit
               end
             end
           done
         done
       with Exit -> ());
      !result
    end

  (* ----- persistence -----

     The dump carries the membership and the per-pair counts; [of_dump]
     reads pair distances from the caller's universe space.  Using the
     stored counts (instead of recounting) keeps restore at O(a^2 log a)
     instead of the O(a^3) of [build_subset]. *)

  type dump = {
    d_members : int list; (* ascending *)
    d_sizes : int array; (* per (i, j), i < j over d_members, row-major *)
  }

  let dump t =
    let n = t.space.Space.n in
    let sizes = Array.make (t.a * (t.a - 1) / 2) 0 in
    let pos = ref 0 in
    for i = 0 to t.a - 1 do
      for j = i + 1 to t.a - 1 do
        sizes.(!pos) <- t.size.((t.members.(i) * n) + t.members.(j));
        incr pos
      done
    done;
    { d_members = Array.to_list (Array.sub t.members 0 t.a); d_sizes = sizes }

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
    load space members ~count:(fun _ pos _ _ -> d.d_sizes.(pos))
end
