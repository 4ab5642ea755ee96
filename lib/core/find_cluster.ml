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

(* Whether point [x] is one of S*_uv's others, neither u nor v. *)
let[@inline] other d ~u ~v ru rv duv x =
  x <> u && x <> v && in_ball (Float.Array.get d (ru + x)) (Float.Array.get d (rv + x)) duv = 1

let cluster_ok ~verify space ~l cluster =
  (not verify) || Space.diameter space cluster <= l *. (1.0 +. diam_tol)

(* Pairs are scanned in plain index order, as in the paper's pseudocode
   ("foreach node pair (p,q)").  The order matters on approximate tree
   metrics: scanning by ascending predicted distance would systematically
   return the most over-confidently embedded pairs (the ones noise made
   look closest) and bias the accuracy evaluation; index order returns an
   arbitrary satisfying pair instead.  The answer is p, q, then the
   ball's first k - 2 others by ascending index, which S*_pq holds when
   |S*_pq| >= k: the first loop finds where the last of them sits and
   the second conses them back to front, so only the answer is
   allocated. *)
let find space ~k ~l =
  if k < 2 then invalid_arg "Find_cluster.find: k < 2";
  let n = space.Space.n and d = space.Space.d in
  if n < k then None
  else begin
    let p = ref 0 and q = ref 1 and found = ref false in
    while (not !found) && !p < n - 1 do
      if Float.Array.get d ((!p * n) + !q) <= l && count_members space ~p:!p ~q:!q >= k then
        found := true
      else begin
        incr q;
        if !q = n then begin
          incr p;
          q := !p + 1
        end
      end
    done;
    if not !found then None
    else begin
      let p = !p and q = !q in
      let rp = p * n and rq = q * n in
      let dpq = Float.Array.get d (rp + q) in
      let stop = ref 0 and need = ref (k - 2) in
      while !need > 0 do
        if other d ~u:p ~v:q rp rq dpq !stop then decr need;
        incr stop
      done;
      let out = ref [] in
      for x = !stop - 1 downto 0 do
        if other d ~u:p ~v:q rp rq dpq x then out := x :: !out
      done;
      Some (p :: q :: !out)
    end
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
  (* Struct-of-arrays over the member pairs, in the query order (d, u, v):
     the distances, each pair's entry (its endpoints and its count
     |S*_uv ∩ members| packed into one int, see [pack]) and the running
     maximum of the counts along the order.  A count travels with its
     pair, so a membership delta reads and writes only these sequential
     arrays and the moving host's matrix row.

     A delta touches every pair once: pair distances never change, so
     counts are repaired in place and only the moving host's own pairs
     enter or leave the order.  The pair arrays are sized for the whole
     universe up front, so neither delta allocates anything proportional
     to the pair count. *)
  type t = {
    space : Space.t;     (* fixed universe; distances never change *)
    active : bool array; (* membership flag per universe point *)
    members : int array; (* ascending member ids in [0, a) *)
    mutable a : int;
    mutable m : int;     (* pairs in the order: a (a - 1) / 2 *)
    pd : Float.Array.t;  (* ascending (d, u, v) over [0, m) *)
    pe : int array;      (* entries along it (see [pack]) *)
    prefix : int array;  (* running max of the counts along it *)
  }

  (* A pair u < v with count c is the entry [u lsl 41 lor v lsl 21 lor c],
     and [e lsr cbits] is the pair's code [u lsl 20 lor v].  With u, v <
     n <= 2^20 and c <= a <= 2^20 < 2^21 the fields never overlap, so the
     entries of distinct pairs order as their codes, and so as their keys
     [u * n + v], do, whatever their counts: tie-breaks compare entries
     directly, and a delta adds or subtracts a count's bit in place. *)
  let vbits = 20
  let cbits = 21
  let vmask = (1 lsl vbits) - 1
  let cmask = (1 lsl cbits) - 1
  let pack u v c = (u lsl (vbits + cbits)) lor (v lsl cbits) lor c
  let[@inline] u_of e = e lsr (vbits + cbits)
  let[@inline] v_of e = (e lsr cbits) land vmask
  let[@inline] count_of e = e land cmask

  (* An index over [members] (ascending, in range) with an empty order
     and room for every pair of the universe. *)
  let create space members =
    let n = space.Space.n and a = Array.length members in
    if n > 1 lsl vbits then invalid_arg "Find_cluster.Index: universe too large to index";
    let cap = n * (n - 1) / 2 in
    let t =
      {
        space;
        active = Array.make n false;
        members = Array.make n 0;
        a;
        m = 0;
        pd = Float.Array.create cap;
        pe = Array.make cap 0;
        prefix = Array.make cap 0;
      }
    in
    Array.blit members 0 t.members 0 a;
    Array.iter (fun h -> t.active.(h) <- true) members;
    t

  (* The (d, u, v) order on pair keys [u * n + v]: distance first (what
     the binary search needs), then the key, which orders (u, v)
     lexicographically and makes merges and rebuilds byte-deterministic. *)
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

  (* The position of members i < j's pair in row-major order, and each
     member's rank among the members: how counts reach the dump's
     row-major table and come back from it. *)
  let row_major a i j = (i * ((2 * a) - i - 1) / 2) + (j - i - 1)

  let ranks t =
    let rank = Array.make t.space.Space.n 0 in
    for i = 0 to t.a - 1 do
      rank.(t.members.(i)) <- i
    done;
    rank

  let refresh_prefix t =
    let run = ref 0 in
    for k = 0 to t.m - 1 do
      run := Int.max !run (count_of t.pe.(k));
      t.prefix.(k) <- !run
    done

  (* Sorts the members' pairs into the order by their keys, then attaches
     each pair's count [sizes.(row_major a i j)]. *)
  let fill t sizes =
    let n = t.space.Space.n and d = t.space.Space.d and a = t.a in
    let keys = Array.make (Array.length sizes) 0 in
    let pos = ref 0 in
    for i = 0 to a - 1 do
      for j = i + 1 to a - 1 do
        keys.(!pos) <- (t.members.(i) * n) + t.members.(j);
        incr pos
      done
    done;
    Array.stable_sort (key_cmp d) keys;
    let rank = ranks t in
    Array.iteri
      (fun r key ->
        let u = key / n and v = key mod n in
        Float.Array.set t.pd r (Float.Array.get d key);
        t.pe.(r) <- pack u v sizes.(row_major a rank.(u) rank.(v)))
      keys;
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
    let t = create space members in
    let sizes = Array.make (t.a * (t.a - 1) / 2) 0 in
    let pos = ref 0 in
    for i = 0 to t.a - 1 do
      for j = i + 1 to t.a - 1 do
        sizes.(!pos) <- count_active t ~u:t.members.(i) ~v:t.members.(j);
        incr pos
      done
    done;
    fill t sizes

  let build space = build_subset space (List.init space.Space.n Fun.id)

  let size t = t.a
  let is_member t h = h >= 0 && h < t.space.Space.n && t.active.(h)

  (* ----- incremental maintenance ----- *)

  (* Rank of the first pair in [0, hi) of the order that sorts at or
     after the pair u < v: a fresh pair's slot, or a present pair's own
     rank. *)
  let slot t ~hi u v =
    let dk = Float.Array.get t.space.Space.d ((u * t.space.Space.n) + v)
    and ek = pack u v 0 in
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
    (* 1. the newcomer's own pairs, by key, sorted in place *)
    let fresh = Array.make t.a 0 in
    for i = 0 to t.a - 1 do
      let p = t.members.(i) in
      fresh.(i) <- (if p < h then (p * n) + h else (h * n) + p)
    done;
    Array.sort (key_cmp d) fresh;
    (* 2. they merge into the sorted run from the largest down, each
       sized against the members before the newcomer: the streaming pass
       below counts it into their balls as into every other.  Each one's
       slot is found by binary search, and the old pairs above it move
       up in one copy (a loop for the int array) *)
    let hi = ref t.m in
    for j = t.a - 1 downto 0 do
      let key = fresh.(j) in
      let u = key / n and v = key mod n in
      let pos = slot t ~hi:!hi u v in
      Float.Array.blit t.pd pos t.pd (pos + j + 1) (!hi - pos);
      for k = !hi - 1 downto pos do
        t.pe.(k + j + 1) <- t.pe.(k)
      done;
      Float.Array.set t.pd (pos + j) (Float.Array.get d key);
      t.pe.(pos + j) <- pack u v (count_active t ~u ~v);
      hi := pos
    done;
    t.m <- t.m + t.a;
    t.active.(h) <- true;
    let i = ref t.a in
    while !i > 0 && t.members.(!i - 1) > h do
      t.members.(!i) <- t.members.(!i - 1);
      decr i
    done;
    t.members.(!i) <- h;
    t.a <- t.a + 1;
    (* 3. one streaming pass against the newcomer's row: every pair whose
       ball it falls into adds one to its entry's count, and the prefix
       maxima follow *)
    let rh = h * n and pd = t.pd and pe = t.pe and prefix = t.prefix in
    let run = ref 0 in
    for k = 0 to t.m - 1 do
      let e = pe.(k) in
      let e =
        e
        + in_ball
            (Float.Array.get d (rh + u_of e))
            (Float.Array.get d (rh + v_of e))
            (Float.Array.get pd k)
      in
      pe.(k) <- e;
      run := Int.max !run (count_of e);
      prefix.(k) <- !run
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
       every ball it was counted in, its own pairs leave the order with
       their counts (the write cursor advances by their keep bit), and
       the prefix maxima follow *)
    let rh = h * n and pd = t.pd and pe = t.pe and prefix = t.prefix in
    let w = ref 0 and run = ref 0 in
    for k = 0 to t.m - 1 do
      let e = pe.(k) in
      let u = u_of e and v = v_of e and duv = Float.Array.get pd k in
      let e = e - in_ball (Float.Array.get d (rh + u)) (Float.Array.get d (rh + v)) duv in
      let keep = Bool.to_int (u <> h) land Bool.to_int (v <> h) in
      Float.Array.set pd !w duv;
      pe.(!w) <- e;
      run := Int.max !run (keep * count_of e);
      prefix.(!w) <- !run;
      w := !w + keep
    done;
    t.m <- !w

  (* ----- queries ----- *)

  (* Rank of the last sorted pair with distance <= l, or -1. *)
  let last_within t l =
    let lo = ref 0 and hi = ref t.m in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if Float.Array.get t.pd mid <= l then lo := mid + 1 else hi := mid
    done;
    !lo - 1

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

  (* [find]'s pick over S*_uv ∩ members, which holds at least k of them:
     u, v, then the ball's first k - 2 others by ascending id, by the
     same two scans over the members. *)
  let cluster t ~u ~v k =
    let n = t.space.Space.n and d = t.space.Space.d in
    let ru = u * n and rv = v * n in
    let duv = Float.Array.get d (ru + v) in
    let stop = ref 0 and need = ref (k - 2) in
    while !need > 0 do
      if other d ~u ~v ru rv duv t.members.(!stop) then decr need;
      incr stop
    done;
    let out = ref [] in
    for i = !stop - 1 downto 0 do
      let x = t.members.(i) in
      if other d ~u ~v ru rv duv x then out := x :: !out
    done;
    u :: v :: !out

  (* The least pair code above [after] among ranks [0, hi) whose count
     reaches [k], or [max_int].  The count test keeps its branch: the
     pass runs once the walk has looked up [1 + hi / 128] pairs without
     a hit, so hits are rare and the branch is predicted (a mask and
     [Int.min] per pair made the hardest probes 40% slower). *)
  let least_above t ~hi ~k ~after =
    let pe = t.pe and best = ref max_int in
    for r = 0 to hi - 1 do
      let e = pe.(r) in
      let c = e lsr cbits in
      if count_of e >= k && c > after && c < !best then best := c
    done;
    !best

  (* The rank of member [x] among the members. *)
  let rank_of t x =
    let lo = ref 0 and hi = ref t.a in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if t.members.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo

  (* Member pairs in index order, as the one-shot [find] scans them.  The
     walk visits them row by row from members i < j (j = a ends row i)
     and reads each candidate's count (a pair within l) at its rank in
     [0, hi), by [slot]'s binary search.  After [1 + hi / 128] lookups it
     hands over to the pass, which takes the least code above the last
     looked-up pair among the ranks whose count reaches k: the pair the
     walk would have come to next.  A pair whose cluster fails the check
     sends the walk on from the next pair with a fresh budget, so each
     failure costs lookups, not a pass.  A query that an early pair
     answers costs a few lookups, a hard one a pass over the pairs
     within l. *)
  let rec walk ~verify t ~hi ~k ~l i j =
    let n = t.space.Space.n and d = t.space.Space.d in
    let result = ref None and lookups = ref (1 + (hi / 128)) and after = ref (-1) in
    let i = ref i and j = ref j in
    if !j = t.a then begin
      incr i;
      j := !i + 1
    end;
    while Option.is_none !result && !lookups > 0 && !i < t.a - 1 do
      let u = t.members.(!i) and v = t.members.(!j) in
      if Float.Array.get d ((u * n) + v) <= l then begin
        decr lookups;
        after := (u lsl vbits) lor v;
        if count_of t.pe.(slot t ~hi u v) >= k then begin
          let cluster = cluster t ~u ~v k in
          if cluster_ok ~verify t.space ~l cluster then result := Some cluster
        end
      end;
      incr j;
      if !j = t.a then begin
        incr i;
        j := !i + 1
      end
    done;
    if Option.is_some !result || !i >= t.a - 1 then !result
    else pass ~verify t ~hi ~k ~l ~after:!after

  and pass ~verify t ~hi ~k ~l ~after =
    let c = least_above t ~hi ~k ~after in
    if c = max_int then None
    else begin
      let u = c lsr vbits and v = c land vmask in
      let cluster = cluster t ~u ~v k in
      if cluster_ok ~verify t.space ~l cluster then Some cluster
      else walk ~verify t ~hi ~k ~l (rank_of t u) (rank_of t v + 1)
    end

  let find ?(verify = false) t ~k ~l =
    if k < 2 then invalid_arg "Find_cluster.Index.find: k < 2";
    let hi = last_within t l + 1 in
    if hi = 0 || t.prefix.(hi - 1) < k then None else walk ~verify t ~hi ~k ~l 0 1

  (* ----- persistence -----

     The dump carries the membership and the per-pair counts, row-major;
     [of_dump] reads pair distances from the caller's universe space.
     Using the stored counts (instead of recounting) keeps restore at
     O(a^2 log a) instead of the O(a^3) of [build_subset]. *)

  type dump = {
    d_members : int list; (* ascending *)
    d_sizes : int array; (* per (i, j), i < j over d_members, row-major *)
  }

  let dump t =
    let a = t.a and rank = ranks t in
    let sizes = Array.make (a * (a - 1) / 2) 0 in
    for r = 0 to t.m - 1 do
      let e = t.pe.(r) in
      sizes.(row_major a rank.(u_of e) rank.(v_of e)) <- count_of e
    done;
    { d_members = Array.to_list (Array.sub t.members 0 a); d_sizes = sizes }

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
    (* a pair's two endpoints lie in its own ball: a count below 2 is
       corrupt, and would borrow from the endpoints' bits once leaves
       brought it below 0 *)
    Array.iter (fun s -> if s < 2 || s > a then fail "count out of range") d.d_sizes;
    fill (create space members) d.d_sizes
end
