module Rng = Bwc_stats.Rng
module Space = Bwc_metric.Space
module Registry = Bwc_obs.Registry

type mode = {
  base : Builder.base_strategy;
  end_search : Builder.end_strategy;
}

let default_mode = { base = `Random; end_search = `Anchor_guided 16 }
let centralized_mode = { base = `Root; end_search = `Exact }

type t = {
  space : Space.t;
  mode : mode;
  tree : Tree.t;
  anchor : Anchor.t;
  labels : (int, Label.t) Hashtbl.t;
  (* the members in insertion order, root first, in [order.(0 .. count
     - 1)]: a join appends, an eviction shifts the newer members down,
     and [member_at] is an array read *)
  order : int array;
  mutable count : int;
  c_measurements : Registry.Counter.t;
}

let is_member t h = Hashtbl.mem t.labels h

(* A ghost's label is the prefix of every member label whose chain passes
   through it; eviction keeps at least one such member. *)
let tree_label t h =
  match Hashtbl.find_opt t.labels h with
  | Some l -> l
  | None ->
      let prefix m =
        let l = Hashtbl.find t.labels m in
        Option.map (fun i -> Array.sub l 0 (i + 1))
          (Array.find_index (fun (e : Label.entry) -> e.host = h) l)
      in
      Option.get (List.find_map prefix (Bwc_stats.Tbl.sorted_keys t.labels))

(* [h] takes its label [l] and hangs in the overlay under the nearest
   member up its chain, or else under the overlay root *)
let attach t h (l : Label.t) =
  let rec up i =
    if i < 0 then Anchor.root t.anchor
    else if is_member t l.(i).host then l.(i).host
    else up (i - 1)
  in
  Anchor.add t.anchor ~parent:(up (Array.length l - 2)) h;
  Hashtbl.replace t.labels h l

let insert ~rng t host =
  if Hashtbl.length t.labels = 0 then begin
    let (_ : Tree.vertex) = Tree.add_first_host t.tree ~host in
    Anchor.set_root t.anchor host;
    Hashtbl.replace t.labels host Label.root
  end
  else begin
    let p =
      Builder.place ~d:(Space.dist t.space) ~rng ~base:t.mode.base
        ~strategy:t.mode.end_search ~tree:t.tree ~anchor:t.anchor
        ~members:(Bwc_stats.Tbl.sorted_keys t.labels) host
    in
    Registry.Counter.incr ~by:p.Builder.measurements t.c_measurements;
    attach t host
      (Label.extend (tree_label t p.Builder.anchor_host) ~host ~offset:p.Builder.offset
         ~leaf:p.Builder.leaf)
  end

let check_host t h =
  if h < 0 || h >= t.space.Space.n then invalid_arg "Framework: host id out of range"

let build ~rng ?(mode = default_mode) ?members ?metrics ?(metric_labels = []) space =
  let order =
    match members with
    | None -> Rng.permutation rng space.Space.n
    | Some ms ->
        let ms = Array.of_list (List.sort_uniq compare ms) in
        Rng.shuffle rng ms;
        ms
  in
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let t =
    {
      space;
      mode;
      tree = Tree.create ();
      anchor = Anchor.create ();
      labels = Hashtbl.create space.Space.n;
      order = Array.make space.Space.n 0;
      count = 0;
      c_measurements =
        Registry.counter metrics ~labels:metric_labels "predtree.measurements";
    }
  in
  Array.iter
    (fun h ->
      check_host t h;
      insert ~rng t h;
      t.order.(t.count) <- h;
      t.count <- t.count + 1)
    order;
  t

let size t = t.count
let tree t = t.tree
let anchor t = t.anchor
let members t = List.init t.count (fun i -> t.order.(i))

let member_at t i =
  if i < 0 || i >= t.count then invalid_arg "Framework.member_at: out of range";
  t.order.(i)

let label t h =
  match Hashtbl.find_opt t.labels h with
  | Some l -> l
  | None -> invalid_arg "Framework.label: unknown host"

let predicted t i j = Label.dist (label t i) (label t j)

let measurements_total t = Registry.Counter.value t.c_measurements

(* A ghost rejoins as itself: its vertex and label are still in the tree,
   so it takes no measurement. *)
let add_host ~rng t h =
  check_host t h;
  if is_member t h then invalid_arg "Framework.add_host: already a member";
  (* membership is recorded only once the placement has succeeded *)
  if Tree.mem t.tree h then attach t h (tree_label t h) else insert ~rng t h;
  t.order.(t.count) <- h;
  t.count <- t.count + 1

(* Every removal is an eviction: the host leaves membership and the
   overlay (orphans regraft to the grandparent), and the tree splices it
   out unless a placement depends on it, in which case it stays as a
   ghost and every label stays valid.  A ghost whose last dependent goes
   is spliced too, up the chain. *)
let evict_host t h =
  check_host t h;
  if not (is_member t h) then invalid_arg "Framework.evict_host: not a member";
  if size t <= 1 then invalid_arg "Framework.evict_host: cannot empty the framework";
  let chain = label t h in
  let i = ref 0 in
  while t.order.(!i) <> h do
    incr i
  done;
  for j = !i to t.count - 2 do
    t.order.(j) <- t.order.(j + 1)
  done;
  t.count <- t.count - 1;
  Hashtbl.remove t.labels h;
  let rec splice i g =
    if Tree.remove_host t.tree ~host:g && i >= 0 && not (is_member t chain.(i).host) then
      splice (i - 1) chain.(i).host
  in
  splice (Array.length chain - 2) h;
  match Anchor.remove_node t.anchor h with
  | Ok regrafts -> regrafts
  | Error `Last_host ->
      (* unreachable: [size t > 1] means the anchor holds another host *)
      assert false

let anchor_neighbors t h = Anchor.neighbors t.anchor h

(* ----- persistence ----- *)

type dump = {
  d_mode : mode;
  d_tree : Tree.dump;
  d_anchor : Anchor.dump;
  d_labels : (int * Label.t) list; (* ascending host id *)
  d_rev_order : int list;
}

let dump t =
  {
    d_mode = t.mode;
    d_tree = Tree.dump t.tree;
    d_anchor = Anchor.dump t.anchor;
    d_labels =
      List.map (fun h -> (h, Hashtbl.find t.labels h)) (Bwc_stats.Tbl.sorted_keys t.labels);
    d_rev_order = List.init t.count (fun i -> t.order.(t.count - 1 - i));
  }

let of_dump ?metrics ?(metric_labels = []) space d =
  let fail msg = invalid_arg ("Framework.of_dump: " ^ msg) in
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let tree = Tree.of_dump d.d_tree in
  let anchor = Anchor.of_dump d.d_anchor in
  let labels = Hashtbl.create space.Space.n in
  List.iter
    (fun (h, l) ->
      if h < 0 || h >= space.Space.n then fail "label host out of range";
      if Hashtbl.mem labels h then fail "duplicate label";
      if not (Label.valid l) then fail "invalid label geometry";
      Hashtbl.replace labels h l)
    d.d_labels;
  (* membership must agree across all three views of the framework *)
  let members_sorted = List.sort_uniq compare d.d_rev_order in
  if List.length members_sorted <> List.length d.d_rev_order then
    fail "duplicate member";
  if members_sorted <> Bwc_stats.Tbl.sorted_keys labels then
    fail "labels disagree with membership";
  List.iter
    (fun h -> if not (Anchor.mem anchor h) then fail "member missing from overlay")
    members_sorted;
  (* the tree names the members and the ghosts on their label chains,
     whose labels are read off those chains *)
  let named = Hashtbl.create 64 in
  List.iter
    (fun (h, l) ->
      Hashtbl.replace named h ();
      Array.iter (fun (e : Label.entry) -> Hashtbl.replace named e.host ()) l)
    d.d_labels;
  if Bwc_stats.Tbl.sorted_keys named <> List.map fst d.d_tree.Tree.d_hosts then
    fail "tree hosts are not the members and their label chains";
  let count = List.length d.d_rev_order in
  let order = Array.make space.Space.n 0 in
  List.iteri (fun i h -> order.(count - 1 - i) <- h) d.d_rev_order;
  {
    space;
    mode = d.d_mode;
    tree;
    anchor;
    labels;
    order;
    count;
    c_measurements =
      Registry.counter metrics ~labels:metric_labels "predtree.measurements";
  }
