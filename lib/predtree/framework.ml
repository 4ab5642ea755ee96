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
  mutable tree : Tree.t;
  mutable anchor : Anchor.t;
  labels : (int, Label.t) Hashtbl.t;
  (* reverse insertion order (newest member first): joins prepend in
     O(1) instead of copying the whole list with [@ [h]]; [members]
     flips it back to root-first order on demand *)
  mutable rev_order : int list;
  c_measurements : Registry.Counter.t;
}

let insert ~rng t host =
  let outcome =
    Builder.add_host ~d:(Space.dist t.space) ~rng ~base:t.mode.base
      ~strategy:t.mode.end_search ~tree:t.tree ~anchor:t.anchor ~labels:t.labels host
  in
  Registry.Counter.incr ~by:outcome.Builder.measurements t.c_measurements

let check_host t h =
  if h < 0 || h >= t.space.Space.n then invalid_arg "Framework: host id out of range"

let build ~rng ?(mode = default_mode) ?members ?metrics ?(metric_labels = []) space =
  let order =
    match members with
    | None -> Array.to_list (Rng.permutation rng space.Space.n)
    | Some ms ->
        let ms = Array.of_list (List.sort_uniq compare ms) in
        Rng.shuffle rng ms;
        Array.to_list ms
  in
  let metrics = match metrics with Some m -> m | None -> Registry.create () in
  let t =
    {
      space;
      mode;
      tree = Tree.create ();
      anchor = Anchor.create ();
      labels = Hashtbl.create space.Space.n;
      rev_order = List.rev order;
      c_measurements =
        Registry.counter metrics ~labels:metric_labels "predtree.measurements";
    }
  in
  List.iter
    (fun h ->
      check_host t h;
      insert ~rng t h)
    order;
  t

let size t = Hashtbl.length t.labels
let tree t = t.tree
let anchor t = t.anchor
let is_member t h = Hashtbl.mem t.labels h
let members t = List.rev t.rev_order

(* position [i] of [members t], walked off the reverse list without
   copying it; an [i] out of range walks off its end *)
let member_at t i =
  let rec walk k = function
    | [] -> invalid_arg "Framework.member_at: out of range"
    | h :: rest -> if k = 0 then h else walk (k - 1) rest
  in
  walk (size t - 1 - i) t.rev_order

let label t h =
  match Hashtbl.find_opt t.labels h with
  | Some l -> l
  | None -> invalid_arg "Framework.label: unknown host"

let predicted t i j = Label.dist (label t i) (label t j)

let measurements_total t = Registry.Counter.value t.c_measurements

let rebuild ~rng t =
  t.tree <- Tree.create ();
  Hashtbl.reset t.labels;
  t.anchor <- Anchor.create ();
  List.iter (insert ~rng t) (members t)

let add_host ~rng t h =
  check_host t h;
  if is_member t h then invalid_arg "Framework.add_host: already a member";
  (* membership is recorded only once the placement has succeeded *)
  insert ~rng t h;
  t.rev_order <- h :: t.rev_order

(* Splice the leaf out when nothing anchors beneath it; otherwise rebuild
   the whole framework from the remaining members (their labels would
   dangle). *)
let remove_host ~rng t h =
  check_host t h;
  if not (is_member t h) then invalid_arg "Framework.remove_host: not a member";
  if size t <= 1 then invalid_arg "Framework.remove_host: cannot empty the framework";
  t.rev_order <- List.filter (fun x -> x <> h) t.rev_order;
  if Anchor.root t.anchor = h then rebuild ~rng t
  else begin
    match Tree.remove_host t.tree ~host:h with
    | Ok () -> (
        match Anchor.remove_leaf t.anchor h with
        | Ok () -> Hashtbl.remove t.labels h
        | Error `Not_leaf ->
            (* the two structures disagree; cannot happen, but fail safe *)
            rebuild ~rng t)
    | Error `Has_dependents -> rebuild ~rng t
  end

(* Crash-time removal: a dead host cannot be asked to hand over its role
   in the embedding, so (unlike [remove_host]) eviction never rebuilds.
   Membership and the label are dropped, the anchor overlay is repaired
   locally (orphans regraft to the grandparent), and the prediction-tree
   geometry the host contributed is retained whenever other placements
   depend on it — survivors' labels stay valid, the dead host just can no
   longer be queried. *)
let evict_host t h =
  check_host t h;
  if not (is_member t h) then invalid_arg "Framework.evict_host: not a member";
  if size t <= 1 then invalid_arg "Framework.evict_host: cannot empty the framework";
  t.rev_order <- List.filter (fun x -> x <> h) t.rev_order;
  Hashtbl.remove t.labels h;
  (match Tree.remove_host t.tree ~host:h with
  | Ok () | Error `Has_dependents -> ());
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
    d_rev_order = t.rev_order;
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
  {
    space;
    mode = d.d_mode;
    tree;
    anchor;
    labels;
    rev_order = d.d_rev_order;
    c_measurements =
      Registry.counter metrics ~labels:metric_labels "predtree.measurements";
  }
