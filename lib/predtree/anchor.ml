type t = {
  parents : (int, int) Hashtbl.t; (* child -> parent *)
  kids : (int, int list) Hashtbl.t;
  mutable root : int option;
}

let create () = { parents = Hashtbl.create 64; kids = Hashtbl.create 64; root = None }

let set_root t h =
  (match t.root with
  | Some _ -> invalid_arg "Anchor.set_root: root already set"
  | None -> ());
  t.root <- Some h;
  Hashtbl.replace t.kids h []

let root t =
  match t.root with
  | Some r -> r
  | None -> invalid_arg "Anchor.root: empty tree"

let mem t h = Hashtbl.mem t.kids h

let add t ~parent h =
  if not (mem t parent) then invalid_arg "Anchor.add: unknown parent";
  if mem t h then invalid_arg "Anchor.add: host already present";
  Hashtbl.replace t.parents h parent;
  Hashtbl.replace t.kids h [];
  Hashtbl.replace t.kids parent (h :: Hashtbl.find t.kids parent)

let children t h = match Hashtbl.find_opt t.kids h with Some c -> c | None -> []

let parent t h = Hashtbl.find_opt t.parents h

let remove_leaf t h =
  if not (mem t h) then invalid_arg "Anchor.remove_leaf: unknown host";
  if children t h <> [] || t.root = Some h then Error `Not_leaf
  else begin
    (match parent t h with
    | Some p -> Hashtbl.replace t.kids p (List.filter (fun c -> c <> h) (Hashtbl.find t.kids p))
    | None -> ());
    Hashtbl.remove t.parents h;
    Hashtbl.remove t.kids h;
    Ok ()
  end

(* ----- self-healing repair primitives -----

   Crash repair re-wires the overlay locally instead of rebuilding it:
   a dead node's orphaned children are re-attached to their grandparent
   (or, for a dead root, to a promoted sibling).  The primitives below
   only move subtrees around — they never touch hosts outside the edited
   neighborhood, which is what makes incremental re-aggregation sound. *)

(* detach [h] from its current parent's child list (root: no-op) *)
let detach t h =
  match parent t h with
  | Some p ->
      Hashtbl.replace t.kids p (List.filter (fun c -> c <> h) (Hashtbl.find t.kids p));
      Hashtbl.remove t.parents h
  | None -> ()

(* re-attach [h] (and implicitly its whole subtree) under [p]; the caller
   guarantees [p] is not inside [h]'s subtree *)
let reattach t h p =
  detach t h;
  Hashtbl.replace t.parents h p;
  Hashtbl.replace t.kids p (h :: Hashtbl.find t.kids p)

let remove_node t h =
  if not (mem t h) then invalid_arg "Anchor.remove_node: unknown host";
  (* ascending child order keeps the regraft sequence (and everything
     derived from it: trace events, dirty marks) deterministic *)
  let cs = List.sort compare (children t h) in
  match parent t h with
  | Some p ->
      let moves = List.map (fun c -> (c, p)) cs in
      List.iter (fun (c, np) -> reattach t c np) moves;
      (* h is a leaf now *)
      detach t h;
      Hashtbl.remove t.kids h;
      Ok moves
  | None -> (
      match cs with
      | [] -> Error `Last_host
      | new_root :: rest ->
          (* promote the smallest orphan to root, regraft its siblings
             beneath it *)
          detach t new_root;
          let moves = List.map (fun c -> (c, new_root)) rest in
          List.iter (fun (c, np) -> reattach t c np) moves;
          Hashtbl.remove t.kids h;
          t.root <- Some new_root;
          Ok moves)

let neighbors t h =
  match parent t h with
  | Some p -> p :: children t h
  | None -> children t h

let depth t h =
  let rec up h acc = match parent t h with Some p -> up p (acc + 1) | None -> acc in
  up h 0

let hosts t = Bwc_stats.Tbl.sorted_keys t.kids

let max_depth t = List.fold_left (fun acc h -> Stdlib.max acc (depth t h)) 0 (hosts t)

let iter_edges t f =
  Bwc_stats.Tbl.iter_sorted (fun child p -> f p child) t.parents

(* ----- persistence -----

   Children lists are dumped in stored order (newest first): overlay
   neighbor order is derived from them and decides send order, query
   fallback order and trace order, so a round trip must preserve it
   exactly, not just as a set. *)

type dump = {
  d_root : int option;
  d_nodes : (int * int list) list; (* host -> children (stored order), ascending host *)
}

let dump t =
  {
    d_root = t.root;
    d_nodes = List.map (fun h -> (h, children t h)) (hosts t);
  }

let of_dump d =
  let fail msg = invalid_arg ("Anchor.of_dump: " ^ msg) in
  let t = create () in
  List.iter
    (fun (h, _) ->
      if Hashtbl.mem t.kids h then fail "duplicate host";
      Hashtbl.replace t.kids h [])
    d.d_nodes;
  (match d.d_root with
  | None -> if d.d_nodes <> [] then fail "hosts without a root"
  | Some r -> if not (Hashtbl.mem t.kids r) then fail "root is not a host");
  t.root <- d.d_root;
  List.iter
    (fun (h, cs) ->
      List.iter
        (fun c ->
          if not (Hashtbl.mem t.kids c) then fail "unknown child";
          if Hashtbl.mem t.parents c then fail "child has two parents";
          if c = h then fail "self-parenting";
          Hashtbl.replace t.parents c h)
        cs;
      Hashtbl.replace t.kids h cs)
    d.d_nodes;
  (* every non-root host needs a parent, and parent chains must reach the
     root (no detached cycles) *)
  List.iter
    (fun (h, _) ->
      if d.d_root <> Some h && not (Hashtbl.mem t.parents h) then
        fail "host detached from the root";
      let rec up steps x =
        if steps > Hashtbl.length t.kids then fail "parent cycle"
        else match Hashtbl.find_opt t.parents x with
          | Some p -> up (steps + 1) p
          | None -> if t.root <> Some x then fail "chain misses the root"
      in
      up 0 h)
    d.d_nodes;
  t

let to_dot ?(label = "anchor tree") t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph anchor_tree {\n";
  Buffer.add_string buf (Printf.sprintf "  label=%S;\n" label);
  Buffer.add_string buf "  node [shape=circle, fontsize=10];\n";
  (match t.root with
  | Some r -> Buffer.add_string buf (Printf.sprintf "  h%d [shape=doublecircle];\n" r)
  | None -> ());
  iter_edges t (fun parent child ->
      Buffer.add_string buf (Printf.sprintf "  h%d -> h%d;\n" parent child));
  Buffer.add_string buf "}\n";
  Buffer.contents buf
