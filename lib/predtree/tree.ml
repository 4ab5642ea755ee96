type vertex = int

type kind =
  | Host of int
  | Inner

type edge = {
  a : vertex;
  b : vertex;
  weight : float;
  owner : int;
  mutable live : bool;
}

type t = {
  mutable kinds : kind array;
  mutable vcount : int;
  mutable edges : edge array;
  mutable ecount : int;
  mutable adj : int list array; (* vertex -> live edge ids *)
  host_vertex : (int, vertex) Hashtbl.t;
}

let create () =
  {
    kinds = Array.make 16 Inner;
    vcount = 0;
    edges = Array.make 16 { a = 0; b = 0; weight = 0.0; owner = 0; live = false };
    ecount = 0;
    adj = Array.make 16 [];
    host_vertex = Hashtbl.create 64;
  }

let grow_vertices t =
  if t.vcount = Array.length t.kinds then begin
    let k = Array.make (2 * t.vcount) Inner in
    Array.blit t.kinds 0 k 0 t.vcount;
    t.kinds <- k;
    let a = Array.make (2 * t.vcount) [] in
    Array.blit t.adj 0 a 0 t.vcount;
    t.adj <- a
  end

let new_vertex t kind =
  grow_vertices t;
  let v = t.vcount in
  t.kinds.(v) <- kind;
  t.adj.(v) <- [];
  t.vcount <- t.vcount + 1;
  (match kind with Host h -> Hashtbl.replace t.host_vertex h v | Inner -> ());
  v

let new_edge t ~a ~b ~weight ~owner =
  if t.ecount = Array.length t.edges then begin
    let e =
      Array.make (2 * t.ecount) { a = 0; b = 0; weight = 0.0; owner = 0; live = false }
    in
    Array.blit t.edges 0 e 0 t.ecount;
    t.edges <- e
  end;
  let id = t.ecount in
  t.edges.(id) <- { a; b; weight; owner; live = true };
  t.ecount <- t.ecount + 1;
  t.adj.(a) <- id :: t.adj.(a);
  t.adj.(b) <- id :: t.adj.(b);
  id

let kill_edge t id =
  let e = t.edges.(id) in
  e.live <- false;
  t.adj.(e.a) <- List.filter (fun x -> x <> id) t.adj.(e.a);
  t.adj.(e.b) <- List.filter (fun x -> x <> id) t.adj.(e.b)

let other_end e v = if e.a = v then e.b else e.a

let vertex_of_host t h = Hashtbl.find t.host_vertex h

let hosts t = Bwc_stats.Tbl.sorted_keys t.host_vertex
let vertex_count t = t.vcount

let degree t v = List.length t.adj.(v)

(* Path from [u] to [v] as a list of edge ids, found by DFS (the graph is a
   tree, so the unique simple path). *)
let path_edges t u v =
  if u = v then []
  else begin
    let visited = Array.make t.vcount false in
    let rec dfs cur acc =
      if cur = v then Some (List.rev acc)
      else begin
        visited.(cur) <- true;
        let rec try_edges = function
          | [] -> None
          | id :: rest ->
              let e = t.edges.(id) in
              let nxt = other_end e cur in
              if visited.(nxt) then try_edges rest
              else begin
                match dfs nxt (id :: acc) with
                | Some p -> Some p
                | None -> try_edges rest
              end
        in
        try_edges t.adj.(cur)
      end
    in
    match dfs u [] with
    | Some p -> p
    | None -> invalid_arg "Tree.path_edges: disconnected vertices"
  end

let dist t u v =
  List.fold_left (fun acc id -> acc +. t.edges.(id).weight) 0.0 (path_edges t u v)

let host_dist t h1 h2 = dist t (vertex_of_host t h1) (vertex_of_host t h2)

let add_first_host t ~host =
  if t.vcount <> 0 then invalid_arg "Tree.add_first_host: tree not empty";
  new_vertex t (Host host)

(* Splits edge [id] at distance [at] from endpoint [from] (0 <= at <=
   weight), returning the new inner vertex.  Both halves keep the owner. *)
let split_edge t id ~from ~at =
  let e = t.edges.(id) in
  let far = other_end e from in
  let m = new_vertex t Inner in
  kill_edge t id;
  let (_ : int) = new_edge t ~a:from ~b:m ~weight:at ~owner:e.owner in
  let (_ : int) = new_edge t ~a:m ~b:far ~weight:(e.weight -. at) ~owner:e.owner in
  m

let add_host t ~host ~between:(z, y) ~at ~leaf_weight =
  if Hashtbl.mem t.host_vertex host then invalid_arg "Tree.add_host: host already present";
  let leaf_weight = Float.max 0.0 leaf_weight in
  if t.vcount = 1 then begin
    (* Second host: the root vertex acts as its inner node. *)
    let root = 0 in
    let hv = new_vertex t (Host host) in
    let (_ : int) = new_edge t ~a:root ~b:hv ~weight:leaf_weight ~owner:host in
    match t.kinds.(root) with
    | Host anchor -> (hv, root, anchor, 0.0)
    | Inner -> assert false
  end
  else begin
    let edges = path_edges t z y in
    if edges = [] then invalid_arg "Tree.add_host: z = y";
    let total = List.fold_left (fun acc id -> acc +. t.edges.(id).weight) 0.0 edges in
    let at = Float.max 0.0 (Float.min at total) in
    (* Walk the path to the edge containing the split point. *)
    let rec locate cur remaining = function
      | [] -> assert false
      | [ id ] -> (cur, id, Float.min remaining t.edges.(id).weight)
      | id :: rest ->
          let w = t.edges.(id).weight in
          if remaining <= w then (cur, id, remaining)
          else locate (other_end t.edges.(id) cur) (remaining -. w) rest
    in
    let from, id, offset = locate z at edges in
    let owner = t.edges.(id).owner in
    let inner = split_edge t id ~from ~at:offset in
    let hv = new_vertex t (Host host) in
    let (_ : int) = new_edge t ~a:inner ~b:hv ~weight:leaf_weight ~owner:host in
    let anchor_offset = dist t (vertex_of_host t owner) inner in
    (hv, inner, owner, anchor_offset)
  end

let remove_host t ~host =
  match Hashtbl.find_opt t.host_vertex host with
  | None -> invalid_arg "Tree.remove_host: unknown host"
  | Some hv ->
      (* The host still owns edges beyond its own leaf edge iff some later
         insertion split one of them; those subtrees anchor on this host. *)
      let owned_elsewhere = ref false in
      for id = 0 to t.ecount - 1 do
        let e = t.edges.(id) in
        if e.live && e.owner = host && e.a <> hv && e.b <> hv then owned_elsewhere := true
      done;
      if !owned_elsewhere || degree t hv <> 1 then Error `Has_dependents
      else begin
        match t.adj.(hv) with
        | [ leaf_id ] ->
            let inner = other_end t.edges.(leaf_id) hv in
            kill_edge t leaf_id;
            Hashtbl.remove t.host_vertex host;
            (* Splice the inner node if it became a degree-2 pass-through. *)
            (match (t.kinds.(inner), t.adj.(inner)) with
            | Inner, [ e1; e2 ] ->
                let a = other_end t.edges.(e1) inner in
                let b = other_end t.edges.(e2) inner in
                let w = t.edges.(e1).weight +. t.edges.(e2).weight in
                let owner = t.edges.(e1).owner in
                kill_edge t e1;
                kill_edge t e2;
                let (_ : int) = new_edge t ~a ~b ~weight:w ~owner in
                ()
            | _ -> ());
            Ok ()
        | _ -> Error `Has_dependents
      end

(* ----- persistence (see below, after [is_tree]) ----- *)

type edge_dump = {
  e_a : vertex;
  e_b : vertex;
  e_weight : float;
  e_owner : int;
  e_live : bool;
}

type dump = {
  d_kinds : int array; (* host id per vertex; -1 = inner *)
  d_edges : edge_dump list; (* in edge-id order, dead slots included *)
  d_hosts : (int * vertex) list; (* host -> vertex, ascending host id *)
}

let dump t =
  let kinds =
    Array.init t.vcount (fun v ->
        match t.kinds.(v) with Host h -> h | Inner -> -1)
  in
  let edges = ref [] in
  for id = t.ecount - 1 downto 0 do
    let e = t.edges.(id) in
    edges :=
      { e_a = e.a; e_b = e.b; e_weight = e.weight; e_owner = e.owner; e_live = e.live }
      :: !edges
  done;
  let hosts =
    List.map (fun h -> (h, Hashtbl.find t.host_vertex h))
      (Bwc_stats.Tbl.sorted_keys t.host_vertex)
  in
  { d_kinds = kinds; d_edges = !edges; d_hosts = hosts }

let live_edges t =
  let acc = ref [] in
  for id = t.ecount - 1 downto 0 do
    if t.edges.(id).live then acc := t.edges.(id) :: !acc
  done;
  !acc

let is_tree t =
  let edges = live_edges t in
  let reachable = Array.make (Stdlib.max 1 t.vcount) false in
  let live_vertex = Array.make (Stdlib.max 1 t.vcount) false in
  List.iter
    (fun e ->
      live_vertex.(e.a) <- true;
      live_vertex.(e.b) <- true)
    edges;
  (* Isolated root (single-vertex tree) counts as live. *)
  if t.vcount > 0 then live_vertex.(0) <- true;
  let n_live = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 live_vertex in
  let rec bfs = function
    | [] -> ()
    | v :: rest ->
        let next =
          List.filter_map
            (fun id ->
              let e = t.edges.(id) in
              let u = other_end e v in
              if reachable.(u) then None
              else begin
                reachable.(u) <- true;
                Some u
              end)
            t.adj.(v)
        in
        (* frontier order is irrelevant here (reachability count only) *)
        bfs (List.rev_append next rest)
  in
  if t.vcount = 0 then true
  else begin
    reachable.(0) <- true;
    bfs [ 0 ];
    let n_reached = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 reachable in
    n_reached = n_live && List.length edges = n_live - 1
  end

(* The dump captures the geometry exactly as stored: every edge slot ever
   allocated (dead ones included, so edge ids — and therefore adjacency
   order — survive a round trip) and the host->vertex map separately from
   the vertex kinds (eviction can leave a [Host] kind behind after the
   mapping entry is gone). *)
let of_dump d =
  let vcount = Array.length d.d_kinds in
  let fail msg = invalid_arg ("Tree.of_dump: " ^ msg) in
  let check_v v = if v < 0 || v >= vcount then fail "vertex out of range" in
  Array.iter (fun h -> if h < -1 then fail "bad vertex kind") d.d_kinds;
  let ecount = List.length d.d_edges in
  let cap n = Stdlib.max 16 n in
  let t =
    {
      kinds =
        Array.init (cap vcount) (fun v ->
            if v < vcount && d.d_kinds.(v) >= 0 then Host d.d_kinds.(v) else Inner);
      vcount;
      edges =
        Array.make (cap ecount) { a = 0; b = 0; weight = 0.0; owner = 0; live = false };
      ecount;
      adj = Array.make (cap vcount) [];
      host_vertex = Hashtbl.create 64;
    }
  in
  List.iteri
    (fun id e ->
      check_v e.e_a;
      check_v e.e_b;
      if e.e_weight < 0.0 || not (Float.is_finite e.e_weight) then fail "bad edge weight";
      t.edges.(id) <-
        { a = e.e_a; b = e.e_b; weight = e.e_weight; owner = e.e_owner; live = e.e_live };
      (* prepending live ids in ascending order reproduces the adjacency
         lists [new_edge]/[kill_edge] would have left behind *)
      if e.e_live then begin
        t.adj.(e.e_a) <- id :: t.adj.(e.e_a);
        t.adj.(e.e_b) <- id :: t.adj.(e.e_b)
      end)
    d.d_edges;
  List.iter
    (fun (h, v) ->
      check_v v;
      (match d.d_kinds.(v) with
      | k when k = h -> ()
      | _ -> fail "host map disagrees with vertex kind");
      Hashtbl.replace t.host_vertex h v)
    d.d_hosts;
  if not (is_tree t) then fail "not a tree";
  t

let to_dot ?(label = "prediction tree") t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "graph prediction_tree {\n";
  Buffer.add_string buf (Printf.sprintf "  label=%S;\n" label);
  Buffer.add_string buf "  node [fontsize=10];\n";
  for v = 0 to t.vcount - 1 do
    match t.kinds.(v) with
    | Host h ->
        if Hashtbl.mem t.host_vertex h then
          Buffer.add_string buf
            (Printf.sprintf "  v%d [shape=box, label=\"h%d\"];\n" v h)
    | Inner ->
        if t.adj.(v) <> [] then
          Buffer.add_string buf (Printf.sprintf "  v%d [shape=point];\n" v)
  done;
  List.iter
    (fun e ->
      Buffer.add_string buf
        (Printf.sprintf "  v%d -- v%d [label=\"%.2f (h%d)\"];\n" e.a e.b e.weight
           e.owner))
    (live_edges t);
  Buffer.add_string buf "}\n";
  Buffer.contents buf
