(* Tests for bwc_euclid: Hopcroft-Karp matching and König MIS extraction
   (checked against brute force), and the adapted k-diameter clustering
   on hand-built and random point sets. *)

module Rng = Bwc_stats.Rng
module Bipartite = Bwc_euclid.Bipartite
module Kdiam = Bwc_euclid.Kdiam
module Coord = Bwc_vivaldi.Coord

let pt x y = { Coord.x; y }

(* ----- Bipartite ----- *)

let test_matching_path_graph () =
  (* L0-R0, L0-R1, L1-R1: max matching 2 *)
  let g = Bipartite.create ~left:2 ~right:2 in
  Bipartite.add_edge g 0 0;
  Bipartite.add_edge g 0 1;
  Bipartite.add_edge g 1 1;
  Alcotest.(check int) "matching" 2 (Bipartite.max_matching g)

let test_matching_star () =
  (* one left vertex connected to many rights: matching 1 *)
  let g = Bipartite.create ~left:1 ~right:5 in
  for v = 0 to 4 do
    Bipartite.add_edge g 0 v
  done;
  Alcotest.(check int) "matching" 1 (Bipartite.max_matching g)

let test_matching_empty () =
  let g = Bipartite.create ~left:3 ~right:4 in
  Alcotest.(check int) "no edges" 0 (Bipartite.max_matching g)

let test_matching_complete () =
  let g = Bipartite.create ~left:3 ~right:3 in
  for u = 0 to 2 do
    for v = 0 to 2 do
      Bipartite.add_edge g u v
    done
  done;
  Alcotest.(check int) "perfect" 3 (Bipartite.max_matching g)

(* no conflict edge may connect two chosen vertices *)
let mis_is_independent (in_l, in_r) edges =
  List.for_all (fun (u, v) -> not (in_l.(u) && in_r.(v))) edges

let test_mis_konig_size () =
  let g = Bipartite.create ~left:3 ~right:3 in
  let edges = [ (0, 0); (0, 1); (1, 1); (2, 2) ] in
  List.iter (fun (u, v) -> Bipartite.add_edge g u v) edges;
  let matching = Bipartite.max_matching g in
  let in_l, in_r = Bipartite.max_independent_set g in
  let size =
    Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_l
    + Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_r
  in
  Alcotest.(check int) "König size" (6 - matching) size;
  Alcotest.(check bool) "independent" true (mis_is_independent (in_l, in_r) edges)

(* brute force MIS on tiny bipartite graphs *)
let brute_mis ~left ~right edges =
  let best = ref 0 in
  for mask_l = 0 to (1 lsl left) - 1 do
    for mask_r = 0 to (1 lsl right) - 1 do
      let ok =
        List.for_all
          (fun (u, v) -> not (mask_l land (1 lsl u) <> 0 && mask_r land (1 lsl v) <> 0))
          edges
      in
      if ok then begin
        let count m =
          let rec loop m acc = if m = 0 then acc else loop (m lsr 1) (acc + (m land 1)) in
          loop m 0
        in
        best := Stdlib.max !best (count mask_l + count mask_r)
      end
    done
  done;
  !best

let test_mis_random_vs_brute () =
  let rng = Rng.create 11 in
  for _ = 1 to 50 do
    let left = 1 + Rng.int rng 5 and right = 1 + Rng.int rng 5 in
    let g = Bipartite.create ~left ~right in
    let edges = ref [] in
    for u = 0 to left - 1 do
      for v = 0 to right - 1 do
        if Rng.float rng 1.0 < 0.4 then begin
          Bipartite.add_edge g u v;
          edges := (u, v) :: !edges
        end
      done
    done;
    let in_l, in_r = Bipartite.max_independent_set g in
    let size =
      Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_l
      + Array.fold_left (fun a b -> if b then a + 1 else a) 0 in_r
    in
    let want = brute_mis ~left ~right !edges in
    if size <> want then Alcotest.failf "MIS %d, brute force %d" size want;
    if not (mis_is_independent (in_l, in_r) !edges) then Alcotest.fail "not independent"
  done

(* ----- Kdiam ----- *)

let test_kdiam_two_tight_groups () =
  (* two groups of 3, far apart: k=3 succeeds with small l, k=4 needs the
     group diameter to stretch across and fails *)
  let points =
    [|
      pt 0.0 0.0; pt 0.1 0.0; pt 0.0 0.1;
      pt 10.0 0.0; pt 10.1 0.0; pt 10.0 0.1;
    |]
  in
  (match Kdiam.find_cluster ~points ~k:3 ~l:0.3 with
  | Some c -> Alcotest.(check int) "size" 3 (List.length c)
  | None -> Alcotest.fail "tight triple exists");
  Alcotest.(check bool) "k=4 infeasible at small l" true
    (Kdiam.find_cluster ~points ~k:4 ~l:0.3 = None);
  match Kdiam.find_cluster ~points ~k:6 ~l:20.0 with
  | Some c -> Alcotest.(check int) "all six" 6 (List.length c)
  | None -> Alcotest.fail "whole set fits at l=20"

let test_kdiam_cluster_diameter_property () =
  let rng = Rng.create 12 in
  for _ = 1 to 40 do
    let n = 8 + Rng.int rng 20 in
    let points = Array.init n (fun _ -> pt (Rng.float rng 10.0) (Rng.float rng 10.0)) in
    let l = 1.0 +. Rng.float rng 5.0 in
    let k = 2 + Rng.int rng 5 in
    match Kdiam.find_cluster ~points ~k ~l with
    | None -> ()
    | Some cluster ->
        Alcotest.(check int) "size" k (List.length cluster);
        List.iteri
          (fun i x ->
            List.iteri
              (fun j y ->
                if j > i && Coord.dist points.(x) points.(y) > l *. (1.0 +. 1e-9) then
                  Alcotest.fail "diameter violated")
              cluster)
          cluster
  done

(* brute force: does a k-subset with diameter <= l exist? *)
let brute_exists points k l =
  let n = Array.length points in
  let rec choose start acc count =
    if count = k then begin
      let ok = ref true in
      List.iteri
        (fun i x ->
          List.iteri
            (fun j y -> if j > i && Coord.dist points.(x) points.(y) > l then ok := false)
            acc)
        acc;
      !ok
    end
    else if start >= n then false
    else choose (start + 1) (start :: acc) (count + 1) || choose (start + 1) acc count
  in
  choose 0 [] 0

let test_kdiam_vs_brute_force () =
  let rng = Rng.create 13 in
  for _ = 1 to 30 do
    let n = 6 + Rng.int rng 6 in
    let points = Array.init n (fun _ -> pt (Rng.float rng 4.0) (Rng.float rng 4.0)) in
    let l = 0.5 +. Rng.float rng 3.0 in
    let k = 2 + Rng.int rng 3 in
    let found = Kdiam.find_cluster ~points ~k ~l <> None in
    let expected = brute_exists points k l in
    if found <> expected then
      Alcotest.failf "kdiam %b, brute force %b (n=%d k=%d l=%.2f)" found expected n k l
  done

let test_kdiam_max_size_vs_brute () =
  let rng = Rng.create 14 in
  for _ = 1 to 20 do
    let n = 5 + Rng.int rng 5 in
    let points = Array.init n (fun _ -> pt (Rng.float rng 3.0) (Rng.float rng 3.0)) in
    let l = 0.5 +. Rng.float rng 2.0 in
    let rec largest k = if k < 2 then 1 else if brute_exists points k l then k else largest (k - 1) in
    let expected = largest n in
    let got = Kdiam.max_cluster_size ~points ~l in
    if got <> expected then Alcotest.failf "max size %d, brute %d" got expected
  done

let test_kdiam_lens_members () =
  let points = [| pt 0.0 0.0; pt 2.0 0.0; pt 1.0 0.5; pt 1.0 5.0 |] in
  let lens = Kdiam.lens_members ~points ~p:0 ~q:1 in
  Alcotest.(check (list int)) "p, q and the near point" [ 0; 1; 2 ] lens

let test_kdiam_index_agrees () =
  let rng = Rng.create 15 in
  let points = Array.init 25 (fun _ -> pt (Rng.float rng 8.0) (Rng.float rng 8.0)) in
  let index = Kdiam.Index.build points in
  List.iter
    (fun (k, l) ->
      let direct = Kdiam.find_cluster ~points ~k ~l in
      let via_index = Kdiam.Index.find index ~k ~l in
      Alcotest.(check bool) "same feasibility" (direct <> None) (via_index <> None);
      let m = Kdiam.max_cluster_size ~points ~l in
      Alcotest.(check bool) "index finds the direct max size" true
        (m < 2 || Kdiam.Index.find index ~k:m ~l <> None);
      Alcotest.(check bool) "and nothing larger" true
        (Kdiam.Index.find index ~k:(m + 1) ~l = None))
    [ (3, 1.0); (5, 2.0); (8, 4.0); (12, 12.0) ]

let test_kdiam_pair_query () =
  (* k = 2 reduces to "any pair within l" *)
  let points = [| pt 0.0 0.0; pt 3.0 0.0; pt 10.0 0.0 |] in
  (match Kdiam.find_cluster ~points ~k:2 ~l:3.5 with
  | Some [ a; b ] -> Alcotest.(check bool) "close pair" true
      (Coord.dist points.(a) points.(b) <= 3.5)
  | Some _ | None -> Alcotest.fail "pair (0,1) qualifies");
  Alcotest.(check bool) "no pair within 1" true (Kdiam.find_cluster ~points ~k:2 ~l:1.0 = None)

let test_kdiam_max_size_monotone_in_l () =
  let rng = Rng.create 16 in
  let points = Array.init 20 (fun _ -> pt (Rng.float rng 5.0) (Rng.float rng 5.0)) in
  let sizes = List.map (fun l -> Kdiam.max_cluster_size ~points ~l) [ 0.5; 1.0; 2.0; 4.0; 10.0 ] in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  Alcotest.(check bool) "monotone" true (mono sizes);
  Alcotest.(check int) "everything at huge l" 20
    (Kdiam.max_cluster_size ~points ~l:100.0)

let test_matching_chain () =
  (* chain L0-R0-L1-R1-...: perfect matching exists *)
  let m = 6 in
  let g = Bipartite.create ~left:m ~right:m in
  for i = 0 to m - 1 do
    Bipartite.add_edge g i i;
    if i + 1 < m then Bipartite.add_edge g (i + 1) i
  done;
  Alcotest.(check int) "perfect chain matching" m (Bipartite.max_matching g)

let () =
  Alcotest.run "bwc_euclid"
    [
      ( "bipartite",
        [
          Alcotest.test_case "path graph" `Quick test_matching_path_graph;
          Alcotest.test_case "star" `Quick test_matching_star;
          Alcotest.test_case "empty" `Quick test_matching_empty;
          Alcotest.test_case "complete" `Quick test_matching_complete;
          Alcotest.test_case "König MIS size" `Quick test_mis_konig_size;
          Alcotest.test_case "MIS vs brute force" `Quick test_mis_random_vs_brute;
          Alcotest.test_case "chain matching" `Quick test_matching_chain;
        ] );
      ( "kdiam",
        [
          Alcotest.test_case "two tight groups" `Quick test_kdiam_two_tight_groups;
          Alcotest.test_case "diameter property" `Quick
            test_kdiam_cluster_diameter_property;
          Alcotest.test_case "feasibility vs brute force" `Quick test_kdiam_vs_brute_force;
          Alcotest.test_case "max size vs brute force" `Quick test_kdiam_max_size_vs_brute;
          Alcotest.test_case "lens members" `Quick test_kdiam_lens_members;
          Alcotest.test_case "index agrees with direct" `Quick test_kdiam_index_agrees;
          Alcotest.test_case "pair query" `Quick test_kdiam_pair_query;
          Alcotest.test_case "max size monotone in l" `Quick
            test_kdiam_max_size_monotone_in_l;
        ] );
    ]
