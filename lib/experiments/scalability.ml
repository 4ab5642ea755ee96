module Rng = Bwc_stats.Rng
module Dataset = Bwc_dataset.Dataset

type row = {
  n : int;
  avg_hops : float;
  max_hops : int;
  rr : float;
  queries : int;
}

type output = {
  base_dataset : string;
  rows : row list;
}

let run ?(sizes = [ 50; 100; 150; 200; 250 ]) ?(subsets_per_size = 2)
    ?(queries_per_subset = 100) ?(rounds = 1) ~seed base =
  let base_n = Dataset.size base in
  let rows =
    List.map
      (fun n ->
        if n > base_n then
          invalid_arg "Scalability.run: subset size exceeds base dataset";
        let hops_sum = ref 0 and hops_max = ref 0 in
        let found = ref 0 and asked = ref 0 in
        for subset = 0 to subsets_per_size - 1 do
          let sub_rng = Rng.create (seed + (100 * n) + subset) in
          let ds = Dataset.random_subset base ~rng:sub_rng n in
          let lo, hi = Workload.bandwidth_range ds in
          for round = 0 to rounds - 1 do
            let sys = Bwc_core.Dynamic.create ~seed:(seed + (1000 * subset) + round) ds in
            let rng = Rng.create (seed + (10 * n) + (100 * subset) + round) in
            (* Queries: uniform k drawn from the 5%-30% range, constraint
               and submission host uniform. *)
            let ks_arr =
              Array.of_list (Workload.k_fraction_range ~n ~lo:0.05 ~hi:0.30 ~steps:6)
            in
            for _ = 1 to queries_per_subset do
              let k = ks_arr.(Rng.int rng (Array.length ks_arr)) in
              let b = Rng.uniform rng lo hi in
              let at = Rng.int rng n in
              let r = Bwc_core.Dynamic.query ~at sys ~k ~b in
              incr asked;
              if Bwc_core.Query.found r then begin
                incr found;
                hops_sum := !hops_sum + r.Bwc_core.Query.hops;
                hops_max := Stdlib.max !hops_max r.Bwc_core.Query.hops
              end
            done
          done
        done;
        {
          n;
          avg_hops =
            (if !found = 0 then 0.0 else float_of_int !hops_sum /. float_of_int !found);
          max_hops = !hops_max;
          rr = (if !asked = 0 then 0.0 else float_of_int !found /. float_of_int !asked);
          queries = !asked;
        })
      (List.sort compare sizes)
  in
  { base_dataset = base.Dataset.name; rows }

(* ----- E14: incremental index maintenance under churn ----- *)

module Index = Bwc_core.Find_cluster.Index
module Span = Bwc_obs.Span

type churn_row = {
  cn : int;
  events : int;
  incremental_s : float;
  rebuild_s : float;
  speedup : float;
  checks : int;
  divergence : int;
  exact_arm : string;
}

(* An [Index.find] witness re-verified from raw distances alone, sharing
   no code with the index: [k] distinct current members whose first two
   hosts [(u, v)] satisfy [d(u,v) <= l], every member inside the ball
   S*_uv.  [None] has no witness to check. *)
let witness_ok ~dist ~is_member ~k ~l = function
  | None -> true
  | Some (u :: v :: _ as cl) ->
      let duv = dist u v in
      List.length cl = k
      && List.length (List.sort_uniq Int.compare cl) = k
      && duv <= l
      && List.for_all
           (fun x -> is_member.(x) && dist x u <= duv && dist x v <= duv)
           cl
  | Some _ -> false

(* drive one churn sequence over a fixed universe space: the maintained
   index absorbs each membership event as an O(n^2) delta, and after
   every event random [(k, l)] probes re-verify its [find] witness
   against the raw distances.  With [rebuild] a second arm also pays a
   fresh O(n^3) [Index.build_subset] per event — the original rebuild
   baseline, intractable past a few hundred points, hence size-gated —
   and every probe is differentially compared against it. *)
let churn_one ~rng ~space ~events ~checks_per_event ~rebuild =
  let n = space.Bwc_metric.Space.n in
  let dist = space.Bwc_metric.Space.dist in
  let is_member = Array.make n false in
  let initial = Rng.sample_without_replacement rng (Stdlib.max 2 (3 * n / 4)) n in
  Array.iter (fun h -> is_member.(h) <- true) initial;
  let members () =
    List.filter (fun h -> is_member.(h)) (List.init n Fun.id)
  in
  let ds_values =
    Bwc_metric.Dmatrix.off_diagonal_values (Bwc_metric.Space.to_dmatrix space)
  in
  let lo = Bwc_stats.Summary.percentile ds_values 5.0
  and hi = Bwc_stats.Summary.percentile ds_values 95.0 in
  let inc_span = Span.create "incremental" and reb_span = Span.create "rebuild" in
  let idx = Index.build_subset space (members ()) in
  let divergence = ref 0 and checks = ref 0 in
  for _ = 1 to events do
    let ins = List.filter (fun h -> not is_member.(h)) (List.init n Fun.id) in
    let outs = members () in
    (* joins and leaves alternate at random, never emptying the system
       or overfilling the universe *)
    let joining =
      match ins, outs with
      | [], _ -> false
      | _, ([] | [ _ ]) -> true
      | _ -> Rng.bool rng
    in
    let h = Rng.choose rng (Array.of_list (if joining then ins else outs)) in
    is_member.(h) <- joining;
    Span.time inc_span (fun () ->
        if joining then Index.add_host idx h else Index.remove_host idx h);
    let rebuilt =
      if rebuild then
        Some (Span.time reb_span (fun () -> Index.build_subset space (members ())))
      else None
    in
    let a = Index.size idx in
    for _ = 1 to checks_per_event do
      incr checks;
      let k = 2 + Rng.int rng (Stdlib.max 1 (a - 1)) in
      let l = Rng.uniform rng lo hi in
      let found = Index.find idx ~k ~l in
      if not (witness_ok ~dist ~is_member ~k ~l found) then incr divergence;
      match rebuilt with
      | Some rebuilt ->
          if Index.exists idx ~k ~l <> Index.exists rebuilt ~k ~l then incr divergence;
          if Index.max_size idx ~l <> Index.max_size rebuilt ~l then incr divergence;
          if found <> Index.find rebuilt ~k ~l then incr divergence
      | None -> ()
    done
  done;
  let incremental_s = Span.total_s inc_span and rebuild_s = Span.total_s reb_span in
  {
    cn = n;
    events;
    incremental_s;
    rebuild_s;
    speedup = (if rebuild then rebuild_s /. Float.max 1e-9 incremental_s else 0.0);
    checks = !checks;
    divergence = !divergence;
    exact_arm = (if rebuild then "full+rebuild" else "full");
  }

(* the O(n^3)-per-event rebuild arm stops being tractable past this *)
let rebuild_max = 256

let churn_sweep ?(sizes = [ 64; 128; 256 ]) ?(events_per_size = 16)
    ?(checks_per_event = 4) ~seed () =
  List.map
    (fun n ->
      let rng = Rng.create (seed + (13 * n)) in
      let space =
        Bwc_metric.Space.of_dmatrix
          (Bwc_dataset.Hier_tree.distance_matrix ~rng:(Rng.create (seed + n)) ~n ())
      in
      churn_one ~rng ~space ~events:events_per_size ~checks_per_event
        ~rebuild:(n <= rebuild_max))
    (List.sort compare sizes)

let churn_gate rows =
  match List.fold_left (fun acc r -> acc + r.divergence) 0 rows with
  | 0 -> []
  | d -> [ Printf.sprintf "%d divergences or failed witnesses" d ]

let print_churn rows =
  Report.table ~title:"E14 incremental index maintenance under churn"
    ~headers:
      [ "n"; "events"; "exact arm"; "incremental"; "rebuild"; "speedup"; "checks"; "diverged" ]
    (List.map
       (fun r ->
         let rebuilt = String.equal r.exact_arm "full+rebuild" in
         [
           Report.i r.cn;
           Report.i r.events;
           r.exact_arm;
           Printf.sprintf "%.2f ms" (1e3 *. r.incremental_s);
           (if rebuilt then Printf.sprintf "%.2f ms" (1e3 *. r.rebuild_s) else "-");
           (if rebuilt then Printf.sprintf "%.1fx" r.speedup else "-");
           Report.i r.checks;
           Report.i r.divergence;
         ])
       rows)

let churn_to_json rows ~seed =
  let open Bwc_json in
  let row r =
    Obj
      [ ("n", Int r.cn); ("events", Int r.events); ("exact_arm", Str r.exact_arm);
        ("incremental_s", Num (r.incremental_s, 6)); ("rebuild_s", Num (r.rebuild_s, 6));
        ("speedup", Num (r.speedup, 2)); ("checks", Int r.checks);
        ("divergence", Int r.divergence) ]
  in
  to_rows
    (Obj
       [ ("bench", Str "index_churn"); ("seed", Int seed);
         ("rows", Arr (List.map row rows)) ])

let columns =
  Report.
    [
      col "n" "n" (fun r -> i r.n);
      col "avg hops" "avg_hops" (fun r -> f3 r.avg_hops);
      col "max hops" "max_hops" (fun r -> i r.max_hops);
      col "RR" "rr" (fun r -> f3 r.rr);
      col "queries" "queries" (fun r -> i r.queries);
    ]

let print output =
  Report.print
    ~title:(Printf.sprintf "Fig.6 query routing scalability -- %s" output.base_dataset)
    columns output.rows

let save_csv output = Report.save_csv columns output.rows
