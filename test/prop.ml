(* Seeded property-based differential harness.

   Eleven properties, each over freshly generated random inputs:

   1. churn-differential — after ANY sequence of Index.add_host /
      Index.remove_host events, the incrementally maintained
      Find_cluster.Index dumps byte-identically to a fresh
      Index.build_subset of the same membership and answers (exists,
      max_size, find with and without ~verify) exactly as it, its
      max_size per class equals a one-shot Find_cluster.max_sizes over
      the members, its find equals the one-shot Find_cluster.find over
      the restricted space, and oracles that share no code with the
      index hold: every dumped pair count and every class's max_size
      equal a direct count over Space.dist, every find witness passes a
      direct distance check, and find with and without ~verify equals a
      direct row-major scan; the line counts the finds that ended in the
      index's walk and in its pass; half the sequences run on
      integer-weighted tree metrics where many pairs share one
      distance;
   2. alg1-oracle-tree — on exact tree metrics Algorithm 1 agrees with
      the exact Bron-Kerbosch clique oracle on every (k, l) query;
   3. alg1-oracle-noisy — on noisy near-tree spaces the two may disagree
      only in the direction WPR permits (Algorithm 1 claiming a cluster
      the real space does not have, never missing one that exists);
   4. causal-dag — on traces of protocol runs under random fault plans
      (loss, duplication, jitter, crash windows), Causal.reconstruct
      yields a well-formed happens-before DAG: every Deliver matches a
      Send, Lamport stamps respect happens-before, predecessor edges
      point strictly backwards (acyclicity) and chain lengths add up,
      and the trace's JSONL parses back to exactly its events;
   5. daemon-replay — see below;
   6. json-roundtrip — Bwc_json's parser inverts both printers;
   7. snapshot-anywhere — every image a daemon can write restores and
      answers as the writer (see below);
   8. cached-space — a node's cached clustering space never changes an
      answer or outlives the own CRT row it should yield, and a dump whose
      links are not the overlay neighbours in order is refused (see
      below);
   9. fixpoint-oracle — every quiescent protocol state equals the
      aggregation fixpoint computed by direct recursion over the overlay
      (see below);
   10. codec-oracle — Codec's in-place token writer and container equal
      a naive Printf reference writer byte for byte, and read back (see
      below);
   11. wire-oracle — Wire's in-place reader and one-buffer renderer
      equal the list-based reader and Printf renderer they replaced on
      random lines and responses (see below).

   The harness is deliberately NOT an alcotest suite: its stdout is
   fully deterministic for a given seed (no timings), so two runs with
   the same seed must be byte-identical — CI asserts exactly that.
   Every failure prints the case index and the seed environment needed
   to replay it:

     BWC_PROP_SEED=<seed> BWC_PROP_CASES=<cases> dune exec test/prop.exe *)

module Rng = Bwc_stats.Rng
module Space = Bwc_metric.Space
module Tree = Bwc_predtree.Tree
module Find_cluster = Bwc_core.Find_cluster
module Index = Find_cluster.Index
module Clique = Bwc_core.Clique

let seed =
  match Sys.getenv_opt "BWC_PROP_SEED" with
  | Some s -> int_of_string s
  | None -> 2026

let cases =
  match Sys.getenv_opt "BWC_PROP_CASES" with
  | Some s -> int_of_string s
  | None -> 200

let fail_case prop case fmt =
  Printf.printf "FAIL %s case=%d (replay: BWC_PROP_SEED=%d BWC_PROP_CASES=%d)\n" prop
    case seed cases;
  Printf.ksprintf
    (fun msg ->
      Printf.printf "  %s\n" msg;
      exit 1)
    fmt

(* case rngs are derived from (seed, case) so a single failing case can
   be replayed without re-running its predecessors *)
let case_rng case = Rng.create ((seed * 1_000_003) + case)

(* ----- generators ----- *)

(* A random exact tree metric grown through Bwc_predtree.Tree itself:
   hosts are inserted one by one at random positions along random paths,
   exactly the degrees of freedom Gromov placement uses.  Path-sum
   distances in a tree are a tree metric by construction. *)
let tree_metric_space rng n =
  let tree = Tree.create () in
  let (_ : Tree.vertex) = Tree.add_first_host tree ~host:0 in
  for h = 1 to n - 1 do
    let vc = Tree.vertex_count tree in
    let z = Rng.int rng vc in
    let y = if vc = 1 then z else (z + 1 + Rng.int rng (vc - 1)) mod vc in
    let at = Rng.float rng (Float.max 1e-6 (Tree.dist tree z y)) in
    let leaf_weight = 0.1 +. Rng.float rng 10.0 in
    let (_ : Tree.vertex * Tree.vertex * int * float) =
      Tree.add_host tree ~host:h ~between:(z, y) ~at ~leaf_weight
    in
    ()
  done;
  Space.cached
    (Space.make ~n ~dist:(fun i j -> if i = j then 0.0 else Tree.host_dist tree i j))

(* A noisy near-tree space: the hierarchical ISP-topology generator
   degraded by multiplicative log-normal noise (the same degradation the
   treeness experiment sweeps). *)
let noisy_space rng ~sigma n =
  let ds =
    Bwc_dataset.Hier_tree.generate ~rng:(Rng.split rng) ~n ~name:"prop-noisy" ()
  in
  let ds = Bwc_dataset.Noise.multiplicative ~rng:(Rng.split rng) ~sigma ds in
  Space.cached (Bwc_dataset.Dataset.metric ds)

(* A tie-heavy tree metric with integer distances: hosts are the leaves
   of a complete ternary tree with unit edges, hung from it by pendant
   edges of integer weight 1-3, so d(i,j) = w_i + w_j + 2 h(i,j) where
   h is the height of the leaves' lowest common ancestor.  Pendant edges
   keep it a tree metric; a handful of distinct values keeps most pairs
   tied. *)
let tie_space rng n =
  let w = Array.init n (fun _ -> float_of_int (1 + Rng.int rng 3)) in
  let rec height i j h = if i = j then h else height (i / 3) (j / 3) (h + 1) in
  Space.make ~n ~dist:(fun i j -> w.(i) +. w.(j) +. float_of_int (2 * height i j 0))

let off_diag_values space =
  Bwc_metric.Dmatrix.off_diagonal_values (Space.to_dmatrix space)

(* ----- property 1: churn differential ----- *)

(* the rebuild shares the index's code, so a find witness is also checked
   from raw distances alone: k distinct current members, anchored by its
   first two hosts (u, v) with d(u,v) <= l, every member inside S*_uv *)
let check_feasible prop case ~event space is_member cl ~k ~l =
  if List.length cl <> k then
    fail_case prop case "event %d: find returned %d members, wanted %d" event
      (List.length cl) k;
  if List.length (List.sort_uniq compare cl) <> k then
    fail_case prop case "event %d: find returned duplicate hosts" event;
  List.iter
    (fun h ->
      if not is_member.(h) then
        fail_case prop case "event %d: find returned non-member %d" event h)
    cl;
  match cl with
  | u :: v :: _ ->
      let duv = Space.dist space u v in
      if duv > l then
        fail_case prop case "event %d: find anchors %.9g apart > l=%.9g" event duv l;
      List.iter
        (fun x ->
          if Space.dist space x u > duv || Space.dist space x v > duv then
            fail_case prop case "event %d: find member %d outside S*_%d,%d" event x u v)
        cl
  | _ -> fail_case prop case "event %d: find returned fewer than 2 hosts" event

(* The counts an index must hold, from raw distances alone (no code
   shared with Find_cluster's counting loops): |S*_uv ∩ members| for a
   member pair, and for a class l the largest of them over member pairs
   at most l apart — 1 with a lone member, 0 with none. *)
let direct_count space members u v =
  let duv = Space.dist space u v in
  List.length
    (List.filter (fun x -> Space.dist space x u <= duv && Space.dist space x v <= duv) members)

let direct_max_size space members l =
  let best = ref (if members = [] then 0 else 1) in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          if u < v && Space.dist space u v <= l then
            best := Int.max !best (direct_count space members u v))
        members)
    members;
  !best

let check_direct_counts prop case ~event space members dump =
  if dump.Index.d_members <> members then
    fail_case prop case "event %d: dumped membership differs from the events'" event;
  let pos = ref 0 in
  List.iteri
    (fun i u ->
      List.iteri
        (fun j v ->
          if i < j then begin
            let want = direct_count space members u v in
            if dump.Index.d_sizes.(!pos) <> want then
              fail_case prop case "event %d: |S*_%d,%d| is %d, a direct count gives %d" event u
                v dump.Index.d_sizes.(!pos) want;
            incr pos
          end)
        members)
    members

(* Algorithm 1 over the members from raw distances alone: member pairs
   u < v in row-major order, the first within l whose direct count
   reaches k and, with [verify], whose cluster (u, v, then the ball's
   first k - 2 other members) passes the diameter check.  Also says
   whether [Index.find] ends the probe in its walk or in its pass: the
   walk looks up at most [1 + h / 128] of the h pairs within l, the pass
   then jumps to the next pair whose count reaches k, and a cluster
   that fails the check sends the walk on with a fresh budget. *)
let direct_find ~verify space members ~k ~l =
  let within =
    List.concat_map
      (fun u ->
        List.filter_map
          (fun v -> if u < v && Space.dist space u v <= l then Some (u, v) else None)
          members)
      members
  in
  let budget = 1 + (List.length within / 128) in
  (* [left] lookups remain to the walk; 0 means the pass runs *)
  let rec go left = function
    | [] -> (None, left > 0)
    | (u, v) :: rest ->
        let hit = direct_count space members u v >= k in
        if left = 0 && not hit then go 0 rest
        else begin
          let duv = Space.dist space u v in
          let others =
            List.filter
              (fun x ->
                x <> u && x <> v && Space.dist space x u <= duv && Space.dist space x v <= duv)
              members
          in
          let cluster = u :: v :: List.filteri (fun i _ -> i < k - 2) others in
          if
            hit
            && ((not verify)
               || Space.diameter space cluster <= l *. (1.0 +. Find_cluster.diam_tol))
          then (Some cluster, left > 0)
          else go (if left = 0 then budget else left - 1) rest
        end
  in
  go budget within

(* returns the incremental find answers, without and with ~verify, for
   the witness check.  Beside the rebuild, which shares the index's
   code, [find] must equal the one-shot scan over the restricted space
   ([one_shot], under universe ids) and the direct row-major oracle;
   [walked] and [passed] count where the feasible probes ended *)
let check_agreement prop case ~event space members ~one_shot ~walked ~passed idx rebuilt ~k
    ~l =
  let e_inc = Index.exists idx ~k ~l and e_reb = Index.exists rebuilt ~k ~l in
  if e_inc <> e_reb then
    fail_case prop case "event %d: exists k=%d l=%.9g: incremental %b, rebuilt %b" event
      k l e_inc e_reb;
  let m_inc = Index.max_size idx ~l and m_reb = Index.max_size rebuilt ~l in
  if m_inc <> m_reb then
    fail_case prop case "event %d: max_size l=%.9g: incremental %d, rebuilt %d" event l
      m_inc m_reb;
  let f_inc = Index.find idx ~k ~l and f_reb = Index.find rebuilt ~k ~l in
  if f_inc <> f_reb then
    fail_case prop case "event %d: find k=%d l=%.9g diverged" event k l;
  if f_inc <> one_shot ~k ~l then
    fail_case prop case "event %d: find k=%d l=%.9g differs from the one-shot scan" event k
      l;
  let v_inc = Index.find ~verify:true idx ~k ~l
  and v_reb = Index.find ~verify:true rebuilt ~k ~l in
  if v_inc <> v_reb then
    fail_case prop case "event %d: verified find k=%d l=%.9g diverged" event k l;
  List.iter
    (fun (verify, got) ->
      let want, in_walk = direct_find ~verify space members ~k ~l in
      if got <> want then
        fail_case prop case
          "event %d: find ~verify:%b k=%d l=%.9g differs from the direct oracle" event verify k l;
      if e_inc then incr (if in_walk then walked else passed))
    [ (false, f_inc); (true, v_inc) ];
  List.filter_map Fun.id [ f_inc; v_inc ]

let churn_differential () =
  let prop = "churn-differential" in
  let total_events = ref 0 and total_checks = ref 0 in
  let walked = ref 0 and passed = ref 0 in
  let sequence case rng n space =
    let values = off_diag_values space in
    let l_max = Array.fold_left Float.max 0.0 values in
    let is_member = Array.make n false in
    let m0 = Rng.int rng (n + 1) in
    Array.iter (fun h -> is_member.(h) <- true) (Rng.sample_without_replacement rng m0 n);
    let members () = List.filter (fun h -> is_member.(h)) (List.init n Fun.id) in
    let idx = Index.build_subset space (members ()) in
    let events = 6 + Rng.int rng 10 in
    for event = 1 to events do
      incr total_events;
      let ins = List.filter (fun h -> not is_member.(h)) (List.init n Fun.id) in
      let outs = members () in
      let joining =
        match ins, outs with [], _ -> false | _, [] -> true | _ -> Rng.bool rng
      in
      let h = Rng.choose rng (Array.of_list (if joining then ins else outs)) in
      is_member.(h) <- joining;
      if joining then Index.add_host idx h else Index.remove_host idx h;
      let rebuilt = Index.build_subset space (members ()) in
      incr total_checks;
      if Index.dump idx <> Index.dump rebuilt then
        fail_case prop case "event %d: dump differs from a rebuild's" event;
      incr total_checks;
      check_direct_counts prop case ~event space (members ()) (Index.dump idx);
      let ids = Array.of_list (members ()) in
      let restricted = Space.restrict space ids in
      let one_shot ~k ~l =
        Option.map (List.map (fun i -> ids.(i))) (Find_cluster.find restricted ~k ~l)
      in
      (* probe with arbitrary thresholds and with exact pair distances
         (the tie-heavy case the sorted structure must survive) *)
      for _ = 1 to 4 do
        incr total_checks;
        let k = 2 + Rng.int rng (Stdlib.max 1 (n - 1)) in
        let l =
          if Rng.bool rng || Array.length values = 0 then
            Rng.float rng (Float.max 1e-6 (l_max *. 1.1))
          else values.(Rng.int rng (Array.length values))
        in
        List.iter
          (fun cl ->
            incr total_checks;
            check_feasible prop case ~event space is_member cl ~k ~l)
          (check_agreement prop case ~event space (members ()) ~one_shot ~walked ~passed idx
             rebuilt ~k ~l)
      done;
      incr total_checks;
      let ls = Array.init 6 (fun i -> float_of_int i *. l_max /. 5.0) in
      let one_shot =
        Find_cluster.max_sizes (Space.restrict space (Array.of_list (members ()))) ~ls
      in
      if Array.map (fun l -> Index.max_size idx ~l) ls <> one_shot then
        fail_case prop case "event %d: max_sizes vector diverged" event;
      incr total_checks;
      if Array.map (direct_max_size space (members ())) ls <> one_shot then
        fail_case prop case "event %d: max_sizes vector differs from a direct count" event
    done
  in
  for case = 0 to cases - 1 do
    let rng = case_rng case in
    let n = 8 + Rng.int rng 17 in
    let space =
      if Rng.bool rng then tree_metric_space rng n
      else noisy_space rng ~sigma:(0.1 +. Rng.float rng 0.4) n
    in
    sequence case rng n space
  done;
  for case = 0 to cases - 1 do
    let rng = case_rng (800_000 + case) in
    let n = 8 + Rng.int rng 17 in
    sequence (cases + case) rng n (tie_space rng n)
  done;
  Printf.printf
    "%s: %d sequences (%d tie-heavy), %d events, %d checks, %d finds ended in the walk and %d \
     in the pass, 0 divergences [ok]\n"
    prop (2 * cases) cases !total_events !total_checks !walked !passed

(* ----- properties 2 & 3: Algorithm 1 vs the Bron-Kerbosch oracle ----- *)

(* thresholds placed mid-gap between distinct pairwise distances, so no
   float-rounding ambiguity about which pairs a threshold admits; the
   extremes probe the trivially-infeasible and trivially-feasible ends *)
let midgap_thresholds values =
  let sorted = Array.copy values in
  Array.sort Float.compare sorted;
  let n = Array.length sorted in
  let out = ref [ sorted.(0) *. 0.5; sorted.(n - 1) *. 1.5 ] in
  for i = 0 to n - 2 do
    let a = sorted.(i) and b = sorted.(i + 1) in
    if b -. a > 1e-7 *. b then out := ((a +. b) /. 2.0) :: !out
  done;
  Array.of_list (List.rev !out)

let oracle_tree () =
  let prop = "alg1-oracle-tree" in
  let n_cases = Stdlib.max 1 (cases / 2) in
  let queries = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng (100_000 + case) in
    let n = 6 + Rng.int rng 7 in
    let space = tree_metric_space rng n in
    let thresholds = midgap_thresholds (off_diag_values space) in
    for _ = 1 to 12 do
      incr queries;
      let k = 2 + Rng.int rng (n - 1) in
      let l = thresholds.(Rng.int rng (Array.length thresholds)) in
      let alg1 = Find_cluster.find space ~k ~l <> None in
      match Clique.exists_cluster space ~k ~l with
      | Clique.Feasible _ ->
          if not alg1 then
            fail_case prop case "k=%d l=%.9g: oracle feasible, Algorithm 1 missed" k l
      | Clique.Infeasible ->
          if alg1 then
            fail_case prop case
              "k=%d l=%.9g: Algorithm 1 claims a cluster on an exact tree metric the \
               oracle refutes"
              k l
      | Clique.Unknown -> ()
    done
  done;
  Printf.printf "%s: %d cases, %d queries, 0 disagreements [ok]\n" prop n_cases !queries

let oracle_noisy () =
  let prop = "alg1-oracle-noisy" in
  let n_cases = Stdlib.max 1 (cases / 2) in
  let queries = ref 0 and one_sided = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng (200_000 + case) in
    let n = 6 + Rng.int rng 7 in
    let space = noisy_space rng ~sigma:(0.2 +. Rng.float rng 0.3) n in
    let thresholds = midgap_thresholds (off_diag_values space) in
    for _ = 1 to 12 do
      incr queries;
      let k = 2 + Rng.int rng (n - 1) in
      let l = thresholds.(Rng.int rng (Array.length thresholds)) in
      let alg1 = Find_cluster.find space ~k ~l <> None in
      match Clique.exists_cluster space ~k ~l with
      | Clique.Feasible _ ->
          (* Algorithm 1 is complete on every metric: the diameter pair
             (p,q) of a real cluster admits all its members into S*_pq *)
          if not alg1 then
            fail_case prop case
              "k=%d l=%.9g: oracle feasible but Algorithm 1 missed — disagreement in \
               the forbidden direction"
              k l
      | Clique.Infeasible -> if alg1 then incr one_sided
      | Clique.Unknown -> ()
    done
  done;
  Printf.printf "%s: %d cases, %d queries (%d one-sided), 0 forbidden [ok]\n" prop
    n_cases !queries !one_sided

(* ----- property 4: happens-before DAG facts under random faults ----- *)

module Fault = Bwc_sim.Fault
module Protocol = Bwc_core.Protocol
module Ensemble = Bwc_predtree.Ensemble
module Trace = Bwc_obs.Trace
module Causal = Bwc_obs.Causal

let causal_dag () =
  let prop = "causal-dag" in
  let n_cases = Stdlib.max 1 (cases / 10) in
  let msgs_total = ref 0 and edges_total = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng (300_000 + case) in
    let n = 12 + Rng.int rng 13 in
    let ds =
      Bwc_dataset.Planetlab.generate ~rng:(Rng.split rng) ~name:"prop-ds"
        { Bwc_dataset.Planetlab.hp_target with n }
    in
    let space = Bwc_dataset.Dataset.metric ds in
    let classes = Bwc_core.Classes.of_percentiles ~count:4 ds in
    let metrics = Bwc_obs.Registry.create () in
    let trace = Trace.create () in
    let drop = Rng.float rng 0.3 and duplicate = Rng.float rng 0.2 in
    let jitter = Rng.int rng 3 in
    let crashes =
      List.filter_map
        (fun host ->
          if Rng.float rng 1.0 < 0.1 then begin
            let down_from = 2 + Rng.int rng 6 in
            Some
              {
                Fault.node = host;
                down_from;
                up_at = down_from + 2 + Rng.int rng 4;
              }
          end
          else None)
        (List.init (n - 1) (fun i -> i + 1))
    in
    let faults =
      Fault.create ~drop ~duplicate ~jitter ~crashes ~metrics
        ~rng:(Rng.split rng) ()
    in
    let ens = Ensemble.build ~rng:(Rng.split rng) ~metrics space in
    let p =
      Protocol.create ~rng:(Rng.split rng) ~n_cut:3 ~faults ~metrics ~trace
        ~classes ens
    in
    let (_ : int) = Protocol.run_aggregation ~max_rounds:300 p in
    if Trace.of_jsonl (Trace.to_jsonl trace) <> Ok (Trace.events trace) then
      fail_case prop case "trace JSONL does not parse back to its events";
    let dag = Causal.reconstruct (Trace.events trace) in
    if dag.Causal.unmatched_delivers <> [] then
      fail_case prop case "%d delivers without a visible send"
        (List.length dag.Causal.unmatched_delivers);
    let by_id = Hashtbl.create 256 in
    List.iter
      (fun (m : Causal.msg_info) -> Hashtbl.replace by_id m.m_id m)
      dag.Causal.msgs;
    List.iter
      (fun (m : Causal.msg_info) ->
        incr msgs_total;
        if m.m_send_lc < 1 then
          fail_case prop case "msg %d: send lc %d < 1" m.m_id m.m_send_lc;
        (match (m.m_deliver_round, m.m_deliver_lc) with
        | Some dr, Some dlc ->
            if dr < m.m_send_round then
              fail_case prop case "msg %d: delivered round %d < send round %d"
                m.m_id dr m.m_send_round;
            if dlc <= m.m_send_lc then
              fail_case prop case
                "msg %d: deliver lc %d <= send lc %d (Lamport violates HB)"
                m.m_id dlc m.m_send_lc
        | None, None -> ()
        | _ -> fail_case prop case "msg %d: half-recorded delivery" m.m_id);
        match m.m_pred with
        | None ->
            if m.m_chain <> 1 then
              fail_case prop case "msg %d: rootless chain length %d" m.m_id
                m.m_chain
        | Some pid -> (
            (* pred ids are strictly smaller: edges point backwards in
               send order, so the reconstructed DAG cannot have a cycle *)
            if pid >= m.m_id then
              fail_case prop case "msg %d: pred %d not strictly earlier"
                m.m_id pid;
            incr edges_total;
            match Hashtbl.find_opt by_id pid with
            | None -> fail_case prop case "msg %d: pred %d unknown" m.m_id pid
            | Some pred -> (
                if m.m_chain <> pred.m_chain + 1 then
                  fail_case prop case "msg %d: chain %d <> pred chain %d + 1"
                    m.m_id m.m_chain pred.m_chain;
                if pred.m_dst <> m.m_src then
                  fail_case prop case
                    "msg %d from %d: pred %d was delivered at %d" m.m_id
                    m.m_src pid pred.m_dst;
                match (pred.m_deliver_round, pred.m_deliver_lc) with
                | Some pdr, Some pdlc ->
                    if pdr > m.m_send_round then
                      fail_case prop case
                        "msg %d: pred %d delivered round %d > send round %d"
                        m.m_id pid pdr m.m_send_round;
                    if pdlc >= m.m_send_lc then
                      fail_case prop case
                        "msg %d: pred %d deliver lc %d >= send lc %d" m.m_id
                        pid pdlc m.m_send_lc
                | _ ->
                    fail_case prop case "msg %d: pred %d never delivered"
                      m.m_id pid)))
      dag.Causal.msgs
  done;
  Printf.printf "%s: %d cases, %d messages, %d causal edges, all HB facts hold [ok]\n"
    prop n_cases !msgs_total !edges_total

(* 5. daemon-replay — the reactor behind bwclusterd is a pure function
   of (seed, script): running the same random request script through
   two freshly built reactors yields byte-identical transcripts AND
   byte-identical trace JSONL, and every well-formed request resolves
   to exactly one typed response (answer, ack, shed, timeout, or
   rejection — never a silent drop). *)

module Reactor = Bwc_daemon.Reactor
module Script = Bwc_daemon.Script
module Wire = Bwc_daemon.Wire

(* A random request script over an [n]-host system: queries, gossip,
   churn, stray and malformed lines, a few per tick. *)
let daemon_script rng =
  let n = 10 + Rng.int rng 8 in
  let ticks = 4 + Rng.int rng 8 in
  let per_tick = 2 + Rng.int rng 6 in
  let script =
    List.concat
      (List.init ticks (fun at ->
           List.init per_tick (fun i ->
               let id = Printf.sprintf "r%d_%d" at i in
               let line =
                 match Rng.int rng 12 with
                 | 0 | 1 | 2 | 3 ->
                     Printf.sprintf "QUERY %s k=%d b=%f deadline=%d" id
                       (2 + Rng.int rng 3)
                       (1. +. Rng.float rng 40.)
                       (4 + Rng.int rng 20)
                 | 4 | 5 | 6 | 7 ->
                     Printf.sprintf "MEAS %s src=%d dst=%d bw=%f" id
                       (Rng.int rng n) (Rng.int rng n)
                       (1. +. Rng.float rng 80.)
                 | 8 -> Printf.sprintf "JOIN %s host=%d" id (Rng.int rng n)
                 | 9 -> Printf.sprintf "LEAVE %s host=%d" id (Rng.int rng n)
                 | 10 -> Printf.sprintf "PING stray=%s" id
                 | _ -> Printf.sprintf "BOGUS %s" id
               in
               Script.line ~at ~conn:(Rng.int rng 3) line)))
  in
  (n, ticks, script)

let daemon_config sys_seed =
  {
    Reactor.default_config with
    Reactor.ingest_fail = 0.2;
    stabilize_budget = 2;
    seed = sys_seed;
  }

let daemon_system ~sys_seed n =
  let dataset =
    Bwc_dataset.Planetlab.generate ~rng:(Rng.create sys_seed)
      ~name:"prop-daemon" { Bwc_dataset.Planetlab.hp_target with n }
  in
  Bwc_core.Dynamic.create ~seed:sys_seed dataset

let daemon_replay () =
  let prop = "daemon-replay" in
  let n_cases = Stdlib.max 1 (cases / 20) in
  let requests_total = ref 0 in
  let responses_total = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng case in
    let n, _, script = daemon_script rng in
    let sys_seed = (seed * 7) + case in
    let config = daemon_config sys_seed in
    let run () =
      let trace = Bwc_obs.Trace.create () in
      let reactor = Reactor.create ~trace config (daemon_system ~sys_seed n) in
      let events = Script.run reactor script in
      if not (Reactor.drained reactor) then
        fail_case prop case "reactor failed to drain";
      let jsonl = Trace.to_jsonl trace in
      if Trace.of_jsonl jsonl <> Ok (Trace.events trace) then
        fail_case prop case "trace JSONL does not parse back to its events";
      (events, Script.transcript events, jsonl)
    in
    let events, t1, tr1 = run () in
    let _, t2, tr2 = run () in
    if not (String.equal t1 t2) then
      fail_case prop case "replay transcripts differ (%d vs %d bytes)"
        (String.length t1) (String.length t2);
    if not (String.equal tr1 tr2) then
      fail_case prop case "replay traces differ (%d vs %d bytes)"
        (String.length tr1) (String.length tr2);
    (* 1:1 accounting: every request id gets exactly one response *)
    let counts = Hashtbl.create 64 in
    List.iter
      (fun (e : Script.event) ->
        match e.Script.response with
        | Wire.Answer { id; _ }
        | Wire.Acked { id; _ }
        | Wire.Shed { id; _ }
        | Wire.Timeout { id; _ }
        | Wire.Rejected { id; _ } ->
            incr responses_total;
            Hashtbl.replace counts id
              (1 + Option.value ~default:0 (Hashtbl.find_opt counts id))
        | _ -> ())
      events;
    List.iter
      (fun (e : Script.entry) ->
        match String.split_on_char ' ' e.Script.line with
        | verb :: id :: _
          when List.mem verb [ "QUERY"; "MEAS"; "JOIN"; "LEAVE" ] -> (
            incr requests_total;
            match Hashtbl.find_opt counts id with
            | Some 1 -> ()
            | Some k -> fail_case prop case "request %s answered %d times" id k
            | None -> fail_case prop case "request %s silently dropped" id)
        | _ -> ())
      script
  done;
  Printf.printf
    "%s: %d cases, %d requests, %d typed responses, replays byte-identical [ok]\n"
    prop n_cases !requests_total !responses_total

(* 6. json-roundtrip — every value printed by Bwc_json, compact or in
   the rows layout, parses back to a value that prints to the same
   bytes.  Values cover strings over all 256 bytes (keys too), ints out
   to min_int/max_int, finite fixed-decimals numbers of any magnitude
   and precision, and nested lists and objects. *)

let json_roundtrip () =
  let prop = "json-roundtrip" in
  let module J = Bwc_json in
  let gen_string rng = String.init (Rng.int rng 12) (fun _ -> Char.chr (Rng.int rng 256)) in
  let gen_int rng =
    match Rng.int rng 4 with
    | 0 -> min_int
    | 1 -> max_int
    | 2 -> Int64.to_int (Rng.bits64 rng)
    | _ -> Rng.int rng 2001 - 1000
  in
  let rec gen_float rng =
    let f =
      if Rng.bool rng then Int64.float_of_bits (Rng.bits64 rng)
      else Rng.uniform rng (-1e4) 1e4
    in
    if Float.is_finite f then f else gen_float rng
  in
  let rec gen rng depth =
    match Rng.int rng (if depth >= 4 then 5 else 7) with
    | 0 -> J.Null
    | 1 -> J.Bool (Rng.bool rng)
    | 2 -> J.Int (gen_int rng)
    | 3 -> J.Num (gen_float rng, Rng.int rng 10)
    | 4 -> J.Str (gen_string rng)
    | k -> container rng k depth
  and container rng k depth =
    let items () = List.init (Rng.int rng 5) (fun _ -> gen rng (depth + 1)) in
    if k = 5 then J.Arr (items ())
    else J.Obj (List.map (fun v -> (gen_string rng, v)) (items ()))
  in
  let bytes = ref 0 in
  for case = 0 to cases - 1 do
    let rng = case_rng (400_000 + case) in
    (* mostly containers at the top, where the rows layout differs *)
    let v = if Rng.int rng 4 = 0 then gen rng 0 else container rng (5 + Rng.int rng 2) 0 in
    List.iter
      (fun (layout, print) ->
        let s = print v in
        bytes := !bytes + String.length s;
        match J.of_string s with
        | Error e -> fail_case prop case "%s rendering does not parse: %s" layout e
        | Ok v' ->
            let s' = print v' in
            if not (String.equal s s') then
              fail_case prop case "%s reprint differs (%d vs %d bytes)" layout
                (String.length s) (String.length s'))
      [ ("compact", J.to_string); ("rows", J.to_rows) ]
  done;
  Printf.printf "%s: %d values, %d bytes, both layouts reprint byte-identical [ok]\n"
    prop cases !bytes

(* 7. snapshot-anywhere — a daemon may write its image after any tick,
   mid-churn-storm included.  Over daemon-replay scripts (half of them
   with a JOIN and a LEAVE on every tick under a backlog bound that
   degrades the reactor), the writer encodes its system after every
   tick, and:
   - every image decodes, and re-encoding the decoded system gives the
     same bytes;
   - its slot table holds each distinct node info once (no two entries
     bit-equal), numbered in first-reference order;
   - a reactor booted from the image, ticked until it is no longer
     dirty, answers a fixed probe set (index queries, and live queries
     with an explicit [at]) exactly as the writer's system does once
     its own aggregation has converged;
   - snapshots never perturb the writer: its transcript equals the same
     script run without them. *)

let snapshot_anywhere () =
  let prop = "snapshot-anywhere" in
  let module Dynamic = Bwc_core.Dynamic in
  let module Snapshot = Bwc_persist.Snapshot in
  let n_cases = Stdlib.max 1 (cases / 20) in
  let images_total = ref 0 and probes_total = ref 0 and slots_total = ref 0 in
  let storms = ref 0 and degraded_ticks = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng (500_000 + case) in
    let n, ticks, script = daemon_script rng in
    let storm = case mod 2 = 1 in
    let script =
      if not storm then script
      else begin
        incr storms;
        script
        @ List.concat
            (List.init ticks (fun at ->
                 let churn conn verb tag =
                   Script.line ~at ~conn
                     (Printf.sprintf "%s %s%d host=%d" verb tag at (Rng.int rng n))
                 in
                 [ churn 0 "JOIN" "s"; churn 1 "LEAVE" "t" ]))
      end
    in
    let sys_seed = (seed * 11) + case in
    let config =
      let config = daemon_config sys_seed in
      if storm then { config with Reactor.work_budget = 2; degrade_backlog = 3 } else config
    in
    let fresh () = Reactor.create config (daemon_system ~sys_seed n) in
    (* Script.run, one tick at a time: [after k r] runs after the k-th
       tick; [stop] ends the run after that tick *)
    let drive ?stop ~after reactor =
      let entries =
        List.stable_sort (fun a b -> compare a.Script.at b.Script.at) script
      in
      let horizon = List.fold_left (fun acc e -> Stdlib.max acc e.Script.at) 0 entries in
      let events = ref [] and k = ref 0 in
      let push now =
        List.iter (fun (o : Reactor.output) ->
            events :=
              { Script.tick = now; conn = o.Reactor.conn; response = o.Reactor.response }
              :: !events)
      in
      let tick now =
        push now (Reactor.tick reactor ~now);
        incr k;
        after !k reactor;
        if stop = Some !k then raise Exit
      in
      (try
         for now = 0 to horizon do
           List.iter
             (fun (e : Script.entry) ->
               if e.Script.at = now then
                 push now
                   (Reactor.handle_line reactor ~now ~conn:e.Script.conn e.Script.line))
             entries;
           tick now
         done;
         Reactor.drain reactor ~now:horizon;
         let now = ref horizon in
         while (not (Reactor.drained reactor)) && !now - horizon < 1000 do
           incr now;
           tick !now
         done
       with Exit -> ());
      List.rev !events
    in
    let images = ref [] in
    let written =
      drive (fresh ())
        ~after:(fun _ r ->
          if Reactor.mode r = Reactor.Degraded then incr degraded_ticks;
          images := Snapshot.encode (`Dynamic (Reactor.system r)) :: !images)
    in
    let plain = Script.run (fresh ()) script in
    if not (String.equal (Script.transcript written) (Script.transcript plain)) then
      fail_case prop case "snapshots perturbed the writer's transcript";
    (* tick a fresh reactor over [dyn] until it is no longer dirty *)
    let converge dyn =
      let r = Reactor.create config dyn in
      let rec go now =
        if now > 2000 then fail_case prop case "booted reactor never converged";
        let (_ : Reactor.output list) = Reactor.tick r ~now in
        if Reactor.staleness r ~now > 0 then go (now + 1)
      in
      go 1
    in
    let probe dyn =
      let bs = [ 5.0; 15.0; 30.0 ] and ks = [ 2; 3 ] in
      let index =
        List.concat_map
          (fun k -> List.map (fun b -> Dynamic.query_centralized dyn ~k ~b) bs)
          ks
      in
      let live =
        List.concat_map
          (fun at ->
            List.concat_map
              (fun k ->
                List.map
                  (fun b -> (Dynamic.query dyn ~at ~k ~b).Bwc_core.Query.cluster)
                  bs)
              ks)
          (Dynamic.members dyn)
      in
      probes_total := !probes_total + List.length index + List.length live;
      (Dynamic.members dyn, index, live)
    in
    List.iteri
      (fun i image ->
        let k = List.length !images - i in
        incr images_total;
        match Snapshot.decode image with
        | Error e ->
            fail_case prop case "image after tick %d does not decode: %s" k
              (Bwc_persist.Codec.error_to_string e)
        | Ok restored ->
            if not (String.equal image (Snapshot.encode (`Dynamic restored))) then
              fail_case prop case "image after tick %d re-encodes differently" k;
            let keys = Array.to_list (Array.map Slot_table.key (Slot_table.read image)) in
            slots_total := !slots_total + List.length keys;
            if List.length (List.sort_uniq String.compare keys) <> List.length keys then
              fail_case prop case "image after tick %d: two slot-table entries are bit-equal" k;
            if keys <> Slot_table.first_references (Bwc_core.Protocol.dump (Dynamic.protocol restored))
            then
              fail_case prop case
                "image after tick %d: slot table is not its infos in first-reference order" k;
            converge restored;
            (* the writer as it was after tick k, replayed without snapshots *)
            let writer = ref None in
            let (_ : Script.event list) =
              drive (fresh ()) ~stop:k ~after:(fun j r ->
                  if j = k then writer := Some (Reactor.system r))
            in
            let writer = Option.get !writer in
            let (_ : int) = Bwc_core.Protocol.run_aggregation (Dynamic.protocol writer) in
            if probe restored <> probe writer then
              fail_case prop case "booted from the image after tick %d, answers differ from the writer" k)
      !images
  done;
  Printf.printf
    "%s: %d cases (%d storms, %d degraded ticks), %d images (%d node-info slots, none bit-equal to another), %d probes, every image restores and answers as the writer [ok]\n"
    prop n_cases !storms !degraded_ticks !images_total !slots_total !probes_total

(* 8. cached-space — every node keeps its clustering space V_x, with the
   pairwise label distances, across rounds, and drops it wherever V_x
   may change.  Over seeded systems with a failure detector, random
   interleavings of rounds, mark_all_dirty, JOINs (a slot through
   refresh_topology) and LEAVEs (an eviction through repair), also while
   a crash awaits its eviction, crashes the detector turns into
   evictions (repair, relink, regrafts), and live queries at random
   members, some of them before a node's first step, check at every
   round boundary:
   (a) every live answer equals the answer of
       Protocol.of_dump (Protocol.dump t), whose nodes start without a
       cached space;
   (b) every node the dump marks clean holds the own CRT row an
       Index.max_size oracle gives per class, over its clustering space
       rebuilt from the dump as the node plus every host in its
       aggrNode tables;
   (c) a dump in which one node's link list misses one link, or has two
       links swapped, is refused by Protocol.of_dump; the boundary's
       index picks the link and the edit;
   and at the end of every case, bounded rounds evict every crashed host
   that is still a member (a membership move must not restart it). *)

module Classes = Bwc_core.Classes
module Node_info = Bwc_core.Node_info
module Framework = Bwc_predtree.Framework
module Anchor = Bwc_predtree.Anchor

(* Index.max_size per class over a host and the infos it aggregated *)
let own_row ens classes host aggregated =
  let self = Node_info.make ~host ~labels:(Ensemble.labels ens host) in
  let infos =
    List.fold_left
      (fun acc (i : Node_info.t) ->
        if List.exists (fun (j : Node_info.t) -> j.host = i.host) acc then acc else i :: acc)
      [] (self :: aggregated)
    |> List.rev |> Array.of_list
  in
  let space =
    Space.make ~n:(Array.length infos) ~dist:(fun i j ->
        if i = j then 0.0 else Node_info.dist infos.(i) infos.(j))
  in
  let idx = Index.build (Space.cached space) in
  Array.map (fun l -> Index.max_size idx ~l) (Classes.distances classes)

(* a link's aggrNode table, empty until an update arrived *)
let aggr_node (l : Protocol.link_dump) =
  match l.l_delivered with Some u -> u.u_aggr_node | None -> []

let own_row_oracle ens classes (nd : Protocol.node_dump) =
  own_row ens classes nd.nd_id (List.concat_map aggr_node nd.nd_links)

let cached_space () =
  let prop = "cached-space" in
  let n_cases = Stdlib.max 1 (cases / 10) in
  let boundaries = ref 0 and answers = ref 0 and rows = ref 0 in
  let queries = ref 0 and moves = ref 0 and moves_awaiting = ref 0 in
  let crashes = ref 0 and evictions = ref 0 and refused = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng (700_000 + case) in
    let n = 12 + Rng.int rng 29 in
    let ds =
      Bwc_dataset.Planetlab.generate ~rng:(Rng.split rng) ~name:"prop-space"
        { Bwc_dataset.Planetlab.hp_target with n }
    in
    let classes = Classes.of_percentiles ~count:4 ds in
    let n_classes = Classes.count classes in
    let ens =
      Ensemble.build ~rng:(Rng.split rng)
        ~members:(List.init (n - 1 - Rng.int rng 3) Fun.id)
        (Bwc_dataset.Dataset.metric ds)
    in
    let p =
      Protocol.create ~rng:(Rng.split rng) ~n_cut:(2 + Rng.int rng 4)
        ~detector:Bwc_core.Detector.default_config ~classes ens
    in
    let crashed = ref [] and awaiting = ref [] in
    let live_query t ~at ~k ~cls =
      let r = Protocol.query t ~at ~k ~cls in
      (r.Bwc_core.Query.cluster, r.Bwc_core.Query.path)
    in
    let check_boundary () =
      incr boundaries;
      let d = Protocol.dump p in
      let restored = Protocol.of_dump ~classes ens d in
      List.iter
        (fun at ->
          for cls = 0 to n_classes - 1 do
            List.iter
              (fun k ->
                incr answers;
                if live_query p ~at ~k ~cls <> live_query restored ~at ~k ~cls then
                  fail_case prop case
                    "round %d: query at %d k=%d class %d differs from the restored copy"
                    (Protocol.rounds_run p) at k cls)
              [ 2; 3; 5 ]
          done)
        (Ensemble.members ens);
      List.iter
        (fun (nd : Protocol.node_dump) ->
          if not nd.nd_dirty then begin
            incr rows;
            if nd.nd_own_row <> own_row_oracle ens classes nd then
              fail_case prop case "round %d: clean node %d holds a stale own row"
                (Protocol.rounds_run p) nd.nd_id
          end)
        d.Protocol.d_nodes;
      (* the boundary's index picks the link and the edit, so the case
         rng draws what it drew before *)
      let links =
        List.concat_map
          (fun (nd : Protocol.node_dump) -> List.mapi (fun i _ -> (nd.nd_id, i)) nd.nd_links)
          d.Protocol.d_nodes
      in
      if links <> [] then begin
        let x, i = List.nth links (!boundaries mod List.length links) in
        let edit (nd : Protocol.node_dump) =
          let count = List.length nd.nd_links in
          if nd.nd_id <> x then nd
          else if !boundaries mod 2 = 0 || count < 2 then
            { nd with nd_links = List.filteri (fun j _ -> j <> i) nd.nd_links }
          else
            (* link i and the next one change places *)
            let k = (i + 1) mod count and nth = List.nth nd.nd_links in
            let swap j l = if j = i then nth k else if j = k then nth i else l in
            { nd with nd_links = List.mapi swap nd.nd_links }
        in
        match
          Protocol.of_dump ~classes ens { d with Protocol.d_nodes = List.map edit d.d_nodes }
        with
        | exception Invalid_argument _ -> incr refused
        | (_ : Protocol.t) ->
            fail_case prop case "round %d: a dump with %d's link %d dropped or moved restored"
              (Protocol.rounds_run p) x i
      end
    in
    let events = 40 + Rng.int rng 40 in
    for _ = 1 to events do
      let members = Array.of_list (Ensemble.members ens) in
      match Rng.int rng 20 with
      | 0 -> Protocol.mark_all_dirty p
      | 1 | 2 ->
          (* JOIN or LEAVE, also while a crash awaits its eviction *)
          incr moves;
          awaiting := List.filter (Ensemble.is_member ens) !awaiting;
          if !awaiting <> [] then incr moves_awaiting;
          let outs =
            List.filter (fun h -> not (Ensemble.is_member ens h)) (List.init n Fun.id)
          in
          if outs <> [] && (Array.length members <= 8 || Rng.bool rng) then begin
            (* an evicted victim may rejoin, alive *)
            Ensemble.add_host ~rng ens (Rng.choose rng (Array.of_list outs));
            Protocol.refresh_topology p
          end
          else Protocol.repair p ~dead:[ Rng.choose rng members ]
      | 3 when List.length !crashed < 2 ->
          (* a non-root member away from earlier victims *)
          let anchor = Framework.anchor (Ensemble.primary ens) in
          let near h x =
            x = h || Anchor.parent anchor x = Some h || Anchor.parent anchor h = Some x
          in
          let eligible =
            List.filter
              (fun h ->
                Anchor.parent anchor h <> None
                && not (List.exists (fun x -> near h x) !crashed))
              (Array.to_list members)
          in
          if eligible <> [] then begin
            let victim = Rng.choose rng (Array.of_list eligible) in
            crashed := victim :: !crashed;
            awaiting := victim :: !awaiting;
            incr crashes;
            Protocol.crash_host p victim
          end
      | 4 | 5 | 6 | 7 | 8 ->
          incr queries;
          let (_ : Bwc_core.Query.result) =
            Protocol.query p ~at:(Rng.choose rng members) ~k:(2 + Rng.int rng 4)
              ~cls:(Rng.int rng n_classes)
          in
          ()
      | _ ->
          let (_ : bool) = Protocol.run_round p in
          check_boundary ()
    done;
    (* no membership move restarted a crashed host: the detector evicts
       every one *)
    let rounds = ref 0 in
    while List.exists (Ensemble.is_member ens) !awaiting do
      incr rounds;
      if !rounds > 200 then
        fail_case prop case "a crashed member is still a member after %d rounds" 200;
      ignore (Protocol.run_round p : bool)
    done;
    evictions := !evictions + Protocol.repairs_run p
  done;
  Printf.printf
    "%s: %d cases, %d round boundaries, %d JOIN/LEAVE (%d while a crash awaited its eviction), %d crashes all evicted, %d evictions, %d queries, %d answers and %d own rows match a restore and the oracle, %d dumps with one link dropped or two swapped refused [ok]\n"
    prop n_cases !boundaries !moves !moves_awaiting !crashes !evictions !queries !answers
    !rows !refused

(* 9. fixpoint-oracle — on a tree overlay the aggregation fixpoint is a
   recursion over directed edges, computed here from the ensemble alone
   (Ensemble.anchor_neighbors and Ensemble.labels), with no engine,
   messages, caches or repair:
   - prop(v->x): the n_cut hosts closest to x among v and every
     prop(w->v) for v's other neighbours w, candidates in Algorithm 2's
     order, sorted as it sorts them;
   - crt(v->x): the element-wise max of v's own row and every crt(w->v);
   - own(x): Index.max_size per class over x and every prop(v->x).
   Over tree and noisy metrics, with and without a failure detector and
   n_cut 2-10, random interleavings of JOIN (fresh and returning hosts,
   a slot through refresh_topology), LEAVE (an eviction through repair,
   as a repair by hand is), a LEAVE and a JOIN of one host with no round
   between (a host without dependents is placed afresh, with a new
   label), crash and mark_all_dirty run to quiescence
   after every event (a crash first runs rounds until the detector has
   evicted the host, or is repaired by hand without one), and at every
   quiescent
   point each member's aggrNode tables, own row and aggrCRT columns in
   Protocol.dump equal the oracle's. *)

let fixpoint ens classes ~n_cut =
  let info h = Node_info.make ~host:h ~labels:(Ensemble.labels ens h) in
  let memo tbl key f =
    match Hashtbl.find_opt tbl key with
    | Some v -> v
    | None ->
        let v = f () in
        Hashtbl.replace tbl key v;
        v
  in
  let props = Hashtbl.create 64 and crts = Hashtbl.create 64 and owns = Hashtbl.create 64 in
  let rec prop v x =
    memo props (v, x) (fun () ->
        let seen = Hashtbl.create 32 and acc = ref [] in
        let consider (i : Node_info.t) =
          if i.host <> x && not (Hashtbl.mem seen i.host) then begin
            Hashtbl.add seen i.host ();
            acc := i :: !acc
          end
        in
        consider (info v);
        List.iter
          (fun w -> if w <> x then List.iter consider (prop w v))
          (Ensemble.anchor_neighbors ens v);
        let rx = info x in
        let cand = Array.of_list (List.map (fun i -> (Node_info.dist rx i, i)) !acc) in
        Array.sort (fun (a, _) (b, _) -> Float.compare a b) cand;
        List.init (Stdlib.min n_cut (Array.length cand)) (fun i -> snd cand.(i)))
  and own x =
    memo owns x (fun () ->
        own_row ens classes x
          (List.concat_map (fun v -> prop v x) (Ensemble.anchor_neighbors ens x)))
  and crt v x =
    memo crts (v, x) (fun () ->
        let out = Array.copy (own v) in
        List.iter
          (fun w ->
            if w <> x then Array.iteri (fun i c -> if c > out.(i) then out.(i) <- c) (crt w v))
          (Ensemble.anchor_neighbors ens v);
        out)
  in
  (prop, own, crt)

let fixpoint_oracle () =
  let prop_name = "fixpoint-oracle" in
  let n_cases = Stdlib.max 1 (cases / 10) in
  let with_detector = ref 0 and points = ref 0 and checked = ref 0 in
  let fresh = ref 0 and returning = ref 0 and leaves = ref 0 in
  let crashes = ref 0 and dirtied = ref 0 and replaced = ref 0 in
  for case = 0 to n_cases - 1 do
    let rng = case_rng (800_000 + case) in
    let n = 10 + Rng.int rng 21 in
    let ds =
      let tree =
        Bwc_dataset.Hier_tree.generate ~rng:(Rng.split rng) ~n ~name:"prop-fixpoint" ()
      in
      if case mod 2 = 0 then tree
      else Bwc_dataset.Noise.multiplicative ~rng:(Rng.split rng) ~sigma:0.3 tree
    in
    let classes = Classes.of_percentiles ~count:4 ds in
    let n_cut = 2 + Rng.int rng 9 in
    let detector =
      if case mod 4 < 2 then Some Bwc_core.Detector.default_config else None
    in
    if detector <> None then incr with_detector;
    let initial = n - 1 - Rng.int rng 3 in
    let ens =
      Ensemble.build ~rng:(Rng.split rng) ~members:(List.init initial Fun.id)
        (Bwc_dataset.Dataset.metric ds)
    in
    let p = Protocol.create ~rng:(Rng.split rng) ~n_cut ?detector ~classes ens in
    let ever = Array.init n (fun h -> h < initial) in
    let check what =
      let (_ : int) = Protocol.run_aggregation p in
      if not (Protocol.quiescent p) then
        fail_case prop_name case "%s: no quiescence after %d rounds" what (Protocol.rounds_run p);
      incr points;
      let prop, own, crt = fixpoint ens classes ~n_cut in
      List.iter
        (fun (nd : Protocol.node_dump) ->
          incr checked;
          let x = nd.nd_id in
          if List.map (fun (l : Protocol.link_dump) -> l.l_peer) nd.nd_links
             <> Ensemble.anchor_neighbors ens x
          then fail_case prop_name case "%s: node %d's links are not its neighbours" what x;
          List.iter
            (fun (l : Protocol.link_dump) ->
              let v = l.l_peer in
              match l.l_delivered with
              | None -> fail_case prop_name case "%s: node %d holds no update from %d" what x v
              | Some u ->
                  if List.map Slot_table.key u.u_aggr_node <> List.map Slot_table.key (prop v x)
                  then
                    fail_case prop_name case "%s: aggrNode[%d] at %d is not prop(%d->%d)" what v
                      x v x;
                  if u.u_aggr_crt <> crt v x then
                    fail_case prop_name case "%s: aggrCRT[%d] at %d is not crt(%d->%d)" what v x
                      v x)
            nd.nd_links;
          if nd.nd_own_row <> own x then
            fail_case prop_name case "%s: own row of %d differs from the oracle" what x)
        (Protocol.dump p).Protocol.d_nodes
    in
    check "converged";
    let events = 15 + Rng.int rng 15 in
    for event = 1 to events do
      let members = Array.of_list (Ensemble.members ens) in
      let what = Printf.sprintf "event %d" event in
      let many = Array.length members > 3 in
      (match Rng.int rng 6 with
      | 0 ->
          let outs = List.filter (fun h -> not (Ensemble.is_member ens h)) (List.init n Fun.id) in
          if outs <> [] then begin
            let h = Rng.choose rng (Array.of_list outs) in
            if ever.(h) then incr returning else incr fresh;
            ever.(h) <- true;
            Ensemble.add_host ~rng ens h;
            Protocol.refresh_topology p
          end
      | 1 | 3 when many ->
          incr leaves;
          Protocol.repair p ~dead:[ Rng.choose rng members ]
      | 5 when many ->
          incr replaced;
          let h = Rng.choose rng members in
          Protocol.repair p ~dead:[ h ];
          Ensemble.add_host ~rng ens h;
          Protocol.refresh_topology p
      | 2 when many ->
          incr crashes;
          let victim = Rng.choose rng members in
          Protocol.crash_host p victim;
          (match detector with
          | Some _ ->
              let rounds = ref 0 in
              while Ensemble.is_member ens victim do
                incr rounds;
                if !rounds > 200 then
                  fail_case prop_name case "%s: crashed %d never evicted" what victim;
                ignore (Protocol.run_round p : bool)
              done
          | None -> Protocol.repair p ~dead:[ victim ])
      | _ ->
          incr dirtied;
          Protocol.mark_all_dirty p);
      check what
    done
  done;
  Printf.printf
    "%s: %d cases (%d with a detector), %d fresh joins, %d returning, %d leaves, %d leave-rejoins, %d crashes, %d mark_all_dirty, %d quiescent points, %d node states equal the fixpoint [ok]\n"
    prop_name n_cases !with_detector !fresh !returning !leaves !replaced !crashes !dirtied
    !points !checked

(* 10. codec-oracle — Codec.W formats every token into its own bytes by
   hand, and Codec.seal builds the container in place with a
   slicing-by-8 CRC-32.  Over random token streams, the writer's image
   must equal, byte for byte, what a naive reference writer makes:
   Printf and ^ per token, in a container from Container.wrap, whose
   CRC-32 runs one bit at a time.  Ints come from the whole range (0,
   ±1, every power of ten ±1, max_int and min_int, random 63-bit
   values); counts go through W.array over units, the way lists and
   arrays write them; floats come from random 64-bit patterns, patterns
   with their low fraction digits cleared, subnormals, and ±0,
   ±infinity, NaN of both signs, the smallest and largest subnormal and
   max_float; strings hold any bytes, spaces and newlines included; one
   stream in eight is long enough to make the writer grow.  Then the
   image must pass Codec.decode and give the payload back, and Codec.R
   must read every token back, floats bit-exact (a NaN comes back as a
   NaN of the same sign: "%h" writes no NaN payload).  Codec.crc32 must
   match the bitwise CRC on every range of length 0 to 64 at offsets 0
   to 7 of a random string, and give the standard check value cbf43926
   on "123456789". *)

type token =
  | T_int of int
  | T_i64 of int64
  | T_float of float
  | T_bool of bool
  | T_str of string
  | T_tag of string
  | T_count of int

let reference_token = function
  | T_int v -> "i " ^ string_of_int v ^ "\n"
  | T_i64 v -> Printf.sprintf "I %Ld\n" v
  | T_float v -> Printf.sprintf "f %h\n" v
  | T_bool v -> if v then "b 1\n" else "b 0\n"
  | T_str s -> Printf.sprintf "s %d " (String.length s) ^ s ^ "\n"
  | T_tag name -> "# " ^ name ^ "\n"
  | T_count c -> "n " ^ string_of_int c ^ "\n"

let codec_oracle () =
  let prop = "codec-oracle" in
  let module Codec = Bwc_persist.Codec in
  let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
  let edge_ints =
    Array.of_list
      ([ 0; max_int; min_int; max_int - 1; min_int + 1 ]
      @ List.concat_map
          (fun k ->
            let p = pow10 k in
            [ p - 1; p; p + 1; 1 - p; -p; -p - 1 ])
          (List.init 19 Fun.id))
  in
  let edge_floats =
    let f = Int64.float_of_bits in
    let pos =
      [ 0.; infinity; Float.nan; f 0x7ff0_0000_0000_0001L; f 1L; f 0x000f_ffff_ffff_ffffL;
        Float.min_float; max_float; 1.; 1.5; 2.; 0.5; 0.1; Float.pi; 1e-300 ]
    in
    Array.of_list (pos @ List.map Float.neg pos)
  in
  let gen_int rng =
    match Rng.int rng 3 with
    | 0 -> Rng.choose rng edge_ints
    | 1 -> Int64.to_int (Rng.bits64 rng)
    | _ -> Rng.int rng 2000 - 1000
  in
  let gen_float rng =
    let bits = Rng.bits64 rng in
    match Rng.int rng 5 with
    | 0 -> Rng.choose rng edge_floats
    | 1 -> Int64.float_of_bits bits
    | 2 ->
        (* only the top fraction digits set: trailing zero digits to drop *)
        Int64.float_of_bits
          (Int64.logand bits (Int64.shift_left (-1L) (4 * Rng.int rng 14)))
    | 3 -> Int64.float_of_bits (Int64.logand bits 0x800f_ffff_ffff_ffffL)
    | _ -> Rng.uniform rng (-1e4) 1e4
  in
  let gen_string rng len =
    String.init len (fun _ ->
        match Rng.int rng 4 with
        | 0 -> ' '
        | 1 -> '\n'
        | _ -> Char.chr (Rng.int rng 256))
  in
  let gen_token rng =
    match Rng.int rng 8 with
    | 0 | 1 -> T_int (gen_int rng)
    | 2 | 3 -> T_float (gen_float rng)
    | 4 -> T_i64 (Rng.bits64 rng)
    | 5 -> T_bool (Rng.bool rng)
    | 6 ->
        if Rng.bool rng then T_str (gen_string rng (Rng.int rng 24))
        else T_tag (String.init (1 + Rng.int rng 12) (fun _ -> Char.chr (97 + Rng.int rng 26)))
    | _ -> T_count (Rng.int rng 400)
  in
  let write w = function
    | T_int v -> Codec.W.int w v
    | T_i64 v -> Codec.W.i64 w v
    | T_float v -> Codec.W.float w v
    | T_bool v -> Codec.W.bool w v
    | T_str s -> Codec.W.str w s
    | T_tag name -> Codec.W.tag w name
    | T_count c -> Codec.W.array w ignore (Array.make c ())
  in
  let same_float a b =
    if Float.is_nan a then Float.is_nan b && Bool.equal (Float.sign_bit a) (Float.sign_bit b)
    else Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  in
  let read_back r = function
    | T_int v -> Codec.R.int r = v
    | T_i64 v -> Int64.equal (Codec.R.i64 r) v
    | T_float v -> same_float (Codec.R.float r) v
    | T_bool v -> Bool.equal (Codec.R.bool r) v
    | T_str s -> String.equal (Codec.R.str r) s
    | T_tag name ->
        Codec.R.tag r name;
        true
    | T_count c -> Array.length (Codec.R.array r ignore) = c
  in
  let image_of case tokens =
    let w = Codec.W.create () in
    match
      List.iter (write w) tokens;
      Codec.seal w
    with
    | image -> image
    | exception e -> fail_case prop case "the writer raises %s" (Printexc.to_string e)
  in
  if Codec.crc32 "123456789" 0 9 <> 0xcbf43926 || Container.crc32 "123456789" <> 0xcbf43926
  then fail_case prop 0 "CRC-32 of \"123456789\" is not cbf43926";
  let tokens_total = ref 0 and floats = ref 0 and bytes = ref 0 and ranges = ref 0 in
  for case = 0 to cases - 1 do
    let rng = case_rng (900_000 + case) in
    let n = if case mod 8 = 7 then 6000 + Rng.int rng 2000 else Rng.int rng 300 in
    let tokens = List.init n (fun _ -> gen_token rng) in
    (* a long string now and then: one token larger than the writer's
       first buffer *)
    let tokens =
      if case mod 16 = 15 then T_str (gen_string rng (70_000 + Rng.int rng 70_000)) :: tokens
      else tokens
    in
    let payload = String.concat "" (List.map reference_token tokens) in
    let image = image_of case tokens in
    if not (String.equal image (Container.wrap payload)) then begin
      (* name the first token the writer gets wrong on its own *)
      List.iteri
        (fun i t ->
          let want = Container.wrap (reference_token t) and got = image_of case [ t ] in
          if not (String.equal got want) then
            fail_case prop case "token %d: writer %S, reference %S" i got want)
        tokens;
      fail_case prop case "image of %d tokens differs from the reference writer's" n
    end;
    (match Codec.decode image with
    | Ok p when String.equal p payload -> ()
    | Ok _ -> fail_case prop case "decode gives another payload back"
    | Error e -> fail_case prop case "decode refuses the image: %s" (Codec.error_to_string e));
    let r = Codec.R.create payload in
    List.iteri
      (fun i t ->
        match read_back r t with
        | true -> ()
        | false -> fail_case prop case "token %d reads back as another value" i
        | exception Codec.Error e ->
            fail_case prop case "token %d does not read back: %s" i (Codec.error_to_string e))
      tokens;
    (try Codec.R.eof r
     with Codec.Error e -> fail_case prop case "%s" (Codec.error_to_string e));
    let s = gen_string rng 72 in
    for off = 0 to 7 do
      for len = 0 to 64 do
        if Codec.crc32 s off len <> Container.crc32 (String.sub s off len) then
          fail_case prop case "crc32 at offset %d, length %d differs from the bitwise CRC" off
            len;
        incr ranges
      done
    done;
    tokens_total := !tokens_total + List.length tokens;
    floats :=
      !floats + List.length (List.filter (function T_float _ -> true | _ -> false) tokens);
    bytes := !bytes + String.length image
  done;
  Printf.printf
    "%s: %d streams, %d tokens (%d floats), %d image bytes equal the reference writer's and read back, %d CRC ranges match the bitwise CRC [ok]\n"
    prop cases !tokens_total !floats !bytes !ranges

(* 11. wire-oracle — Wire.parse reads a line in place and Wire.render
   writes into one buffer.  Over random lines, the reader must give the
   same result, request or error string, as the reference below: the
   list-based reader that split the line at spaces, trimmed each word
   and looked keys up in an assoc list.  Lines hold 0 to 40 words: every
   verb (and unknown ones), ids with and without '=', key=value words
   with the protocol's keys, unknown keys and an empty key, duplicate
   keys, '=' inside values, empty values, bare words, words of random
   bytes, words made only of tab, carriage return, newline or form
   feed, and any word may carry such bytes at its ends; words are
   separated by runs of spaces, with spaces before and after.  Values
   are decimal, signed, hex, octal, binary, underscored and overflowing
   ints, and floats with exponents, hex mantissas, nan, inf and 1e400.
   Over random responses of every constructor, the renderer must write
   what the reference Printf renderer writes: empty and long clusters,
   bounds, ints from the whole range (negative, min_int and max_int
   among them), and strings of any bytes. *)

let reference_parse line =
  let split_words line =
    String.split_on_char ' ' line
    |> List.filter_map (fun w ->
           let w = String.trim w in
           if w = "" then None else Some w)
  in
  let opt_assoc words =
    List.filter_map
      (fun w ->
        match String.index_opt w '=' with
        | Some i when i > 0 ->
            Some (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
        | Some _ | None -> None)
      words
  in
  let valid_id id = id <> "" && not (String.contains id '=') in
  let int_field fields key = Option.bind (List.assoc_opt key fields) int_of_string_opt in
  let float_field fields key = Option.bind (List.assoc_opt key fields) float_of_string_opt in
  match split_words line with
  | [] -> Error "empty line"
  | [ "PING" ] -> Ok Wire.Ping
  | [ "HEALTH" ] -> Ok Wire.Health
  | [ "STATS" ] -> Ok Wire.Stats
  | [ "SNAPSHOT" ] -> Ok Wire.Snapshot_req
  | [ "SHUTDOWN" ] -> Ok Wire.Shutdown
  | "QUERY" :: id :: rest when valid_id id -> (
      let fields = opt_assoc rest in
      match (int_field fields "k", float_field fields "b") with
      | Some k, Some b -> Ok (Wire.Query { id; k; b; deadline = int_field fields "deadline" })
      | _ -> Error "QUERY needs k=<int> b=<float> [deadline=<ticks>]")
  | "JOIN" :: id :: rest when valid_id id -> (
      match int_field (opt_assoc rest) "host" with
      | Some host -> Ok (Wire.Join { id; host })
      | None -> Error "JOIN needs host=<int>")
  | "LEAVE" :: id :: rest when valid_id id -> (
      match int_field (opt_assoc rest) "host" with
      | Some host -> Ok (Wire.Leave { id; host })
      | None -> Error "LEAVE needs host=<int>")
  | "MEAS" :: id :: rest when valid_id id -> (
      let fields = opt_assoc rest in
      match (int_field fields "src", int_field fields "dst", float_field fields "bw") with
      | Some src, Some dst, Some mbps -> Ok (Wire.Measure { id; src; dst; mbps })
      | _ -> Error "MEAS needs src=<int> dst=<int> bw=<float>")
  | verb :: _ -> Error (Printf.sprintf "unknown or malformed request %S" verb)

let reference_render = function
  | Wire.Pong -> "PONG"
  | Wire.Answer { id; cluster; hops; served; degraded; staleness; bounds } ->
      let members =
        match cluster with
        | None -> "none"
        | Some hosts -> String.concat "," (List.map string_of_int hosts)
      in
      let tail =
        match bounds with
        | None -> ""
        | Some (lo, hi) -> Printf.sprintf " lo=%d hi=%d" lo hi
      in
      Printf.sprintf "OK %s cluster=%s hops=%d served=%s degraded=%d staleness=%d%s" id
        members hops
        (match served with Wire.Live -> "live" | Wire.Index -> "index")
        (if degraded then 1 else 0)
        staleness tail
  | Wire.Acked { id; cls; applied } ->
      Printf.sprintf "ACK %s class=%s applied=%d" id cls (if applied then 1 else 0)
  | Wire.Shed { id; cls; reason } -> Printf.sprintf "SHED %s class=%s reason=%s" id cls reason
  | Wire.Timeout { id; waited; deadline } ->
      Printf.sprintf "TIMEOUT %s waited=%d deadline=%d" id waited deadline
  | Wire.Rejected { id; reason; attempts } ->
      Printf.sprintf "REJECTED %s reason=%s attempts=%d" id reason attempts
  | Wire.Health_report { mode; members; staleness; depth_churn; depth_query; depth_meas } ->
      Printf.sprintf "HEALTH mode=%s members=%d staleness=%d q_churn=%d q_query=%d q_meas=%d"
        mode members staleness depth_churn depth_query depth_meas
  | Wire.Stats_json json -> "STATS " ^ json
  | Wire.Snapshotting -> "SNAPSHOTTING"
  | Wire.Draining -> "DRAINING"
  | Wire.Parse_error { reason } -> "ERR " ^ reason

(* a parse result as text, floats by their bits, so that a nan equals
   itself *)
let show_parse = function
  | Error e -> Printf.sprintf "Error %S" e
  | Ok r -> (
      let f x = Printf.sprintf "%Lx" (Int64.bits_of_float x) in
      match r with
      | Wire.Ping -> "Ping"
      | Wire.Health -> "Health"
      | Wire.Stats -> "Stats"
      | Wire.Snapshot_req -> "Snapshot_req"
      | Wire.Shutdown -> "Shutdown"
      | Wire.Query { id; k; b; deadline } ->
          Printf.sprintf "Query %S k=%d b=%s deadline=%s" id k (f b)
            (match deadline with None -> "none" | Some d -> string_of_int d)
      | Wire.Join { id; host } -> Printf.sprintf "Join %S %d" id host
      | Wire.Leave { id; host } -> Printf.sprintf "Leave %S %d" id host
      | Wire.Measure { id; src; dst; mbps } ->
          Printf.sprintf "Measure %S %d %d %s" id src dst (f mbps))

let wire_oracle () =
  let prop = "wire-oracle" in
  let pick rng a = a.(Rng.int rng (Array.length a)) in
  let verbs =
    [| "PING"; "HEALTH"; "STATS"; "SNAPSHOT"; "SHUTDOWN"; "QUERY"; "JOIN"; "LEAVE"; "MEAS";
       "QUERY"; "MEAS"; "query"; "PINGS"; "QUER"; "BOGUS" |]
  in
  let keys = [| "k"; "b"; "deadline"; "host"; "src"; "dst"; "bw"; "kk"; "K"; "dead"; "" |] in
  let blanks = [| "\t"; "\r"; "\n"; "\012"; "\t\r"; "\r\n"; "\012\t" |] in
  let ints =
    [| "0"; "7"; "-3"; "+5"; "0x1f"; "-0x10"; "0o17"; "0b101"; "0u12"; "1_000"; "_1"; "1__2";
       "4611686018427387903"; "4611686018427387904"; "-4611686018427387904";
       "-4611686018427387905"; "99999999999999999999"; "0x7fffffffffffffff"; "12a"; "1.0";
       "" |]
  in
  let floats =
    [| "12.5"; "1"; "-2.25"; "+3"; ".5"; "5."; "1e3"; "1E-3"; "1e400"; "-1e400"; "1e-400";
       "nan"; "NaN"; "-nan"; "inf"; "-inf"; "infinity"; "0x1p3"; "0x1.8p-2"; "1_0.5"; "1e";
       "e5"; "1.5.2"; "" |]
  in
  let gen_bytes rng len = String.init len (fun _ -> Char.chr (Rng.int rng 256)) in
  let gen_name rng =
    String.init (1 + Rng.int rng 6) (fun _ -> "abcxyz019_-.".[Rng.int rng 12])
  in
  let gen_value rng =
    match Rng.int rng 8 with
    | 0 | 1 | 2 -> pick rng ints
    | 3 | 4 -> pick rng floats
    | 5 -> string_of_int (Rng.int rng 2000 - 1000)
    | 6 -> pick rng ints ^ "=" ^ pick rng floats
    | _ -> gen_bytes rng (Rng.int rng 4)
  in
  let gen_word rng =
    let w =
      match Rng.int rng 12 with
      | 0 | 1 | 2 | 3 | 4 -> pick rng keys ^ "=" ^ gen_value rng
      | 5 -> pick rng verbs
      | 6 -> gen_name rng
      | 7 -> gen_name rng ^ "=" ^ gen_name rng
      | 8 -> pick rng blanks
      | 9 -> gen_bytes rng (1 + Rng.int rng 5)
      | 10 -> "=" ^ gen_value rng
      | _ -> pick rng keys ^ "="
    in
    (* blank bytes at a word's ends, which trimming takes off *)
    let w = if Rng.int rng 5 = 0 then pick rng blanks ^ w else w in
    if Rng.int rng 5 = 0 then w ^ pick rng blanks else w
  in
  let gen_id rng =
    match Rng.int rng 6 with
    | 0 -> gen_name rng ^ "=" ^ gen_name rng
    | 1 -> pick rng blanks ^ gen_name rng
    | _ -> gen_name rng
  in
  (* a request's own keys in any order, each with a good value or a
     random one, among a few random words, and now and then a key
     twice *)
  let gen_request rng =
    let verb, fields =
      match Rng.int rng 4 with
      | 0 -> ("QUERY", [ ("k", `Int); ("b", `Float); ("deadline", `Int) ])
      | 1 -> ("JOIN", [ ("host", `Int) ])
      | 2 -> ("LEAVE", [ ("host", `Int) ])
      | _ -> ("MEAS", [ ("src", `Int); ("dst", `Int); ("bw", `Float) ])
    in
    let field (key, kind) =
      let good =
        match kind with
        | `Int -> string_of_int (Rng.int rng 200 - 20)
        | `Float -> Printf.sprintf "%g" (Rng.float rng 100.)
      in
      key ^ "=" ^ if Rng.int rng 5 = 0 then gen_value rng else good
    in
    let fields = Array.of_list fields in
    Rng.shuffle rng fields;
    let words =
      List.concat_map
        (fun f ->
          let extra = List.init (Rng.int rng 2) (fun _ -> gen_word rng) in
          let twice = if Rng.int rng 6 = 0 then [ field f ] else [] in
          extra @ (field f :: twice))
        (Array.to_list fields)
    in
    verb :: gen_id rng :: words
  in
  let gen_line rng =
    let words =
      match Rng.int rng 6 with
      | 0 -> List.init (Rng.int rng 41) (fun _ -> gen_word rng)
      | 1 -> [ pick rng verbs ]
      | 2 | 3 -> pick rng verbs :: gen_id rng :: List.init (Rng.int rng 39) (fun _ -> gen_word rng)
      | _ -> gen_request rng
    in
    let sep () = String.make (1 + (if Rng.int rng 4 = 0 then Rng.int rng 3 else 0)) ' ' in
    let edge () = if Rng.int rng 4 = 0 then String.make (1 + Rng.int rng 2) ' ' else "" in
    let body = List.fold_left (fun acc w -> if acc = "" then w else acc ^ sep () ^ w) "" words in
    edge () ^ body ^ edge ()
  in
  let rec pow10 k = if k = 0 then 1 else 10 * pow10 (k - 1) in
  let gen_int rng =
    match Rng.int rng 4 with
    | 0 -> (
        match Rng.int rng 4 with
        | 0 -> min_int
        | 1 -> max_int
        | 2 -> 0
        | _ ->
            let p = pow10 (Rng.int rng 19) in
            pick rng [| p; p - 1; -p; 1 - p |])
    | 1 -> Int64.to_int (Rng.bits64 rng)
    | _ -> Rng.int rng 2000 - 1000
  in
  let gen_str rng = if Rng.bool rng then gen_name rng else gen_bytes rng (Rng.int rng 8) in
  let gen_response rng =
    match Rng.int rng 11 with
    | 0 | 1 | 2 ->
        Wire.Answer
          {
            id = gen_str rng;
            cluster =
              (match Rng.int rng 4 with
              | 0 -> None
              | 1 -> Some []
              | _ -> Some (List.init (1 + Rng.int rng 15) (fun _ -> gen_int rng)));
            hops = gen_int rng;
            served = (if Rng.bool rng then Wire.Live else Wire.Index);
            degraded = Rng.bool rng;
            staleness = gen_int rng;
            bounds = (if Rng.bool rng then None else Some (gen_int rng, gen_int rng));
          }
    | 3 -> Wire.Acked { id = gen_str rng; cls = gen_str rng; applied = Rng.bool rng }
    | 4 -> Wire.Shed { id = gen_str rng; cls = gen_str rng; reason = gen_str rng }
    | 5 -> Wire.Timeout { id = gen_str rng; waited = gen_int rng; deadline = gen_int rng }
    | 6 -> Wire.Rejected { id = gen_str rng; reason = gen_str rng; attempts = gen_int rng }
    | 7 ->
        Wire.Health_report
          {
            mode = gen_str rng;
            members = gen_int rng;
            staleness = gen_int rng;
            depth_churn = gen_int rng;
            depth_query = gen_int rng;
            depth_meas = gen_int rng;
          }
    | 8 -> Wire.Stats_json (gen_str rng)
    | 9 -> Wire.Parse_error { reason = gen_str rng }
    | _ -> pick rng [| Wire.Pong; Wire.Snapshotting; Wire.Draining |]
  in
  let lines = ref 0 and requests = ref 0 and responses = ref 0 in
  for case = 0 to cases - 1 do
    let rng = case_rng (1_100_000 + case) in
    for _ = 1 to 200 do
      let line = gen_line rng in
      let got = show_parse (Wire.parse line) and want = show_parse (reference_parse line) in
      if not (String.equal got want) then
        fail_case prop case "line %S parses as %s, reference %s" line got want;
      incr lines;
      if Result.is_ok (Wire.parse line) then incr requests
    done;
    for _ = 1 to 100 do
      let r = gen_response rng in
      let got = Wire.render r and want = reference_render r in
      if not (String.equal got want) then
        fail_case prop case "a response renders as %S, reference %S" got want;
      incr responses
    done
  done;
  Printf.printf
    "%s: %d lines (%d requests) parse as the reference reader's, %d responses render as the reference renderer's [ok]\n"
    prop !lines !requests !responses

let () =
  Printf.printf "bwc property harness (seed %d, %d churn sequences)\n" seed cases;
  churn_differential ();
  oracle_tree ();
  oracle_noisy ();
  causal_dag ();
  daemon_replay ();
  json_roundtrip ();
  snapshot_anywhere ();
  cached_space ();
  fixpoint_oracle ();
  codec_oracle ();
  wire_oracle ();
  Printf.printf "all properties hold\n"
