(** E4 — Fig. 5: the effect of treeness on clustering accuracy.

    Six same-size datasets with swept treeness (measured [epsilon_avg])
    receive the same query workload; WPR is reported against [f_b] (the
    bandwidth CDF value at the constraint) both raw and normalized by
    [f_a*] — Sec. IV-C's Equation 1 analysis:

    {v WPR = f_b ^ ((1/eps_avg_star) * (1/f_a_star)) v}

    so {v WPR ^ f_a_star = f_b ^ (1/eps_avg_star) v}: after normalization, datasets with
    worse treeness (larger epsilon) must plot above datasets with better
    treeness.  [f_a] is the fraction of pairs with bandwidth within
    [+-window] of [b]; [f_a* = (alpha - 1/alpha) f_a + 1/alpha] with
    [alpha = 3.2] as in the paper. *)

type bin = {
  f_b : float;      (** mean CDF value of the bin's constraints *)
  wpr : float;
  f_a_star : float; (** mean normalization exponent of the bin *)
  wpr_norm : float; (** [wpr ** f_a_star] *)
  queries : int;
}

type curve = {
  sigma : float;       (** generator noise level *)
  epsilon_avg : float; (** measured treeness *)
  bins : bin list;     (** ascending f_b *)
}

type output = { curves : curve list }

val run :
  ?n:int -> ?sigmas:float list -> ?rounds:int -> ?queries_per_round:int -> seed:int ->
  unit -> output
(** Defaults: 100-node datasets, sigmas [0.02 .. 0.8], 2 rounds, 300
    queries per round (the paper: six datasets, 10 rounds, 2000
    queries).  Every query asks for k = 5 hosts; results fall in 6 f_b
    bins, and [window] is 10 Mbps. *)

val print : output -> unit

val save_csv : output -> string -> unit
(** One row per (curve, bin), with the curve's sigma and epsilon. *)
