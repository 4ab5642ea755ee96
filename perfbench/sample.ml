(* A growable buffer of float samples with nearest-rank quantiles.

   The samples live outside the OCaml heap, in a Bigarray: their number
   grows with the work a run completes, and peak_heap_mb must measure
   the reactor, not the benchmark's own bookkeeping. *)

open Bigarray

type t = { mutable a : (float, float64_elt, c_layout) Array1.t; mutable n : int }

let create () = { a = Array1.create float64 c_layout 1024; n = 0 }

let add t x =
  if t.n = Array1.dim t.a then begin
    let b = Array1.create float64 c_layout (2 * t.n) in
    Array1.blit t.a (Array1.sub b 0 t.n);
    t.a <- b
  end;
  t.a.{t.n} <- x;
  t.n <- t.n + 1

let count t = t.n

let mean t =
  if t.n = 0 then 0.
  else begin
    let s = ref 0. in
    for i = 0 to t.n - 1 do
      s := !s +. t.a.{i}
    done;
    !s /. float_of_int t.n
  end

(* [quantile t q] with [q] in [0, 1]; 0 when empty *)
let quantile t q =
  if t.n = 0 then 0.
  else begin
    let s = Array.init t.n (fun i -> t.a.{i}) in
    Array.sort Float.compare s;
    let i = int_of_float (Float.ceil (q *. float_of_int t.n)) - 1 in
    s.(max 0 (min (t.n - 1) i))
  end

let median xs =
  let t = create () in
  List.iter (add t) xs;
  quantile t 0.5
