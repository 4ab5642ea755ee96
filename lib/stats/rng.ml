type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { state = mix64 (Int64.of_int seed) }

let bits64 t =
  t.state <- Int64.add t.state golden_gamma;
  mix64 t.state

let split t =
  let s = bits64 t in
  { state = mix64 s }

let copy t = { state = t.state }

let state t = t.state
let of_state s = { state = s }

let int t bound =
  assert (bound > 0);
  (* Rejection sampling keeps the draw exactly uniform: re-draw when [r]
     falls in the short biased tail above the largest multiple of [bound]. *)
  let b = Int64.of_int bound in
  let rec loop () =
    let r = Int64.shift_right_logical (bits64 t) 1 in
    let v = Int64.rem r b in
    if Int64.compare (Int64.sub r v) (Int64.sub Int64.max_int (Int64.sub b 1L)) > 0
    then loop ()
    else Int64.to_int v
  in
  loop ()

let float t bound =
  let r = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float r *. (1.0 /. 9007199254740992.0) *. bound

let uniform t lo hi = lo +. float t (hi -. lo)

let bool t = Int64.logand (bits64 t) 1L = 1L

let gaussian t =
  (* Box-Muller; draws a fresh pair every call for simplicity. *)
  let rec nonzero () =
    let u = float t 1.0 in
    if u <= 1e-300 then nonzero () else u
  in
  let u1 = nonzero () and u2 = float t 1.0 in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

let log_normal t ~mu ~sigma = exp (mu +. (sigma *. gaussian t))

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let permutation t n =
  let a = Array.init n (fun i -> i) in
  shuffle t a;
  a

let choose t a =
  assert (Array.length a > 0);
  a.(int t (Array.length a))

let sample_without_replacement t m n =
  assert (m <= n);
  if m * 3 >= n then Array.sub (permutation t n) 0 m
  else begin
    (* Sparse Floyd sampling for small m over a large range. *)
    let seen = Hashtbl.create (2 * m) in
    let out = Array.make m 0 in
    for i = 0 to m - 1 do
      let j = n - m + i in
      let r = int t (j + 1) in
      let v = if Hashtbl.mem seen r then j else r in
      Hashtbl.replace seen v ();
      out.(i) <- v
    done;
    shuffle t out;
    out
  end
