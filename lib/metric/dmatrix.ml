type t = {
  n : int;
  cells : float array; (* upper triangle incl. diagonal, row-major *)
}

(* Index of (i, j) with i <= j in the flattened upper triangle. *)
let index n i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  (i * ((2 * n) - i - 1) / 2) + j

let create n ~diag ~off =
  if n <= 0 then invalid_arg "Dmatrix.create: n <= 0";
  let cells = Array.make (n * (n + 1) / 2) off in
  let m = { n; cells } in
  for i = 0 to n - 1 do
    cells.(index n i i) <- diag
  done;
  m

let of_fun n ~diag f =
  let m = create n ~diag ~off:0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      m.cells.(index n i j) <- f i j
    done
  done;
  m

let size t = t.n

let check t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Dmatrix: index out of range"

let get t i j =
  check t i j;
  t.cells.(index t.n i j)

let set t i j v =
  check t i j;
  t.cells.(index t.n i j) <- v

let map_off_diagonal t f =
  let m = { n = t.n; cells = Array.copy t.cells } in
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      let k = index t.n i j in
      m.cells.(k) <- f i j t.cells.(k)
    done
  done;
  m

let sub t idx =
  let k = Array.length idx in
  Array.iter (fun i -> check t i i) idx;
  let seen = Hashtbl.create k in
  Array.iter
    (fun i ->
      if Hashtbl.mem seen i then invalid_arg "Dmatrix.sub: duplicate index";
      Hashtbl.add seen i ())
    idx;
  let m = create k ~diag:0.0 ~off:0.0 in
  for a = 0 to k - 1 do
    for b = a to k - 1 do
      m.cells.(index k a b) <- t.cells.(index t.n idx.(a) idx.(b))
    done
  done;
  m

let off_diagonal_values t =
  let out = Array.make (t.n * (t.n - 1) / 2) 0.0 in
  let pos = ref 0 in
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      out.(!pos) <- t.cells.(index t.n i j);
      incr pos
    done
  done;
  out

let iter_pairs t f =
  for i = 0 to t.n - 1 do
    for j = i + 1 to t.n - 1 do
      f i j t.cells.(index t.n i j)
    done
  done

let diameter_of t nodes =
  let rec loop acc = function
    | [] -> acc
    | x :: rest ->
        let acc = List.fold_left (fun a y -> Float.max a (get t x y)) acc rest in
        loop acc rest
  in
  loop 0.0 nodes

let max_symmetric_error a b =
  if a.n <> b.n then invalid_arg "Dmatrix.max_symmetric_error: size mismatch";
  let err = ref 0.0 in
  Array.iteri
    (fun k v ->
      let w = b.cells.(k) in
      (* identical entries (including equal infinities) differ by zero *)
      let diff = if v = w then 0.0 else Float.abs (v -. w) in
      err := Float.max !err diff)
    a.cells;
  !err

let copy t = { n = t.n; cells = Array.copy t.cells }

let pp ppf t =
  if t.n > 12 then Format.fprintf ppf "<%dx%d matrix>" t.n t.n
  else
    for i = 0 to t.n - 1 do
      for j = 0 to t.n - 1 do
        Format.fprintf ppf "%8.2f " (get t i j)
      done;
      Format.fprintf ppf "@."
    done
