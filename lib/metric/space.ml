type t = {
  n : int;
  d : Float.Array.t; (* row-major n x n *)
}

let dist t i j =
  if i < 0 || i >= t.n || j < 0 || j >= t.n then invalid_arg "Space.dist: index out of range";
  Float.Array.get t.d ((i * t.n) + j)

let make ~n ~dist =
  if n <= 0 then invalid_arg "Space.make: n <= 0";
  let d = Float.Array.make (n * n) 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let x = dist i j in
      Float.Array.set d ((i * n) + j) x;
      Float.Array.set d ((j * n) + i) x
    done
  done;
  { n; d }

let of_dmatrix m =
  let n = Dmatrix.size m in
  let d = Float.Array.create (n * n) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Float.Array.set d ((i * n) + j) (Dmatrix.get m i j)
    done
  done;
  { n; d }

let to_dmatrix t = Dmatrix.of_fun t.n ~diag:0.0 (fun i j -> dist t i j)

let cached t = t

let restrict t idx =
  let k = Array.length idx in
  Array.iter
    (fun i -> if i < 0 || i >= t.n then invalid_arg "Space.restrict: index out of range")
    idx;
  let d = Float.Array.create (k * k) in
  for a = 0 to k - 1 do
    let row = idx.(a) * t.n in
    for b = 0 to k - 1 do
      Float.Array.set d ((a * k) + b) (Float.Array.get t.d (row + idx.(b)))
    done
  done;
  { n = k; d }

let diameter t nodes =
  let rec loop acc = function
    | [] -> acc
    | x :: rest ->
        let acc = List.fold_left (fun a y -> Float.max a (dist t x y)) acc rest in
        loop acc rest
  in
  loop 0.0 nodes

let of_bandwidth ?c bw =
  make ~n:(Dmatrix.size bw) ~dist:(fun i j -> Bandwidth.to_distance ?c (Dmatrix.get bw i j))
