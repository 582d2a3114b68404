(* LU factorization with partial pivoting, for general square systems.

   No library code needs it: CP-ALS solves its Khatri–Rao Gram systems by
   Cholesky, with [Matfun]'s spectral inverse as the fallback.  The tests use
   it as an independent solver to check the Cholesky and spectral routes
   against.  [decompose] raises [Invalid_argument] on a non-square input and
   [Singular] when a pivot is exactly zero. *)

type t = { lu : Mat.t; perm : int array; sign : float }

exception Singular

let decompose a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Lu.decompose: not square";
  let lu = Mat.copy a in
  let perm = Array.init n (fun i -> i) in
  let sign = ref 1. in
  for k = 0 to n - 1 do
    (* Partial pivoting: the largest |entry| in column k, rows k..n-1. *)
    let pivot_row = ref k in
    let pivot_val = ref (Float.abs (Mat.get lu k k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs (Mat.get lu i k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    if !pivot_val = 0. then raise Singular;
    if !pivot_row <> k then begin
      let p = !pivot_row in
      for j = 0 to n - 1 do
        let tmp = Mat.get lu k j in
        Mat.set lu k j (Mat.get lu p j);
        Mat.set lu p j tmp
      done;
      let tmp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tmp;
      sign := -. !sign
    end;
    let pivot = Mat.get lu k k in
    for i = k + 1 to n - 1 do
      let factor = Mat.get lu i k /. pivot in
      Mat.set lu i k factor;
      if factor <> 0. then
        for j = k + 1 to n - 1 do
          Mat.set lu i j (Mat.get lu i j -. (factor *. Mat.get lu k j))
        done
    done
  done;
  { lu; perm; sign = !sign }

let solve_vec { lu; perm; _ } b =
  let n, _ = Mat.dims lu in
  if Array.length b <> n then invalid_arg "Lu.solve_vec: dimension mismatch";
  let x = Array.init n (fun i -> b.(perm.(i))) in
  (* Forward substitution with unit-lower L. *)
  for i = 1 to n - 1 do
    let acc = ref x.(i) in
    for j = 0 to i - 1 do
      acc := !acc -. (Mat.get lu i j *. x.(j))
    done;
    x.(i) <- !acc
  done;
  (* Back substitution with U. *)
  for i = n - 1 downto 0 do
    let acc = ref x.(i) in
    for j = i + 1 to n - 1 do
      acc := !acc -. (Mat.get lu i j *. x.(j))
    done;
    x.(i) <- !acc /. Mat.get lu i i
  done;
  x

let solve f b =
  let _, ncols = Mat.dims b in
  let n, _ = Mat.dims f.lu in
  let x = Mat.create n ncols in
  for j = 0 to ncols - 1 do
    Mat.set_col x j (solve_vec f (Mat.col b j))
  done;
  x

let det { lu; sign; _ } =
  let n, _ = Mat.dims lu in
  let d = ref sign in
  for i = 0 to n - 1 do
    d := !d *. Mat.get lu i i
  done;
  !d

let inverse f =
  let n, _ = Mat.dims f.lu in
  solve f (Mat.identity n)

let solve_system a b = solve (decompose a) b
