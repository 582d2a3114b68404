(* Column index of the (i_0, …, i_{m-1}) entry in the mode-k unfolding:
   j = Σ_{q≠k} i_q · J_q with J_q = Π_{p<q, p≠k} dims.(p)  (lowest mode
   fastest, Kolda & Bader, "Tensor Decompositions and Applications"). *)

let col_strides dims k =
  let m = Array.length dims in
  let j = Array.make m 0 in
  let acc = ref 1 in
  for q = 0 to m - 1 do
    if q <> k then begin
      j.(q) <- !acc;
      acc := !acc * dims.(q)
    end
  done;
  j

let unfold (a : Tensor.t) k =
  let m = Tensor.order a in
  if k < 0 || k >= m then invalid_arg "Unfold.unfold: bad mode";
  let dims = a.Tensor.dims in
  let ncols = Tensor.size a / dims.(k) in
  let out = Mat.create dims.(k) ncols in
  let jstr = col_strides dims k in
  let idx = Array.make m 0 in
  let n = Tensor.size a in
  let strides = a.Tensor.strides in
  for flat = 0 to n - 1 do
    let rem = ref flat in
    for q = 0 to m - 1 do
      idx.(q) <- !rem / strides.(q);
      rem := !rem mod strides.(q)
    done;
    let col = ref 0 in
    for q = 0 to m - 1 do
      if q <> k then col := !col + (idx.(q) * jstr.(q))
    done;
    Mat.set out idx.(k) !col a.Tensor.data.(flat)
  done;
  out
