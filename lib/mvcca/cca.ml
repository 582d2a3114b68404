type t = {
  mean1 : Vec.t;
  mean2 : Vec.t;
  proj1 : Mat.t; (* d1 × r *)
  proj2 : Mat.t;
  correlations : Vec.t;
}

let fit ?(eps = 1e-2) ~r x1 x2 =
  let d1, n1 = Mat.dims x1 and d2, n2 = Mat.dims x2 in
  if n1 <> n2 then invalid_arg "Cca.fit: instance count mismatch";
  if n1 = 0 then invalid_arg "Cca.fit: no instances";
  if r < 1 then invalid_arg "Cca.fit: r must be >= 1";
  let r = min r (min d1 d2) in
  let nf = float_of_int n1 in
  let mean1 = Mat.row_means x1 and mean2 = Mat.row_means x2 in
  let c1 = Mat.sub_col_vec x1 mean1 and c2 = Mat.sub_col_vec x2 mean2 in
  let c11 = Mat.add_scaled_identity eps (Mat.scale (1. /. nf) (Mat.gram c1)) in
  let c22 = Mat.add_scaled_identity eps (Mat.scale (1. /. nf) (Mat.gram c2)) in
  let c12 = Mat.scale (1. /. nf) (Mat.mul_nt c1 c2) in
  let w1 = Matfun.inv_sqrt_psd c11 and w2 = Matfun.inv_sqrt_psd c22 in
  let whitened_cross = Mat.mul w1 (Mat.mul c12 w2) in
  let svd = Svd.decompose whitened_cross in
  let u, sigma, v = Svd.truncated svd r in
  { mean1;
    mean2;
    proj1 = Mat.mul w1 u;
    proj2 = Mat.mul w2 v;
    correlations = sigma }

let r t = Array.length t.correlations
let correlations t = Array.copy t.correlations
let transform1 t x = Mat.mul_tn t.proj1 (Mat.sub_col_vec x t.mean1)
let transform2 t x = Mat.mul_tn t.proj2 (Mat.sub_col_vec x t.mean2)
let transform_concat t x1 x2 = Mat.vcat (transform1 t x1) (transform2 t x2)
