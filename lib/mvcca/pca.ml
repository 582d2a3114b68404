type t = { mean : Vec.t; components : Mat.t; variances : Vec.t }

let fit ?(center = true) ~r x =
  let d, n = Mat.dims x in
  if n = 0 then invalid_arg "Pca.fit: no instances";
  let mean = if center then Mat.row_means x else Array.make d 0. in
  let centered = Mat.sub_col_vec x mean in
  let keep = min r d in
  let cov = Mat.scale (1. /. float_of_int n) (Mat.gram centered) in
  let eig = Eigen.decompose cov in
  { mean; components = Eigen.top_k eig keep; variances = Array.sub eig.Eigen.values 0 keep }

let transform t x = Mat.mul_tn t.components (Mat.sub_col_vec x t.mean)
let components t = Mat.copy t.components
let explained_variance t = Array.copy t.variances
let mean t = Array.copy t.mean
