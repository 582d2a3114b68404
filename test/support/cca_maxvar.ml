(* CCA-MAXVAR (Kettenring 1971): the classical multi-view CCA that finds a
   common variate [z] maximizing the summed squared correlations with every
   view — equivalently, minimizing [Σₚ ‖z − Xₚᵀhₚ‖²] (paper Eq. 3.2).

   Solved exactly: the optimal [z]'s are the top right singular vectors of
   the stacked ridge-whitened data [B = vcat_p (XₚXₚᵀ + NεI)^{−1/2} Xₚ],
   obtained from the (Σdₚ)² eigenproblem of [BBᵀ], so the cost is
   independent of N.  The reference solution that CCA-LS (lib/mvcca/cca_ls)
   must agree with; no experiment runs it.

   [fit] takes views with instances as columns and centers them internally;
   [transform] gives the concatenated [m·r × N] representation,
   [common_variates] the [N_train × r] orthonormal optimal variates and
   [score] the eigenvalues of [Σₚ Pₚ] for the kept components, each in
   [0, m]. *)

type t = {
  means : Vec.t array;
  projections : Mat.t array; (* dₚ × r *)
  variates : Mat.t;          (* N × r *)
  score : Vec.t;
}

let fit ?(eps = 1e-2) ~r views =
  let m = Array.length views in
  if m < 2 then invalid_arg "Cca_maxvar.fit: need at least two views";
  let n = snd (Mat.dims views.(0)) in
  Array.iter
    (fun v -> if snd (Mat.dims v) <> n then invalid_arg "Cca_maxvar.fit: instance mismatch")
    views;
  if r < 1 then invalid_arg "Cca_maxvar.fit: r must be >= 1";
  let nf = float_of_int n in
  let means = Array.map Mat.row_means views in
  let centered = Array.map2 Mat.sub_col_vec views means in
  (* Ridge-whitened view blocks Yₚ = (Cpp + εI)^{−1/2} Xₚ/√N, so that
     YₚᵀYₚ = Pₚ, the regularized projector onto view p's variate space. *)
  let whitened =
    Array.map
      (fun x ->
        let cov = Mat.add_scaled_identity eps (Mat.scale (1. /. nf) (Mat.gram x)) in
        Mat.scale (1. /. sqrt nf) (Mat.mul (Matfun.inv_sqrt_psd cov) x))
      centered
  in
  let b = Mat.vcat_list (Array.to_list whitened) in
  let total_d = fst (Mat.dims b) in
  let r = min r (min n total_d) in
  (* Top right singular vectors of B via the small (Σdₚ)² Gram eigenproblem. *)
  let eig = Eigen.decompose (Mat.gram b) in
  let u = Eigen.top_k eig r in
  let score = Array.sub eig.Eigen.values 0 r in
  let variates = Mat.create n r in
  for i = 0 to r - 1 do
    let bu = Mat.tmul_vec b (Mat.col u i) in
    let sigma = sqrt (Float.max score.(i) 1e-300) in
    Mat.set_col variates i (Vec.scale (1. /. sigma) bu)
  done;
  (* hₚ⁽ⁱ⁾ = (XₚXₚᵀ + NεI)⁻¹ Xₚ z⁽ⁱ⁾ — the per-view ridge regression onto the
     common variate — rescaled to hᵀC̃pp h = 1 so each canonical variable has
     unit variance (see the matching comment in Cca_ls). *)
  let projections =
    Array.map
      (fun x ->
        let a = Mat.add_scaled_identity (nf *. eps) (Mat.gram x) in
        let h = Cholesky.solve_system a (Mat.mul x variates) in
        let r_cols = snd (Mat.dims h) in
        for i = 0 to r_cols - 1 do
          let hi = Mat.col h i in
          let z_p = Mat.tmul_vec x hi in
          let variance = (Vec.dot z_p z_p /. nf) +. (eps *. Vec.dot hi hi) in
          if variance > 1e-300 then Mat.set_col h i (Vec.scale (1. /. sqrt variance) hi)
        done;
        h)
      centered
  in
  { means; projections; variates; score }

let r t = snd (Mat.dims t.variates)

let transform_view t p x = Mat.mul_tn t.projections.(p) (Mat.sub_col_vec x t.means.(p))

let transform t views =
  if Array.length views <> Array.length t.projections then
    invalid_arg "Cca_maxvar.transform: view count mismatch";
  Mat.vcat_list (Array.to_list (Array.mapi (fun p x -> transform_view t p x) views))

let common_variates t = Mat.copy t.variates
let score t = Array.copy t.score
