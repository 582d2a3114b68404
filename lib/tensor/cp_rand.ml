type options = {
  max_iter : int;
  tol : float;
  samples_per_mode : int option;
  fit_samples : int;
  seed : int;
}

let default_options =
  { max_iter = 60;
    tol = 1e-5;
    samples_per_mode = None;
    fit_samples = 4096;
    seed = 0xCA9D }

type info = {
  iterations : int;
  sampled_fit : float;
  converged : bool;
}

(* Entry of the current CP model at a multi-index. *)
let model_entry factors lambda idx =
  let r = Array.length lambda in
  let acc = ref 0. in
  for c = 0 to r - 1 do
    let prod = ref lambda.(c) in
    Array.iteri (fun p i -> prod := !prod *. Mat.get factors.(p) i c) idx;
    acc := !acc +. !prod
  done;
  !acc

(* Relative fit estimated on sampled entries: 1 − √(Σ(x−x̂)²/Σx²). *)
let sampled_fit rng options x factors lambda =
  let m = Tensor.order x in
  let idx = Array.make m 0 in
  let err2 = ref 0. and norm2 = ref 0. in
  for _ = 1 to options.fit_samples do
    for p = 0 to m - 1 do
      idx.(p) <- Rng.int rng (Tensor.dim x p)
    done;
    let v = Tensor.get x idx in
    let d = v -. model_entry factors lambda idx in
    err2 := !err2 +. (d *. d);
    norm2 := !norm2 +. (v *. v)
  done;
  if !norm2 = 0. then 1. else 1. -. sqrt (!err2 /. !norm2)

let decompose ?(options = default_options) ~rank x =
  if rank < 1 then invalid_arg "Cp_rand.decompose: rank must be >= 1";
  let m = Tensor.order x in
  let dims = Array.init m (Tensor.dim x) in
  let rng = Rng.create options.seed in
  let samples =
    match options.samples_per_mode with
    | Some s -> max s rank
    | None ->
      max 64 (10 * rank * int_of_float (Float.ceil (log (float_of_int (rank + 1)))))
  in
  (* HOSVD-style init, as in Cp_als. *)
  let factors =
    Array.init m (fun k ->
        let unfolding = Unfold.unfold x k in
        let eig = Eigen.decompose (Mat.gram unfolding) in
        let keep = min rank dims.(k) in
        let lead = Eigen.top_k eig keep in
        if keep = rank then lead
        else Mat.hcat lead (Mat.init dims.(k) (rank - keep) (fun _ _ -> Rng.gaussian rng)))
  in
  let lambda = Array.make rank 1. in
  let idx = Array.make m 0 in
  let iterations = ref 0 in
  let converged = ref false in
  let previous_fit = ref neg_infinity in
  let fit = ref 0. in
  while (not !converged) && !iterations < options.max_iter do
    incr iterations;
    for k = 0 to m - 1 do
      (* Sampled least squares for mode k: rows are random index tuples of
         the other modes. *)
      let zs = Mat.create samples rank in
      let ys = Mat.create samples dims.(k) in
      for s = 0 to samples - 1 do
        for p = 0 to m - 1 do
          idx.(p) <- (if p = k then 0 else Rng.int rng dims.(p))
        done;
        (* Row of the Khatri–Rao product of the *unit-norm* factors at this
           tuple: the solved Uₖ then absorbs λ, which the renormalization
           below extracts — mirroring Cp_als. *)
        for c = 0 to rank - 1 do
          let prod = ref 1. in
          for p = 0 to m - 1 do
            if p <> k then prod := !prod *. Mat.get factors.(p) idx.(p) c
          done;
          Mat.set zs s c !prod
        done;
        (* The mode-k fiber of X through this tuple. *)
        for i = 0 to dims.(k) - 1 do
          idx.(k) <- i;
          Mat.set ys s i (Tensor.get x idx)
        done
      done;
      (* Normal equations (ZᵀZ + δI) Uᵀ = Zᵀ Y. *)
      let ztz = Mat.add_scaled_identity 1e-10 (Mat.tgram zs) in
      let zty = Mat.mul_tn zs ys in
      let ut = Cholesky.solve_system ztz zty in
      let u = Mat.transpose ut in
      (* Re-normalize columns, folding norms into λ. *)
      for c = 0 to rank - 1 do
        let col = Mat.col u c in
        let n = Vec.norm col in
        if n > 1e-300 then begin
          Mat.set_col u c (Vec.scale (1. /. n) col);
          lambda.(c) <- n
        end
        else lambda.(c) <- 0.
      done;
      factors.(k) <- u
    done;
    fit := sampled_fit rng options x factors lambda;
    if Float.abs (!fit -. !previous_fit) < options.tol then converged := true;
    previous_fit := !fit
  done;
  let kruskal = Kruskal.normalize { Kruskal.weights = Array.copy lambda; factors } in
  ( kruskal,
    { iterations = !iterations;
      sampled_fit = !fit;
      converged = !converged } )
