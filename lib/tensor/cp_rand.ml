type options = {
  max_iter : int;
  tol : float;
  samples_per_mode : int option;
  fit_samples : int;
  min_fit : float option;
  seed : int;
}

let default_options =
  { max_iter = 60;
    tol = 1e-5;
    samples_per_mode = None;
    fit_samples = 4096;
    min_fit = None;
    seed = 0xCA9D }

type info = {
  iterations : int;
  sampled_fit : float;
  converged : bool;
  failure : Robust.failure option;
  deadline : Robust.failure option;
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

(* Entry of the operator at a multi-index.  Dense: direct lookup.  Factored
   (w · Σⱼ ∘ₚ zₚⱼ): w · Σⱼ ∏ₚ Zₚ[idxₚ, j] — O(n·m) per entry, the price of
   sampling an implicit tensor. *)
let op_entry op idx =
  match op with
  | Op_tensor.Dense x -> Tensor.get x idx
  | Op_tensor.Factored { weight; factors } ->
    let n = snd (Mat.dims factors.(0)) in
    let acc = ref 0. in
    for j = 0 to n - 1 do
      let prod = ref 1. in
      Array.iteri (fun p i -> prod := !prod *. Mat.get factors.(p) i j) idx;
      acc := !acc +. !prod
    done;
    weight *. !acc

(* Mode-k fiber of the operator at [idx] (idx.(k) is ignored), written into
   the first dₖ cells of [out].  Factored: w · Zₖ · c with
   cⱼ = ∏_{q≠k} Z_q[idx_q, j]. *)
let op_fiber op k idx out =
  match op with
  | Op_tensor.Dense x ->
    let dk = Tensor.dim x k in
    let saved = idx.(k) in
    for i = 0 to dk - 1 do
      idx.(k) <- i;
      out.(i) <- Tensor.get x idx
    done;
    idx.(k) <- saved
  | Op_tensor.Factored { weight; factors } ->
    let n = snd (Mat.dims factors.(0)) in
    let c = Array.make n 1. in
    Array.iteri
      (fun q z ->
        if q <> k then
          for j = 0 to n - 1 do
            c.(j) <- c.(j) *. Mat.get z idx.(q) j
          done)
      factors;
    let v = Mat.mul_vec factors.(k) c in
    for i = 0 to Array.length v - 1 do
      out.(i) <- weight *. v.(i)
    done

(* Relative fit estimated on sampled entries: 1 − √(Σ(x−x̂)²/Σx²). *)
let sampled_fit rng options op factors lambda =
  let m = Op_tensor.order op in
  let idx = Array.make m 0 in
  let err2 = ref 0. and norm2 = ref 0. in
  for _ = 1 to options.fit_samples do
    for p = 0 to m - 1 do
      idx.(p) <- Rng.int rng (Op_tensor.dim op p)
    done;
    let v = op_entry op idx in
    let d = v -. model_entry factors lambda idx in
    err2 := !err2 +. (d *. d);
    norm2 := !norm2 +. (v *. v)
  done;
  if !norm2 = 0. then 1. else 1. -. sqrt (!err2 /. !norm2)

let decompose_op ?(options = default_options) ?(budget = Budget.unlimited) ~rank op =
  if rank < 1 then invalid_arg "Cp_rand.decompose_op: rank must be >= 1";
  let m = Op_tensor.order op in
  let dims = Op_tensor.dims op in
  let rng = Rng.create options.seed in
  let samples =
    match options.samples_per_mode with
    | Some s -> max s rank
    | None ->
      max 64 (10 * rank * int_of_float (Float.ceil (log (float_of_int (rank + 1)))))
  in
  (* HOSVD-style init on the dense path, as in Cp_als.  The factored path
     initializes from the seeded Gaussian stream instead: its mode Grams
     cost a streamed O(n²·Σdₚ) pass over the view Grams (n = component
     count, e.g. N), defeating the point of sampling. *)
  let factors =
    match op with
    | Op_tensor.Dense x ->
      Array.init m (fun k ->
          let unfolding = Unfold.unfold x k in
          let eig = Eigen.decompose (Mat.gram unfolding) in
          let keep = min rank dims.(k) in
          let lead = Eigen.top_k eig keep in
          if keep = rank then lead
          else Mat.hcat lead (Mat.init dims.(k) (rank - keep) (fun _ _ -> Rng.gaussian rng)))
    | Op_tensor.Factored _ ->
      Array.init m (fun k -> Mat.init dims.(k) rank (fun _ _ -> Rng.gaussian rng))
  in
  let lambda = Array.make rank 1. in
  let idx = Array.make m 0 in
  let iterations = ref 0 in
  let converged = ref false in
  let previous_fit = ref neg_infinity in
  let fit = ref 0. in
  let deadline = ref None in
  let fiber = Array.make (Array.fold_left max 1 dims) 0. in
  while (not !converged) && !deadline = None && !iterations < options.max_iter do
    match Budget.expired ~stage:"cp_rand" ~sweeps:!iterations budget with
    | Some f -> deadline := Some f
    | None ->
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
        op_fiber op k idx fiber;
        for i = 0 to dims.(k) - 1 do
          Mat.set ys s i fiber.(i)
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
    fit := sampled_fit rng options op factors lambda;
    if Float.abs (!fit -. !previous_fit) < options.tol then converged := true;
    previous_fit := !fit
  done;
  let kruskal = Kruskal.normalize { Kruskal.weights = Array.copy lambda; factors } in
  (* Accuracy gate: a fit below [min_fit] means the sampled solve cannot be
     trusted — surface a typed failure instead of a silently bad model.  A
     budget-expired solve is exempt (best-so-far is the documented
     contract; the deadline diagnostic already tells the caller). *)
  let failure =
    match options.min_fit, !deadline with
    | Some gate, None when !fit < gate ->
      Some
        (Robust.Not_converged
           { stage = "cp_rand"; sweeps = !iterations; residual = 1. -. !fit })
    | _ -> None
  in
  ( kruskal,
    { iterations = !iterations;
      sampled_fit = !fit;
      converged = !converged;
      failure;
      deadline = !deadline } )
