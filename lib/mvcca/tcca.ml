type solver = Als of Cp_als.options

let default_solver = Als Cp_als.default_options

type t = {
  means : Vec.t array;
  projections : Mat.t array; (* dₚ × r, whitening folded in *)
  factors : Mat.t array;     (* whitened-space Uₚ, retained for warm refits *)
  correlations : Vec.t;
  solver_note : string;
}

let check_views name views =
  let m = Array.length views in
  if m < 2 then invalid_arg (name ^ ": need at least two views");
  let n = snd (Mat.dims views.(0)) in
  if n = 0 then invalid_arg (name ^ ": no instances");
  Array.iter
    (fun v -> if snd (Mat.dims v) <> n then invalid_arg (name ^ ": instance count mismatch"))
    views;
  n

let covariance_tensor views =
  let n = check_views "Tcca.covariance_tensor" views in
  (* The N-dependent pass: (1/N) Σₙ ∘ₚ xₚₙ is a factored operator over the
     views, materialized as one blocked GEMM. *)
  Op_tensor.to_tensor (Op_tensor.factored ~weight:(1. /. float_of_int n) views)

(* Whitening ladder.  Attempt 0 is bit-for-bit the historical
   [inv_sqrt_psd (cov + eps·I)]; an eigensolver iteration cap escalates the
   ridge geometrically (eps·10ᵏ) — a better-conditioned target — before
   surfacing the failure.  Rank is measured against the ridge actually
   added, so a covariance that carries no information at all (numerical
   rank 0) is a [Rank_deficient] failure rather than a whitener made of
   pure ridge. *)
let whiten_attempts = 4

let whiten_view ~eps ~view cov =
  let dim = fst (Mat.dims cov) in
  let stage = Printf.sprintf "tcca.whiten view %d" view in
  let cov =
    if view = 0 && Robust.Inject.(active Covariance_nan) then
      Mat.init dim dim (fun a b -> if a = 0 && b = 0 then nan else Mat.get cov a b)
    else cov
  in
  let ridge_at k = eps *. (10. ** float_of_int k) in
  let rec attempt k =
    let ridge = ridge_at k in
    match
      Matfun.inv_sqrt_psd_checked ~shift:ridge ~stage (Mat.add_scaled_identity ridge cov)
    with
    | Ok (w, rank) ->
      if k > 0 then Robust.warnf "%s: recovered with ridge %g (%d escalations)" stage ridge k;
      if rank = 0 then Error (Robust.Rank_deficient { view; rank; dim })
      else begin
        if rank < dim then
          Robust.warnf "%s: covariance numerically rank-deficient (%d of %d directions)"
            stage rank dim;
        Ok w
      end
    | Error (Robust.Not_converged _ as e) when k + 1 < whiten_attempts ->
      Robust.warnf "%s: %s — escalating ridge to %g" stage (Robust.failure_to_string e)
        (ridge_at (k + 1));
      attempt (k + 1)
    | Error e -> Error e
  in
  attempt 0

let whiteners_checked ~eps covs =
  try
    Ok
      (Array.mapi
         (fun p c ->
           match whiten_view ~eps ~view:p c with
           | Ok w -> w
           | Error e -> raise (Robust.Error e))
         covs)
  with Robust.Error e -> Error e

type prepared = {
  p_means : Vec.t array;
  p_whiteners : Mat.t array;
  p_op : Op_tensor.t; (* the whitened covariance tensor M, dense or implicit *)
}

let materialized prepared =
  match prepared.p_op with Op_tensor.Dense _ -> true | Op_tensor.Factored _ -> false

type raw_stats =
  | Raw_moment of Tensor.t
      (* E[∘ₚ x̃ₚ] over the augmented instances x̃ₚ = [xₚ; 1], dims dₚ + 1:
         the Builder's statistics, which keep no instances *)
  | Raw_views of Mat.t array (* the centered views themselves (dₚ × N each) *)

type raw = {
  r_means : Vec.t array;
  r_covs : Mat.t array; (* Cₚₚ = (1/N) X̄ₚX̄ₚᵀ *)
  r_stats : raw_stats;
  r_n : int;
}

let prepare_raw views =
  let n = check_views "Tcca.prepare" views in
  let means = Array.map Mat.row_means views in
  let centered = Array.map2 Mat.sub_col_vec views means in
  (* Fault injection: wipe one instance column of view 0 — a dead sensor.
     The pipeline must absorb it (rank drops by at most one). *)
  if Robust.Inject.(active View_column_zero) then begin
    let v = centered.(0) in
    for i = 0 to fst (Mat.dims v) - 1 do
      Mat.set v i 0 0.
    done
  end;
  let nf = float_of_int n in
  { r_means = means;
    r_covs = Array.map (fun x -> Mat.scale (1. /. nf) (Mat.gram x)) centered;
    r_stats = Raw_views centered;
    r_n = n }

let prepare_of_raw_checked ~eps raw =
  match whiteners_checked ~eps raw.r_covs with
  | Error e -> Error e
  | Ok ws -> (
    let op =
      match raw.r_stats with
      | Raw_moment t ->
        (* ∘ₚ Wₚ(xₚ − μₚ) = ∘ₚ [Wₚ | −Wₚμₚ]x̃ₚ, so M = E[∘ₚ x̃ₚ] ×ₚ [Wₚ | −Wₚμₚ]:
           the centering happens inside the m whitening products. *)
        let augment w mu =
          let d = Array.length mu and wmu = Mat.mul_vec w mu in
          Mat.init d (d + 1) (fun i j -> if j < d then Mat.get w i j else -.wmu.(i))
        in
        Op_tensor.dense (Tensor.mode_products t (Array.map2 augment ws raw.r_means))
      | Raw_views centered ->
        (* M = (1/N) Σᵢ ∘ₚ (Wₚ x̄ₚᵢ): the whitened views ARE the Kruskal
           factors of M. *)
        Op_tensor.factored
          ~weight:(1. /. float_of_int raw.r_n)
          (Array.map2 Mat.mul ws centered)
    in
    match
      Op_tensor.route ~stage:"tcca.prepare" ~where:"whitened covariance operator" op
    with
    | Error e -> Error e
    | Ok op -> Ok { p_means = raw.r_means; p_whiteners = ws; p_op = op })

let prepare_of_raw ~eps raw =
  match prepare_of_raw_checked ~eps raw with Ok p -> p | Error e -> Robust.fail e

let prepare ?(eps = 1e-2) views = prepare_of_raw ~eps (prepare_raw views)

let whitened_tensor ?eps views = Op_tensor.to_tensor (prepare ?eps views).p_op

module Builder = struct
  (* One augmented moment tensor T̃ = Σₙ ∘ₚ x̃ₚₙ over x̃ₚ = [xₚ; 1], of dims
     dₚ + 1.  Its sub-blocks are every subset moment: the cell whose
     indices sit at the constant row dₚ for every p ∉ S is Σₙ ∏_{p∈S} xₚₙ,
     so it holds the joint moments of every mode subset, the per-view sums
     and n — ∏(dₚ + 1) = Σ_S ∏_{p∈S} dₚ entries.  Beside it, the per-view
     second moments Σ xₚxₚᵀ. *)
  type t = {
    dims : int array;
    mutable n : int;
    moment : Tensor.t; (* T̃ *)
    second : Mat.t array; (* Σ xₚ xₚᵀ *)
  }

  let create ~dims =
    if Array.length dims < 2 then invalid_arg "Tcca.Builder.create: need at least two views";
    Array.iter (fun d -> if d < 1 then invalid_arg "Tcca.Builder.create: bad dimension") dims;
    { dims = Array.copy dims;
      n = 0;
      moment = Tensor.create (Array.map succ dims);
      second = Array.map (fun d -> Mat.create d d) dims }

  let count t = t.n

  let add_batch t views =
    if Array.length views <> Array.length t.dims then
      invalid_arg "Tcca.Builder.add_batch: view count mismatch";
    Array.iteri
      (fun p v ->
        if fst (Mat.dims v) <> t.dims.(p) then
          invalid_arg "Tcca.Builder.add_batch: dimension mismatch")
      views;
    let batch = snd (Mat.dims views.(0)) in
    Array.iter
      (fun v ->
        if snd (Mat.dims v) <> batch then
          invalid_arg "Tcca.Builder.add_batch: instance count mismatch")
      views;
    if batch > 0 then begin
      (* The augmented views [Xₚ; 1ᵀ] are the factors of Σₙ ∘ₚ x̃ₚₙ; each
         cell of T̃ continues its sum over the instances in order. *)
      let augmented = Array.map (fun v -> Mat.vcat v (Mat.make 1 batch 1.)) views in
      Op_tensor.add_into t.moment (Op_tensor.factored ~weight:1. augmented);
      Array.iteri
        (fun p (v : Mat.t) ->
          let d = t.dims.(p) in
          Gemm.gemm ~accumulate:true ~ta:false ~tb:true ~m:d ~n:d ~k:batch ~a:v.Mat.data
            ~b:v.Mat.data t.second.(p).Mat.data)
        views;
      t.n <- t.n + batch
    end

  let finalize t =
    if t.n = 0 then invalid_arg "Tcca.Builder.finalize: no instances";
    let nf = float_of_int t.n in
    let moment = Tensor.scale (1. /. nf) t.moment in
    (* E[xₚ[a]] is the cell at index a in mode p and the constant row in
       every other mode. *)
    let means =
      Array.mapi
        (fun p d ->
          let idx = Array.copy t.dims in
          Array.init d (fun a ->
              idx.(p) <- a;
              Tensor.get moment idx))
        t.dims
    in
    let covs =
      Array.mapi
        (fun p s ->
          let raw = Mat.scale (1. /. nf) s in
          Mat.init t.dims.(p) t.dims.(p) (fun a b ->
              Mat.get raw a b -. (means.(p).(a) *. means.(p).(b))))
        t.second
    in
    { r_means = means; r_covs = covs; r_stats = Raw_moment moment; r_n = t.n }
end

let solve ~caller ?(solver = default_solver) ?budget ?checkpoint ~r op =
  if r < 1 then invalid_arg (caller ^ ".fit_prepared: r must be >= 1");
  let r = Array.fold_left min r (Op_tensor.dims op) in
  let (Als options) = solver in
  let k, info = Cp_als.decompose_op ~options ?budget ?checkpoint ~rank:r op in
  (* A Some failure means the solver exhausted its restarts on non-finite
     or swamped runs — the model is not trustworthy. *)
  match info.Cp_als.failure with
  | Some f -> Error f
  | None -> (
    let note =
      Printf.sprintf "als: %d iters, fit %.6f, converged %b, runs %d" info.Cp_als.iterations
        info.Cp_als.fit info.Cp_als.converged (List.length info.Cp_als.runs)
    in
    (* A budget-expired solve is graceful degradation, not an error: the
       model is the solver's best-so-far state.  Surface the diagnostic
       loudly (warnings ring + solver note) without failing the fit. *)
    match info.Cp_als.deadline with
    | None -> Ok (k, note)
    | Some d ->
      Robust.warnf "%s.fit: %s — returning best-so-far model" caller
        (Robust.failure_to_string d);
      Ok (k, note ^ "; " ^ Robust.failure_to_string d))

let fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared =
  match solve ~caller:"Tcca" ?solver ?budget ?checkpoint ~r prepared.p_op with
  | Error e -> Error e
  | Ok (kruskal, note) ->
    (* hₚ = C̃pp^{−1/2} uₚ (Theorem 2's back-substitution); fold the whitener
       into the projection so transform is a single matrix product. *)
    let projections =
      Array.map2 (fun w u -> Mat.mul w u) prepared.p_whiteners kruskal.Kruskal.factors
    in
    if
      not
        (Array.for_all Mat.all_finite projections
        && Vec.all_finite kruskal.Kruskal.weights)
    then Error (Robust.Non_finite { stage = "tcca.fit"; where = "projections" })
    else
      Ok
        { means = prepared.p_means;
          projections;
          factors = kruskal.Kruskal.factors;
          correlations = kruskal.Kruskal.weights;
          solver_note = note }

let fit_prepared ?solver ?budget ?checkpoint ~r prepared =
  match fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared with
  | Ok t -> t
  | Error e -> Robust.fail e

let fit_checked ?(eps = 1e-2) ?solver ?budget ?checkpoint ~r views =
  match prepare_of_raw_checked ~eps (prepare_raw views) with
  | Error e -> Error e
  | Ok prepared -> fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared

let fit ?(eps = 1e-2) ?solver ?budget ?checkpoint ~r views =
  fit_prepared ?solver ?budget ?checkpoint ~r (prepare ~eps views)

let r t = Array.length t.correlations
let n_views t = Array.length t.projections
let correlations t = Array.copy t.correlations

let transform_view t p x =
  if p < 0 || p >= n_views t then invalid_arg "Tcca.transform_view: bad view index";
  Mat.mul_tn t.projections.(p) (Mat.sub_col_vec x t.means.(p))

let transform t views =
  if Array.length views <> n_views t then invalid_arg "Tcca.transform: view count mismatch";
  Mat.vcat_list (Array.to_list (Array.mapi (fun p x -> transform_view t p x) views))

let projections t = Array.map Mat.copy t.projections
let canonical_vectors = projections
let solver_info t = t.solver_note
let view_dims t = Array.map Array.length t.means

(* ------------------------------------------------------------------ *)
(* Serialization surface + warm restarts (the serving layer's needs). *)

type parts = {
  pt_means : Vec.t array;
  pt_projections : Mat.t array;
  pt_factors : Mat.t array;
  pt_correlations : Vec.t;
  pt_note : string;
}

let to_parts t =
  { pt_means = Array.map Array.copy t.means;
    pt_projections = Array.map Mat.copy t.projections;
    pt_factors = Array.map Mat.copy t.factors;
    pt_correlations = Array.copy t.correlations;
    pt_note = t.solver_note }

let of_parts p =
  let m = Array.length p.pt_projections in
  if m < 2 then invalid_arg "Tcca.of_parts: need at least two views";
  if Array.length p.pt_means <> m || Array.length p.pt_factors <> m then
    invalid_arg "Tcca.of_parts: view count mismatch";
  let r = Array.length p.pt_correlations in
  if r < 1 then invalid_arg "Tcca.of_parts: empty correlations";
  Array.iteri
    (fun i proj ->
      let rows, cols = Mat.dims proj in
      if cols <> r then invalid_arg "Tcca.of_parts: projection rank mismatch";
      if rows <> Array.length p.pt_means.(i) then
        invalid_arg "Tcca.of_parts: mean/projection dim mismatch";
      if snd (Mat.dims p.pt_factors.(i)) <> r then
        invalid_arg "Tcca.of_parts: factor rank mismatch")
    p.pt_projections;
  { means = Array.map Array.copy p.pt_means;
    projections = Array.map Mat.copy p.pt_projections;
    factors = Array.map Mat.copy p.pt_factors;
    correlations = Array.copy p.pt_correlations;
    solver_note = p.pt_note }

let warm_solver ?options t =
  let base = match options with Some o -> o | None -> Cp_als.default_options in
  Als { base with Cp_als.init = Cp_als.Warm (Array.map Mat.copy t.factors) }
