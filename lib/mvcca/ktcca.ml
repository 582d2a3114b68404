type approx = Exact | Nystrom of { rank : int; tol : float }

type sketch_info = {
  achieved_ranks : int array;   (* Nyström rank ℓₚ actually reached per view *)
  trace_residuals : float array; (* relative trace residual tr(K−FFᵀ)/tr(K) *)
}

(* How the model carries the training data forward: the exact path keeps the
   centered N×N Grams (transform_train is aᵀK), the Nyström path keeps the
   already-projected N×r blocks K̂ₚaₚ = FₚBₚ — nothing N×N survives. *)
type train_rep =
  | Train_gram of Mat.t array
  | Train_factor of Mat.t array

type t = {
  duals : Mat.t array; (* aₚ : N × r *)
  train_rep : train_rep;
  raw_col_means : Vec.t array;
  raw_total_means : float array;
  centered : bool;
  correlations : Vec.t;
  t_sketch : sketch_info option;
  factors : Mat.t array; (* whitened-space Bₚ, retained for warm refits *)
}

let center_cross ~train_col_means ~train_total cross =
  let n, q = Mat.dims cross in
  let cross_col_means = Array.init q (fun j -> Vec.mean (Mat.col cross j)) in
  Mat.init n q (fun i j ->
      Mat.get cross i j -. train_col_means.(i) -. cross_col_means.(j) +. train_total)

let jittered_pls eps k =
  let n, _ = Mat.dims k in
  let a = Mat.add (Mat.scale eps k) (Mat.mul k k) in
  Mat.add_scaled_identity (1e-10 *. (1. +. Mat.trace a /. float_of_int n)) a

(* The whitened representation behind the operator [S]. *)
type rep =
  | Exact_rep of { e_kernels : Mat.t array; e_chols : Cholesky.t array }
  | Nystrom_rep of {
      ny_factors : Mat.t array; (* centered Fₚ, N × ℓₚ *)
      ny_grams : Mat.t array; (* FₚᵀFₚ, for the whitening and the duals *)
      ny_chols : Cholesky.t array; (* Gₚ with FₚᵀFₚ + εI = GₚGₚᵀ, ℓₚ × ℓₚ *)
      ny_info : sketch_info;
    }

type prepared = {
  p_rep : rep;
  p_op : Op_tensor.t; (* the whitened kernel tensor S, dense or implicit *)
  p_raw_col_means : Vec.t array;
  p_raw_total_means : float array;
  p_centered : bool;
}

let materialized prepared =
  match prepared.p_op with Op_tensor.Dense _ -> true | Op_tensor.Factored _ -> false

let sketch_info prepared =
  match prepared.p_rep with
  | Exact_rep _ -> None
  | Nystrom_rep { ny_info; _ } -> Some ny_info

let model_sketch_info t = t.t_sketch

type raw_rep =
  | Raw_exact of Mat.t array (* the centered kernels *)
  | Raw_nystrom of {
      rn_factors : Mat.t array; (* centered Fₚ *)
      rn_info : sketch_info;
    }

type raw = {
  raw_rep : raw_rep;
  raw_cms : Vec.t array;
  raw_tms : float array;
  raw_centered : bool;
}

let prepare_raw_exact ?(center = true) kernels_raw =
  let m = Array.length kernels_raw in
  if m < 2 then invalid_arg "Ktcca.fit: need at least two views";
  let n, m1 = Mat.dims kernels_raw.(0) in
  if n <> m1 then invalid_arg "Ktcca.fit: kernels must be square";
  Array.iter
    (fun k -> if Mat.dims k <> (n, n) then invalid_arg "Ktcca.fit: kernel size mismatch")
    kernels_raw;
  let raw_col_means =
    Array.map (fun k -> Array.init n (fun i -> Vec.mean (Mat.row k i))) kernels_raw
  in
  let raw_total_means = Array.map Stats.mean raw_col_means in
  let kernels =
    if center then Array.map Kernel.center kernels_raw else Array.map Mat.copy kernels_raw
  in
  (* K₁₂…ₘ = (1/N) Σₙ k₁ₙ ∘ … ∘ kₘₙ (Theorem 3): exactly the covariance
     tensor of the Gram matrices viewed as N-dimensional features — i.e. the
     centered kernels ARE its Kruskal factors, so nothing is accumulated. *)
  { raw_rep = Raw_exact kernels;
    raw_cms = raw_col_means;
    raw_tms = raw_total_means;
    raw_centered = center }

(* The column means of the N × ℓ factor [f], each summed from +0. in
   ascending row order, as [Vec.mean (Mat.col f j)] sums it, in one pass
   over the rows. *)
let column_means (f : Mat.t) =
  let n, ell = Mat.dims f in
  let sums = Array.make ell 0. in
  for i = 0 to n - 1 do
    for j = 0 to ell - 1 do
      sums.(j) <- sums.(j) +. Array.unsafe_get f.Mat.data ((i * ell) + j)
    done
  done;
  Array.map (fun s -> s /. float_of_int n) sums

(* Nyström raw statistics: a pivoted partial Cholesky per view consumes
   kernel columns on demand (never the N×N Gram) and yields K̂ₚ = FₚFₚᵀ.
   Everything downstream — centering, PLS whitening, the tensor S — is
   computed exactly on K̂, in ℓₚ-space:

     centering   HK̂H = (HFₚ)(HFₚ)ᵀ           (subtract Fₚ's column means)
     col means   μ̂ = K̂1/N = Fₚ(Fₚᵀ1)/N       (of the uncentered K̂)
     constraint  aᵀ(K̂² + εK̂)a = bᵀ(FₚᵀFₚ + εI)b   with  b = Fₚᵀa. *)
let nystrom_raw_checked ~center ~rank ~tol oracles =
  let m = Array.length oracles in
  if m < 2 then invalid_arg "Ktcca.fit: need at least two views";
  let n = oracles.(0).Pchol.o_dim in
  if n < 1 then invalid_arg "Ktcca.fit: empty oracle";
  Array.iter
    (fun o -> if o.Pchol.o_dim <> n then invalid_arg "Ktcca.fit: oracle size mismatch")
    oracles;
  if rank < 1 then invalid_arg "Ktcca.fit: Nystrom rank must be >= 1";
  try
    let ranks = Array.make m 0 and residuals = Array.make m 0. in
    let col_means = Array.make m [||] and total_means = Array.make m 0. in
    let factors =
      Array.mapi
        (fun p oracle ->
          match Pchol.decompose ~rank ~tol oracle with
          | Error e -> raise (Robust.Error e)
          | Ok (f0, info) ->
            ranks.(p) <- info.Pchol.rank;
            residuals.(p) <-
              (if info.Pchol.trace_initial > 0. then
                 info.Pchol.trace_residual /. info.Pchol.trace_initial
               else 0.);
            (* μ̂ = F₀(F₀ᵀ1)/N, and the per-column means of F₀ for centering. *)
            let ell = snd (Mat.dims f0) in
            let fmeans = column_means f0 in
            let mu = Mat.mul_vec f0 fmeans in
            col_means.(p) <- mu;
            total_means.(p) <- Stats.mean mu;
            (* F₀ is the fresh factor Pchol returned: center it in place. *)
            if center then begin
              let d = f0.Mat.data in
              for i = 0 to n - 1 do
                for j = 0 to ell - 1 do
                  let k = (i * ell) + j in
                  Array.unsafe_set d k (Array.unsafe_get d k -. fmeans.(j))
                done
              done
            end;
            f0)
        oracles
    in
    Ok
      { raw_rep =
          Raw_nystrom
            { rn_factors = factors;
              rn_info = { achieved_ranks = ranks; trace_residuals = residuals } };
        raw_cms = col_means;
        raw_tms = total_means;
        raw_centered = center }
  with Robust.Error e -> Error e

let prepare_raw_checked ?center ?(approx = Exact) kernels_raw =
  match approx with
  | Exact -> Ok (prepare_raw_exact ?center kernels_raw)
  | Nystrom { rank; tol } ->
    let oracles = Array.map Pchol.oracle_of_mat kernels_raw in
    let center = match center with Some c -> c | None -> true in
    nystrom_raw_checked ~center ~rank ~tol oracles

let prepare_raw ?center ?approx kernels_raw =
  match prepare_raw_checked ?center ?approx kernels_raw with
  | Ok raw -> raw
  | Error e -> Robust.fail e

(* Gram-whitening ladder.  Attempt 0 is bit-for-bit the historical
   [Cholesky.decompose (jittered_pls eps k)] — [decompose_jittered]'s own
   first try is the plain factorization.  An indefinite target first walks
   the diagonal-jitter ladder inside [decompose_jittered]; if that is
   exhausted too, [eps] escalates geometrically (the PLS constraint
   [K² + εK] grows more definite with ε on a PSD kernel). *)
let gram_attempts = 4

let cholesky_ladder ~stage ~eps target =
  let rec attempt k =
    let e = eps *. (10. ** float_of_int k) in
    match Cholesky.decompose_jittered ~stage (target e) with
    | Ok (f, jitter) ->
      if k > 0 || jitter > 0. then
        Robust.warnf "%s: factorized with eps %g, diagonal jitter %g" stage e jitter;
      Ok f
    | Error (Robust.Not_positive_definite _ as err) when k + 1 < gram_attempts ->
      Robust.warnf "%s: %s — escalating eps to %g" stage
        (Robust.failure_to_string err)
        (eps *. (10. ** float_of_int (k + 1)));
      attempt (k + 1)
    | Error err -> Error err
  in
  attempt 0

let whiten_kernel ~eps ~view kernel =
  cholesky_ladder ~stage:(Printf.sprintf "ktcca.whiten view %d" view) ~eps (fun e ->
      let a = jittered_pls e kernel in
      (* Fault injection: shift view 0's factorization target until it is
         decisively indefinite — no jitter or eps in the ladders can mask it. *)
      if view = 0 && Robust.Inject.(active Gram_indefinite) then
        Mat.add_scaled_identity (-.(1. +. Float.abs (Mat.trace a))) a
      else a)

(* Nyström whitening of [gram] = FₚᵀFₚ: Mₚ = FₚᵀFₚ + εI is ℓₚ×ℓₚ and
   already conditioned by ε, but reuse the same escalation shape for a
   degenerate F. *)
let whiten_nystrom ~eps ~view gram =
  cholesky_ladder ~stage:(Printf.sprintf "ktcca.whiten-nystrom view %d" view) ~eps (fun e ->
      Mat.add_scaled_identity e gram)

(* Whiten every view with [f], stopping at the first failure. *)
let whiten_views f xs =
  try
    Ok
      (Array.mapi
         (fun p x -> match f ~view:p x with Ok w -> w | Error e -> raise (Robust.Error e))
         xs)
  with Robust.Error e -> Error e

let prepare_of_raw_checked ~eps raw =
  (* S = (1/N) Σₙ ∘ₚ zₚₙ over the whitened factors Zₚ. *)
  let finish rep ~n factors =
    match
      Op_tensor.route ~stage:"ktcca.prepare" ~where:"whitened kernel operator"
        (Op_tensor.factored ~weight:(1. /. float_of_int n) factors)
    with
    | Error e -> Error e
    | Ok op ->
      Ok
        { p_rep = rep;
          p_op = op;
          p_raw_col_means = raw.raw_cms;
          p_raw_total_means = raw.raw_tms;
          p_centered = raw.raw_centered }
  in
  match raw.raw_rep with
  | Raw_exact kernels -> (
    match whiten_views (whiten_kernel ~eps) kernels with
    | Error e -> Error e
    | Ok chols ->
      (* S = K ×ₚ (Lₚ⁻¹)ᵀ; with A = GGᵀ and the paper's L = Gᵀ this is
         (Lₚ⁻¹)ᵀ = Gₚ⁻¹, so S = (1/N) Σₙ ∘ₚ (Gₚ⁻¹ kₚₙ): factors
         Zₚ = Gₚ⁻¹ Kₚ. *)
      let inv_lowers = Array.map Cholesky.inverse_lower chols in
      finish
        (Exact_rep { e_kernels = kernels; e_chols = chols })
        ~n:(fst (Mat.dims kernels.(0)))
        (Array.map2 Mat.mul inv_lowers kernels))
  | Raw_nystrom { rn_factors; rn_info } -> (
    let grams = Array.map Mat.tgram rn_factors in
    match whiten_views (whiten_nystrom ~eps) grams with
    | Error e -> Error e
    | Ok chols ->
      (* With b = Fᵀa and M = FᵀF + εI = GGᵀ, setting c = Gᵀb turns the
         objective into the CP fit of S = (1/N) Σₙ ∘ₚ (Gₚ⁻¹ fₚₙ) over the
         rows fₚₙ of Fₚ: factors Zₚ = Gₚ⁻¹Fₚᵀ, ℓₚ × N.  The operator lives
         in ℓ-space, so at large N the route materializes the small ∏ℓₚ
         tensor, which keeps the HOSVD init off the O(N²) Gram pass.  The
         product reads Fₚ as the GEMM's transposed operand. *)
      let inv_lowers = Array.map Cholesky.inverse_lower chols in
      finish
        (Nystrom_rep
           { ny_factors = rn_factors; ny_grams = grams; ny_chols = chols; ny_info = rn_info })
        ~n:(fst (Mat.dims rn_factors.(0)))
        (Array.map2 Mat.mul_nt inv_lowers rn_factors))

let prepare_of_raw ~eps raw =
  match prepare_of_raw_checked ~eps raw with
  | Ok p -> p
  | Error e -> Robust.fail e

let prepare ?(eps = 1e-4) ?center ?approx kernels_raw =
  prepare_of_raw ~eps (prepare_raw ?center ?approx kernels_raw)

let prepare_oracles_checked ?(eps = 1e-4) ?(center = true) ~approx oracles =
  let raw =
    match approx with
    | Exact -> invalid_arg "Ktcca.prepare_oracles: oracles require a `Nystrom` approx"
    | Nystrom { rank; tol } -> nystrom_raw_checked ~center ~rank ~tol oracles
  in
  match raw with Error e -> Error e | Ok raw -> prepare_of_raw_checked ~eps raw

let prepare_oracles ?eps ?center ~approx oracles =
  match prepare_oracles_checked ?eps ?center ~approx oracles with
  | Ok p -> p
  | Error e -> Robust.fail e

let fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared =
  match Tcca.solve ~caller:"Ktcca" ?solver ?budget ?checkpoint ~r prepared.p_op with
  | Error e -> Error e
  | Ok (kruskal, _) -> (
    match prepared.p_rep with
    | Exact_rep { e_kernels; e_chols } ->
      (* aₚ = Lₚ⁻¹ Bₚ = Gₚ⁻ᵀ Bₚ. *)
      let duals =
        Array.map2
          (fun chol b -> Cholesky.solve_lower_transpose chol b)
          e_chols kruskal.Kruskal.factors
      in
      if not (Array.for_all Mat.all_finite duals && Vec.all_finite kruskal.Kruskal.weights)
      then Error (Robust.Non_finite { stage = "ktcca.fit"; where = "dual weights" })
      else
        Ok
          { duals;
            train_rep = Train_gram e_kernels;
            raw_col_means = prepared.p_raw_col_means;
            raw_total_means = prepared.p_raw_total_means;
            centered = prepared.p_centered;
            correlations = kruskal.Kruskal.weights;
            t_sketch = None;
            factors = kruskal.Kruskal.factors }
    | Nystrom_rep { ny_factors; ny_grams; ny_chols; ny_info } -> (
      (* Back-substitution in ℓ-space: Bₚ = Gₚ⁻ᵀCₚ, then the least-norm dual
         with FₚᵀAₚ = Bₚ is Aₚ = Fₚ(FₚᵀFₚ + δI)⁻¹Bₚ; the train embedding
         K̂ₚAₚ = FₚBₚ never touches an N×N matrix. *)
      try
        let blocks = Array.make (Array.length ny_factors) (Mat.create 0 0) in
        let duals =
          Array.init (Array.length ny_factors) (fun p ->
              let b = Cholesky.solve_lower_transpose ny_chols.(p) kruskal.Kruskal.factors.(p) in
              blocks.(p) <- Mat.mul ny_factors.(p) b;
              let stage = Printf.sprintf "ktcca.duals view %d" p in
              match Cholesky.decompose_jittered ~stage ny_grams.(p) with
              | Error e -> raise (Robust.Error e)
              | Ok (chol, _) ->
                Mat.mul ny_factors.(p) (Cholesky.solve chol b))
        in
        if
          not
            (Array.for_all Mat.all_finite duals
            && Array.for_all Mat.all_finite blocks
            && Vec.all_finite kruskal.Kruskal.weights)
        then Error (Robust.Non_finite { stage = "ktcca.fit"; where = "dual weights" })
        else
          Ok
            { duals;
              train_rep = Train_factor blocks;
              raw_col_means = prepared.p_raw_col_means;
              raw_total_means = prepared.p_raw_total_means;
              centered = prepared.p_centered;
              correlations = kruskal.Kruskal.weights;
              t_sketch = Some ny_info;
              factors = kruskal.Kruskal.factors }
      with Robust.Error e -> Error e))

let fit_prepared ?solver ?budget ?checkpoint ~r prepared =
  match fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared with
  | Ok t -> t
  | Error e -> Robust.fail e

let fit_checked ?(eps = 1e-4) ?center ?approx ?solver ?budget ?checkpoint ~r kernels_raw =
  match prepare_raw_checked ?center ?approx kernels_raw with
  | Error e -> Error e
  | Ok raw -> (
    match prepare_of_raw_checked ~eps raw with
    | Error e -> Error e
    | Ok prepared -> fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared)

let fit ?eps ?center ?approx ?solver ?budget ?checkpoint ~r kernels_raw =
  fit_prepared ?solver ?budget ?checkpoint ~r (prepare ?eps ?center ?approx kernels_raw)

let fit_oracles_checked ?eps ?center ~approx ?solver ?budget ?checkpoint ~r oracles =
  match prepare_oracles_checked ?eps ?center ~approx oracles with
  | Error e -> Error e
  | Ok prepared -> fit_prepared_checked ?solver ?budget ?checkpoint ~r prepared

let fit_oracles ?eps ?center ~approx ?solver ?budget ?checkpoint ~r oracles =
  match fit_oracles_checked ?eps ?center ~approx ?solver ?budget ?checkpoint ~r oracles with
  | Ok t -> t
  | Error e -> Robust.fail e

let r t = Array.length t.correlations
let n_views t = Array.length t.duals
let correlations t = Array.copy t.correlations

let transform_train t =
  match t.train_rep with
  | Train_gram kernels ->
    Mat.vcat_list
      (Array.to_list (Array.map2 (fun a k -> Mat.mul_tn a k) t.duals kernels))
  | Train_factor blocks ->
    Mat.vcat_list (Array.to_list (Array.map Mat.transpose blocks))

let transform t crosses =
  if Array.length crosses <> n_views t then invalid_arg "Ktcca.transform: view count mismatch";
  let blocks =
    Array.mapi
      (fun p cross ->
        let cross =
          if t.centered then
            center_cross ~train_col_means:t.raw_col_means.(p)
              ~train_total:t.raw_total_means.(p) cross
          else cross
        in
        Mat.mul_tn t.duals.(p) cross)
      crosses
  in
  Mat.vcat_list (Array.to_list blocks)

let dual_weights t = Array.map Mat.copy t.duals

let warm_solver ?options t =
  let base = match options with Some o -> o | None -> Cp_als.default_options in
  Tcca.Als { base with Cp_als.init = Cp_als.Warm (Array.map Mat.copy t.factors) }
