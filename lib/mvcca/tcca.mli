(** Tensor canonical correlation analysis — the paper's contribution
    (Sec. 4).

    Given m centered views [{Xₚ ∈ R^{dₚ×N}}], TCCA maximizes the high-order
    canonical correlation [ρ = C₁₂…ₘ ×₁ h₁ᵀ … ×ₘ hₘᵀ] subject to
    [hₚᵀ C̃pp hₚ = 1] (Eqs. 4.7–4.8).  Substituting [uₚ = C̃pp^{1/2} hₚ]
    turns this into the best rank-1 approximation of the whitened covariance
    tensor [M = C₁₂…ₘ ×₁ C̃₁₁^{−1/2} … ×ₘ C̃ₘₘ^{−1/2}] (Theorem 2 +
    De Lathauwer 2000b), and the rank-r solution is its CP decomposition,
    computed with CP-ALS, the solver Sec. 4.3 finds best.  Each view is
    whitened exactly, by the symmetric eig of [C̃ₚₚ = Cₚₚ + εI].  The other
    solvers the paper mentions ({!Hopm}, {!Tensor_power}) and a sampled ALS
    ({!Cp_rand}) run on {!whitened_tensor} in the solver ablation only.

    [M] is the rank-N sum [(1/N) Σₙ ∘ₚ (C̃ₚₚ^{−1/2} x̄ₚₙ)], so every fit
    builds it as an {!Op_tensor.Factored} operator over the whitened views
    and {!Op_tensor.route} decides from its shape whether to materialize
    it.  At the paper's shapes and large N it does: one O(N·∏dₚ) GEMM pass,
    after which the CP solve is independent of N — the scalability property
    of Sec. 4.5.  At small N, or when ∏dₚ is too large to hold, the solve
    runs on the factored operator at O(N·Σdₚ) memory.  A fit from
    {!Builder}'s streamed statistics, which keep no instances, whitens a
    dense moment tensor instead. *)

type solver = Als of Cp_als.options  (** CP-ALS with these options (Sec. 4.3). *)

type t

val fit :
  ?eps:float ->
  ?solver:solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Mat.t array ->
  t
(** [fit ~eps ~r views] with instances as columns; centering is internal and
    frozen.  [eps] is the regularizer of Eq. 4.8 (default 1e-2, the paper's
    linear-experiment value).  [r] is clamped to [min dₚ].  Raises
    [Invalid_argument] on fewer than 2 views or inconsistent instance
    counts, and [Robust.Error] when {!fit_checked} would return [Error] —
    a numerically degraded fit never comes back as a silent NaN model.

    The representation of [M] is not an option: {!Op_tensor.route} picks
    it from the shape (see {!materialized}).  Dense costs one O(N·∏dₚ)
    pass and then O(∏dₚ·r) per ALS sweep; factored keeps O(N·Σdₚ) memory
    and O(N·Σdₚ·r) per sweep after an O(N²·Σdₚ) Gram pass, and is the only
    route for shapes above {!Op_tensor.dense_entry_cap} (5 views at
    dₚ = 40 is ≈ 10⁸ entries).  Both compute the same M; projections agree
    to solver roundoff.

    Whitening is exact at every dₚ: the symmetric eig of each dₚ × dₚ
    covariance, O(dₚ²·N + dₚ³).

    {b Long-running fits}: [budget] bounds the solve — it is probed once per
    ALS sweep, and on expiry the fit returns its {e best-so-far} model
    with the [Robust.Deadline_exceeded] diagnostic appended to
    {!solver_info} and pushed through [Robust.warnf] (a deadline is graceful
    degradation, not an error; [fit_checked] still returns [Ok]).
    [checkpoint] snapshots the full ALS state through
    {!Checkpoint} so a killed process resumes from its last sweep boundary —
    the resumed fit is bit-identical to an uninterrupted one at any
    [TCCA_DOMAINS] setting.  A corrupt, torn, truncated or mismatched
    snapshot degrades to a cold start with a typed warning; it never crashes
    the fit and never yields a silently wrong model. *)

val solve :
  caller:string ->
  ?solver:solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Op_tensor.t ->
  (Kruskal.t * string, Robust.failure) result
(** The solve stage shared by TCCA and KTCCA: the CP decomposition of a
    prepared operator by {!Cp_als.decompose_op} and its human-readable
    solver note.  [r] must be [>= 1] and is clamped to the smallest mode
    size; a solver failure is [Error]; a budget expiry returns the
    best-so-far model with a warning and the diagnostic appended to the
    note.  [caller] (["Tcca"], ["Ktcca"]) prefixes every message, as in
    ["Tcca.fit_prepared: r must be >= 1"]. *)

type prepared
(** The N-dependent work of a fit — centering, whitening and the whitened
    operator, materialized or not — frozen so that several ranks can be
    decomposed from the same operator.  This is what makes dimension
    sweeps cheap: everything up to the CP decomposition is rank-independent
    (Sec. 4.5). *)

val prepare : ?eps:float -> Mat.t array -> prepared

val fit_prepared :
  ?solver:solver -> ?budget:Budget.t -> ?checkpoint:Checkpoint.config -> r:int -> prepared -> t

(** {2 Guarded entry points}

    The [_checked] twins return every numerical degradation as a typed
    [Robust.failure] instead of raising; the plain functions above raise
    [Robust.Error] in exactly those situations.  On healthy inputs the two
    are bit-for-bit identical (the escalation ladders' first attempt is the
    historical arithmetic).  Guardrails on the path: per-view whitening
    retries a geometric ridge schedule (ε·10ᵏ, up to 4 attempts) on an
    eigensolver iteration cap and reports the covariance's numerical rank
    ([Rank_deficient] when 0, a logged warning when merely deficient);
    NaN/Inf are caught at stage boundaries (inputs, the whitened operator,
    projections); ALS failures (non-finite fit, swamp) restart
    deterministically inside {!Cp_als} and surface only when restarts are
    exhausted.  Recovered events land in [Robust.recent_warnings]. *)

val fit_prepared_checked :
  ?solver:solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  prepared ->
  (t, Robust.failure) result

val fit_checked :
  ?eps:float ->
  ?solver:solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Mat.t array ->
  (t, Robust.failure) result

val materialized : prepared -> bool
(** Whether {!Op_tensor.route} materialized the prepared operator (exposed
    so tests and benches can see which route a fit took; tests pin one with
    {!Op_tensor.pin_route}). *)

type raw
(** Only the ε-independent work, so that an ε-validation loop (the paper
    tunes ε over {10ⁱ} for the image experiments) reuses it: the means, the
    per-view covariances [Cₚₚ] (formed once, by {!prepare_raw} or
    {!Builder.finalize}), and either the centered views
    ({!prepare_raw}) or, from {!Builder.finalize}, the augmented moment
    tensor [E[∘ₚ x̃ₚ]] over [x̃ₚ = [xₚ; 1]] (dims dₚ + 1), which keeps no
    instances.  Whitening depends on ε, so each {!prepare_of_raw} builds
    and routes the operator again: the eig of each [Cₚₚ + εI],
    O(N·Σdₚ²) for the whitened views, plus
    O(N·∏dₚ) GEMM flops when the route materializes.  From the moment
    tensor it centers inside the whitening instead: since
    [∘ₚ Wₚ(xₚ − μₚ) = ∘ₚ [Wₚ | −Wₚμₚ] x̃ₚ], the whitened tensor is
    [M = E[∘ₚ x̃ₚ] ×ₚ [Wₚ | −Wₚμₚ]], m mode products of
    O(∏(dₚ + 1)·max dₚ) each, and it is dense. *)

val prepare_raw : Mat.t array -> raw
val prepare_of_raw : eps:float -> raw -> prepared
val prepare_of_raw_checked : eps:float -> raw -> (prepared, Robust.failure) result

val r : t -> int
val n_views : t -> int

val correlations : t -> Vec.t
(** The CP weights [λ] of the rank-r model of [M], by descending magnitude.
    At [r = 1] the weight is the high-order canonical correlation
    [ρ = C₁₂…ₘ ×₁ h₁ᵀ … ×ₘ hₘᵀ] of Eq. 4.7.  At [r > 1] it is not the
    per-component correlation: that is
    [cₖ = (1/N) Σₙ ∏ₚ zₚₖₙ] over the projected training views
    ({!transform_view}), and ALS's last-mode normal equation gives
    [c = (⊛ₚ UₚᵀUₚ) λ] with [Uₚ] the whitened-space factors
    ([pt_factors]), so [c] and [λ] agree only as far as the [Uₚ] are
    orthogonal. *)

val transform_view : t -> int -> Mat.t -> Mat.t
(** [Zₚ = (C̃pp^{−1/2} Uₚ)ᵀ (Xₚ − μₚ)], [r × N] (Eq. 4.11, transposed
    convention: instances stay columns). *)

val transform : t -> Mat.t array -> Mat.t
(** Concatenation [Z ∈ R^{(m·r) × N}] of all projected views — the final
    representation of Fig. 2. *)

val projections : t -> Mat.t array
(** Per-view projection matrices [C̃pp^{−1/2} Uₚ], each [dₚ × r]. *)

val canonical_vectors : t -> Mat.t array
(** The same matrices — [hₚ⁽ᵏ⁾] columns satisfy [hₚᵀ C̃pp hₚ = 1]. *)

val solver_info : t -> string
(** Human-readable convergence note (iterations, fit) for logging. *)

val view_dims : t -> int array
(** Input dimensionality dₚ of each view (what {!transform} expects). *)

(** {2 Serialization surface and warm restarts}

    What a long-lived serving process needs from a fitted model: a plain
    record of its contents (to write durable model files through
    [Checkpoint.Wire]) and a solver preloaded with its whitened-space
    factors (to warm-start an incremental refit). *)

type parts = {
  pt_means : Vec.t array;
  pt_projections : Mat.t array;  (** [C̃pp^{−1/2} Uₚ], whitening folded in. *)
  pt_factors : Mat.t array;      (** The whitened-space [Uₚ] — retained so a
                                     refit can warm-start CP-ALS. *)
  pt_correlations : Vec.t;
  pt_note : string;
}
(** A fitted model, exploded.  All arrays are fresh copies in both
    directions. *)

val to_parts : t -> parts

val of_parts : parts -> t
(** Raises [Invalid_argument] on structural inconsistency (view counts,
    ranks, mean/projection dims) — the guard a deserializer relies on. *)

val warm_solver : ?options:Cp_als.options -> t -> solver
(** An [Als] solver whose init is [Cp_als.Warm] on this model's whitened
    factors: the incremental-refit entry point.  [options] (default
    [Cp_als.default_options]) supplies everything but [init]. *)

val covariance_tensor : Mat.t array -> Tensor.t
(** The centered covariance tensor [C₁₂…ₘ = (1/N) Σₙ x₁ₙ ∘ … ∘ xₘₙ] of
    already-centered views — exposed for tests and benches. *)

(** Streaming construction of the fit statistics, for pools too large to
    materialize as matrices (the paper's Sec. 4.5 point: TCCA's cost is
    independent of N once the covariance statistics are accumulated, so it
    "can be scaled in very large sample size problems").

    Batches are pushed one at a time; the builder keeps one augmented
    moment tensor [T̃ = Σₙ ∘ₚ x̃ₚₙ] over [x̃ₚ = [xₚ; 1]], of dims dₚ + 1,
    and the per-view second moments [Σₙ xₚₙxₚₙᵀ]: O(∏(dₚ + 1) + Σdₚ²)
    state.  T̃'s sub-blocks are every raw moment a centered fit needs — the
    cells with index dₚ (the constant row) in every mode outside a subset S
    hold the joint moment of S, so T̃ holds the per-view sums and n too.
    [finalize] divides T̃ by n into a [raw] and forms the means and
    covariances; {!prepare_of_raw} centers inside its whitening products.
    Its fit equals [prepare_raw]'s on the concatenation of all batches up
    to roundoff. *)
module Builder : sig
  type t

  val create : dims:int array -> t
  (** One dimension per view; raises [Invalid_argument] on fewer than two
      views or a dimension below 1. *)

  val add_batch : t -> Mat.t array -> unit
  (** Push a batch of instances (one matrix per view, matching [dims] and a
      shared column count).  The augmented batch [[Xₚ; 1ᵀ]] is added into
      T̃ in place as a factored operator ({!Op_tensor.add_into}: one
      Khatri–Rao × GEMM pass, O(batch · ∏(dₚ + 1)) flops, no second
      tensor), and each [XₚXₚᵀ] with one GEMM.  Every cell continues its
      sum over the instances in the order they were pushed, at any pool
      size. *)

  val count : t -> int
  (** Instances absorbed so far. *)

  val finalize : t -> raw
  (** Centered statistics of everything absorbed — a scaled copy of T̃, the
      means and the covariances; raises [Invalid_argument] if no instances
      were added.  The builder stays usable (more batches can follow and
      [finalize] can be called again). *)
end

val whitened_tensor : ?eps:float -> Mat.t array -> Tensor.t
(** [M] of Eq. 4.9 for raw views: [Op_tensor.to_tensor] of {!prepare}'s
    operator, whatever its route — the input of the solver ablation, which
    runs {!Hopm}, {!Tensor_power} and {!Cp_rand} on it beside CP-ALS. *)
