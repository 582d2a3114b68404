(** Kernel tensor CCA — the paper's non-linear extension (Sec. 4.4).

    With per-view Gram matrices [Kₚₚ], the Representer Theorem turns
    problem (4.7) into maximizing [K₁₂…ₘ ×₁ a₁ᵀ … ×ₘ aₘᵀ] subject to the
    PLS-regularized constraints [aₚᵀ(Kₚₚ² + εKₚₚ)aₚ = 1] (Eq. 4.14), where
    Theorem 3 gives the kernel covariance tensor as
    [K₁₂…ₘ = (1/N) Σₙ k₁ₙ ∘ … ∘ kₘₙ] over Gram columns.  With the Cholesky
    factorization [Kₚₚ² + εKₚₚ = LₚᵀLₚ] and [bₚ = Lₚaₚ], the problem is the
    best rank-1 (rank-r via CP-ALS) approximation of
    [S = K₁₂…ₘ ×₁ (L₁⁻¹)ᵀ … ×ₘ (Lₘ⁻¹)ᵀ] (Eq. 4.15).

    Dense, the tensor [S] is Nᵐ and fitting cost scales as O(t·r·Nᵐ)
    (Sec. 4.5).  But [S = (1/N) Σₙ ∘ₚ (Gₚ⁻¹ kₚₙ)] is rank-N by construction,
    so every fit builds it as an [Op_tensor.Factored] operator with factors
    [Gₚ⁻¹ Kₚ] — O(m·N²) memory and O(N²·m·r) per sweep — and
    {!Op_tensor.route} decides from its shape whether to materialize it.
    With three or more views it never does (the Nᵐ tensor costs more than
    the factored Gram pass at every N); with two it does for
    351 ≤ N ≤ 10 000.

    {b Sketched scaling path.}  With [~approx:(`Nystrom …)] (see {!approx})
    each kernel is replaced by its Nyström approximation [K̂ₚ = FₚFₚᵀ] from a
    rank-revealing pivoted partial Cholesky ({!Pchol}) that consumes kernel
    columns on demand — the N×N Gram is {e never} materialized on this path,
    so N = 20 000 instances fit in seconds with O(N·ℓ) memory.  All algebra
    downstream is exact on [K̂]: whitening, the CP solve and the training
    embedding live in ℓₚ-space; only the dual weights (N×r) and the factors
    (N×ℓₚ) touch N. *)

type approx = Exact | Nystrom of { rank : int; tol : float }
(** [Exact] is the historical path (bit-identical).  [Nystrom] caps the
    partial Cholesky at [rank] columns and stops early once the residual
    kernel trace falls below [tol]·trace (see {!Pchol.decompose}). *)

type sketch_info = {
  achieved_ranks : int array;    (** Nyström rank ℓₚ reached per view. *)
  trace_residuals : float array; (** Relative residual tr(K−K̂)/tr(K). *)
}

type t

val fit :
  ?eps:float ->
  ?center:bool ->
  ?approx:approx ->
  ?solver:Tcca.solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Mat.t array ->
  t
(** [fit ~eps ~r kernels] on training Gram matrices (one per view).
    [center] (default true) double-centers each kernel.  [eps] defaults to
    1e-4.  The operator's representation is {!Op_tensor.route}'s choice, as
    in {!Tcca.fit} (see {!materialized}), and CP-ALS solves it through
    {!Tcca.solve}.  [approx] selects the sketched path — the supplied Grams
    are then only read column-by-column through {!Pchol.oracle_of_mat} (use
    {!fit_oracles} to avoid forming them at all).  [budget] and
    [checkpoint] mirror {!Tcca.fit}: a budget-expired solve returns its
    best-so-far model (warning logged, not an error), and checkpoint/resume
    makes the dual-weight fit crash-safe with bit-identical resume. *)

val fit_oracles :
  ?eps:float ->
  ?center:bool ->
  approx:approx ->
  ?solver:Tcca.solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Pchol.oracle array ->
  t
(** The large-N entry point: one kernel column/diagonal oracle per view
    (e.g. {!Kernel.oracle}); nothing N×N is ever allocated.  [approx] must
    be [Nystrom] (raises [Invalid_argument] on [Exact]). *)

type prepared
(** Whitened statistics and the operator [S], frozen so several ranks can be
    decomposed without re-materializing [S].  Exact path: centered kernels +
    Cholesky factors.  Nyström path: centered factors Fₚ + ℓ-space Cholesky
    factors. *)

val prepare : ?eps:float -> ?center:bool -> ?approx:approx -> Mat.t array -> prepared

val prepare_oracles :
  ?eps:float -> ?center:bool -> approx:approx -> Pchol.oracle array -> prepared

val fit_prepared :
  ?solver:Tcca.solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  prepared ->
  t

(** {2 Guarded entry points}

    Mirrors {!Tcca}'s [_checked] API: every numerical degradation comes back
    as a typed [Robust.failure]; the plain functions raise [Robust.Error] in
    exactly those cases and are otherwise bit-for-bit identical.  The
    whitening step composes two ladders: [Cholesky.decompose_jittered]'s
    diagonal-jitter retries, then geometric ε-escalation (ε·10ᵏ, up to 4
    attempts) of the PLS target [K² + εK] (exact) or [FᵀF + εI] (Nyström);
    a target that stays indefinite surfaces as [Not_positive_definite] with
    the failing pivot and the largest jitter tried.  The partial Cholesky
    itself reports a non-PSD kernel oracle the same way.  NaN/Inf are caught
    on the whitened operator and the dual weights; ALS failures restart
    inside [Cp_als] first. *)

val fit_checked :
  ?eps:float ->
  ?center:bool ->
  ?approx:approx ->
  ?solver:Tcca.solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Mat.t array ->
  (t, Robust.failure) result

val fit_oracles_checked :
  ?eps:float ->
  ?center:bool ->
  approx:approx ->
  ?solver:Tcca.solver ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  r:int ->
  Pchol.oracle array ->
  (t, Robust.failure) result

val materialized : prepared -> bool
(** Whether {!Op_tensor.route} materialized the prepared operator (Nᵐ on
    the exact path, ∏ℓₚ on the Nyström path). *)

val sketch_info : prepared -> sketch_info option
(** Nyström diagnostics — achieved ranks and relative trace residuals;
    [None] on the exact path. *)

val model_sketch_info : t -> sketch_info option
(** Same diagnostics carried on the fitted model. *)

type raw
(** The ε-independent work — the centered kernels, or on the Nyström path
    the centered partial Cholesky factors — shared by an ε-validation loop
    (the paper optimizes ε over {10ⁱ} for the kernel experiments).  The
    partial Cholesky runs once per raw, not once per ε. *)

val prepare_raw : ?center:bool -> ?approx:approx -> Mat.t array -> raw
val prepare_of_raw : eps:float -> raw -> prepared

val r : t -> int
val n_views : t -> int
val correlations : t -> Vec.t

val transform_train : t -> Mat.t
(** [(m·r) × N] concatenated training embedding [Zₚ = Kₚₚ Lₚ⁻¹ Bₚ]
    (Eq. 4.16); on the Nyström path [Zₚ = (FₚBₚ)ᵀ = (K̂ₚAₚ)ᵀ]. *)

val transform : t -> Mat.t array -> Mat.t
(** Embed new instances from their cross-kernel columns
    ([N_train × N_new] per view, un-centered).  On the Nyström path the
    training column means used for centering are the approximation's
    [K̂1/N]. *)

val dual_weights : t -> Mat.t array
(** Per-view [N × r] dual coefficients [aₚ = Lₚ⁻¹Bₚ]; on the Nyström path
    the least-norm solution [Aₚ = Fₚ(FₚᵀFₚ+δI)⁻¹Bₚ] of [FₚᵀAₚ = Bₚ]. *)

val warm_solver : ?options:Cp_als.options -> t -> Tcca.solver
(** An [Als] solver whose init is [Cp_als.Warm] on this model's retained
    whitened-space factors [Bₚ] — the incremental-refit entry point,
    mirroring {!Tcca.warm_solver}.  [options] (default
    [Cp_als.default_options]) supplies everything but [init]. *)
