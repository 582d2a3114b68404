(** Thin singular value decomposition: one-sided Jacobi, with a QR + eig
    route for tall matrices.

    CCA reduces to the SVD of the whitened cross-covariance matrix
    [C̃₁₁^{-1/2} C₁₂ C̃₂₂^{-1/2}] (and KCCA to its kernel analogue); one-sided
    Jacobi is simple, backward-stable and accurate for small singular values,
    which is exactly what picking the top canonical directions needs.  For
    genuinely tall inputs ([m ≥ 3n] after orientation), the default route is
    a thin Householder QR followed by the symmetric eigendecomposition of
    [RᵀR] — [O(mn²)] once instead of per Jacobi sweep — with singular values
    recovered as [σⱼ = ‖A vⱼ‖] to undo the Gram product's conditioning
    squaring. *)

type t = {
  u : Mat.t;      (** [m × k] left singular vectors (columns), [k = min m n]. *)
  sigma : Vec.t;  (** Singular values in descending order, length [k]. *)
  v : Mat.t;      (** [n × k] right singular vectors (columns). *)
}

type info = {
  sweeps : int;      (** Jacobi sweeps actually run, or the inner
                         eigensolver's iteration count on the QR + eig
                         route. *)
  residual : float;  (** Jacobi: worst remaining normalized column-pair inner
                         product [max |⟨wp,wq⟩|/(‖wp‖‖wq‖)], measured only
                         when the cap was hit, [0.] otherwise.  QR + eig: the
                         inner {!Eigen.info} residual. *)
  converged : bool;  (** Whether the chosen route converged under its
                         iteration cap. *)
}

type method_ = [ `Auto | `Jacobi | `Qr_eig ]
(** [`Auto] (default) routes tall inputs ([max_dim ≥ 3 · min_dim]) through
    QR + symmetric eig and everything else through one-sided Jacobi, chosen
    from the aspect ratio alone.  [`Jacobi] and [`Qr_eig] force a route
    ([`Qr_eig] works for any shape; the wide case is handled by transposing
    first) — the tests use them to check one route against the other. *)

val decompose : ?method_:method_ -> ?max_sweeps:int -> ?eps:float -> Mat.t -> t
(** Thin SVD of any rectangular matrix.  Hitting the sweep cap logs a
    [Robust] warning; use {!decompose_info} or {!decompose_checked} to
    observe it structurally. *)

val decompose_info :
  ?method_:method_ -> ?max_sweeps:int -> ?eps:float -> Mat.t -> t * info
(** Same computation, plus the convergence record. *)

val decompose_checked :
  ?stage:string ->
  ?method_:method_ ->
  ?max_sweeps:int ->
  ?eps:float ->
  Mat.t ->
  (t, Robust.failure) result
(** Guarded variant: [Error Non_finite] on a NaN/Inf input, [Error
    Not_converged] when the iteration cap is hit.  [stage] defaults to
    ["svd"]. *)

val randomized :
  ?oversample:int -> ?power_iters:int -> ?seed:int -> rank:int -> Mat.t -> t * info
(** Halko-style randomized truncated SVD: a Gaussian test matrix (drawn from
    the deterministic [Rng] seeded by [seed], default [0x51ED]) sketches the
    range, [power_iters] (default 2) power iterations with re-orthonormalized
    half-steps sharpen it against slowly-decaying spectra, and the small
    [(rank+oversample)]-dimensional problem is solved exactly (QB → symmetric
    eig of [BBᵀ], [σⱼ = ‖Bᵀwⱼ‖]).  Unlike {!decompose} this returns only the
    top [min rank (min m n)] triplets — O(m·n·(rank+oversample)) per pass
    instead of O(m·n·min(m,n)).  [oversample] defaults to 8.  For a matrix
    of exact rank ≤ [rank] the result matches the exact routes to roundoff;
    in general the tail beyond the sketch is discarded, not approximated.
    The [info] convergence record is the inner eigensolver's.  Fully
    deterministic (and bitwise pool-size invariant) for a fixed seed. *)

val truncated : t -> int -> Mat.t * Vec.t * Mat.t
(** [truncated svd r] keeps the top [r] triplets: [(u_r, sigma_r, v_r)]. *)

val reconstruct : t -> Mat.t
(** [U diag(σ) Vᵀ] — for testing. *)

val nuclear_norm : t -> float
val rank : ?tol:float -> t -> int
(** Numerical rank: count of [σᵢ > tol · σ₀] (default [tol = 1e-10]). *)
