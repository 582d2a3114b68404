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
    [Robust] warning; use {!decompose_info} to observe it structurally. *)

val decompose_info :
  ?method_:method_ -> ?max_sweeps:int -> ?eps:float -> Mat.t -> t * info
(** Same computation, plus the convergence record. *)

val truncated : t -> int -> Mat.t * Vec.t * Mat.t
(** [truncated svd r] keeps the top [r] triplets: [(u_r, sigma_r, v_r)]. *)
