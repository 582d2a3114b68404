(** Matrix functions on symmetric positive-(semi)definite inputs.

    The central one for the paper is the inverse square root: TCCA whitens the
    covariance tensor with [C̃pp^{-1/2}] (Eq. 4.9), computed spectrally as
    [V diag(λᵢ^{-1/2}) Vᵀ].

    Every spectral function runs on {!Eigen.decompose}, the two-stage
    tridiagonal solver. *)

val sqrt_psd : Mat.t -> Mat.t
(** Symmetric square root; negative eigenvalues from roundoff are clamped
    to 0. *)

val inv_sqrt_psd : ?floor:float -> Mat.t -> Mat.t
(** Symmetric inverse square root.  Eigenvalues below [floor] (default
    [1e-12] × λ_max) are treated as [floor], making the result a regularized
    pseudo-inverse square root for rank-deficient inputs. *)

val inv_sqrt_psd_checked :
  ?floor:float ->
  ?shift:float ->
  stage:string ->
  Mat.t ->
  (Mat.t * int, Robust.failure) result
(** Guarded whitener: same arithmetic as {!inv_sqrt_psd} (bit-for-bit), but
    the eigensolver iteration cap and NaN/Inf inputs surface as [Error]
    instead of a silently wrong matrix.  Returns the whitener together with
    the numerical rank of [a − shift·I] — pass the ridge already added to
    [a] as [shift] (default [0.]) so rank deficiency of the unregularized
    covariance is reported (eigenvalues within [1e-9·λmax] of the shift
    don't count).  [stage] labels any failure for attribution. *)

val inv_psd : ?floor:float -> Mat.t -> Mat.t
(** Symmetric (pseudo-)inverse through the spectrum. *)

val pinv : ?tol:float -> Mat.t -> Mat.t
(** Moore–Penrose pseudo-inverse of any rectangular matrix via SVD;
    singular values below [tol·σ₀] (default [1e-12]) are dropped. *)

val apply_spectral : (float -> float) -> Mat.t -> Mat.t
(** [apply_spectral f a = V diag(f λᵢ) Vᵀ] for symmetric [a]. *)
