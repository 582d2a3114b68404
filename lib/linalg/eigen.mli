(** Symmetric eigendecomposition: two-stage tridiagonal solver.

    Every covariance and Gram matrix in the paper's pipeline is symmetric, and
    whitening ([C̃pp^{-1/2}]) needs the full spectrum with an orthogonal basis.
    The solver reduces to tridiagonal form with Householder reflectors
    (rank-2 updates banded across the [Parallel] pool) and then runs
    implicit-shift QL with Wilkinson shifts and deflation — ≈3n³ flops in
    total.  The test suite checks it against a cyclic-Jacobi reference that
    shares none of its arithmetic.

    Determinism: results are bitwise identical across [TCCA_DOMAINS] pool
    sizes — all banded loops have exclusive row/column ownership and fixed
    per-cell accumulation order. *)

type t = {
  values : Vec.t;   (** Eigenvalues in descending order. *)
  vectors : Mat.t;  (** Orthonormal eigenvectors as columns, aligned with [values]. *)
}

type info = {
  sweeps : int;      (** QL iterations summed over all eigenvalues. *)
  residual : float;  (** Remaining off-diagonal Frobenius norm of the
                         tridiagonal's sub-diagonal. *)
  converged : bool;  (** Whether every eigenvalue converged under the
                         iteration cap — false on a cap hit, and on inputs
                         carrying NaNs (which poison the residual). *)
}

val decompose : ?max_sweeps:int -> ?eps:float -> Mat.t -> t
(** [decompose a] for symmetric [a].  [eps] (default [1e-12]) is the
    relative per-entry deflation threshold.  [max_sweeps] (default 64) caps
    the QL iterations per eigenvalue.  Raises [Invalid_argument] if [a] is
    not square.  Both triangles are read: the input is symmetrized as
    [(a + aᵀ)/2] first, so tiny asymmetries from accumulation are averaged
    out rather than ignored (an asymmetric input is decomposed as its
    symmetric part).  Hitting the iteration cap logs a [Robust] warning; use
    {!decompose_info} or {!decompose_checked} to observe it structurally. *)

val decompose_info : ?max_sweeps:int -> ?eps:float -> Mat.t -> t * info
(** Same computation, plus the convergence record — the legacy-API view of
    the iteration cap. *)

val decompose_checked :
  ?stage:string -> ?max_sweeps:int -> ?eps:float -> Mat.t -> (t, Robust.failure) result
(** Guarded variant: [Error Non_finite] on a NaN/Inf input, [Error
    Not_converged] when the iteration cap is hit.  [stage] (default
    ["eigen"]) labels the failure for attribution. *)

val top_k : t -> int -> Mat.t
(** Eigenvectors of the [k] largest eigenvalues, as columns. *)
