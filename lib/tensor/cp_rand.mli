(** Randomized CP-ALS (after CPRAND, Battaglino, Ballard & Kolda 2018) — the
    paper's future-work direction of "efficient tensor decomposition methods
    that could speed up TCCA", kept as one of the solvers the [abl-solver]
    ablation compares with {!Cp_als} on the whitened covariance tensor.

    Each least-squares update
    [min ‖X₍ₖ₎ − Uₖ Zₖᵀ‖] (with [Zₖ] the Khatri–Rao of the other factors)
    is solved on a uniform sample of its rows: a row of [Zₖ] is one index
    tuple [(i_q)_{q≠k}], so a sampled row costs O(m·r) to form and the
    sampled normal equations cost O(s·(r² + dₖ·r)) instead of touching all
    [Πdₚ] entries.  With [s ≈ 10·r·ln r] the factor-recovery quality matches
    full ALS on well-conditioned tensors at a fraction of the flops. *)

type options = {
  max_iter : int;             (** Default 60. *)
  tol : float;                (** Stop when the sampled-fit estimate improves
                                  by less than this (default 1e-5). *)
  samples_per_mode : int option;
      (** LS sample count; [None] picks [max 64 (10·r·⌈ln(r+1)⌉)]. *)
  fit_samples : int;          (** Entries sampled to estimate the fit
                                  (default 4096). *)
  seed : int;
}

val default_options : options

type info = {
  iterations : int;
  sampled_fit : float;  (** Final fit estimate from sampled entries. *)
  converged : bool;
}

val decompose : ?options:options -> rank:int -> Tensor.t -> Kruskal.t * info
(** Raises [Invalid_argument] if [rank < 1].  Factors are initialized as in
    {!Cp_als} (HOSVD-style), padded from the seeded Gaussian stream when
    [rank] exceeds a mode size. *)
