(** Randomized CP-ALS (after CPRAND, Battaglino, Ballard & Kolda 2018) — the
    paper's future-work direction of "efficient tensor decomposition methods
    that could speed up TCCA", implemented as a drop-in alternative to
    {!Cp_als}.

    Each least-squares update
    [min ‖X₍ₖ₎ − Uₖ Zₖᵀ‖] (with [Zₖ] the Khatri–Rao of the other factors)
    is solved on a uniform sample of its rows: a row of [Zₖ] is one index
    tuple [(i_q)_{q≠k}], so a sampled row costs O(m·r) to form and the
    sampled normal equations cost O(s·(r² + dₖ·r)) instead of touching all
    [Πdₚ] entries.  With [s ≈ 10·r·ln r] the factor-recovery quality matches
    full ALS on well-conditioned tensors at a fraction of the flops — the
    [abl-solver] bench quantifies the trade on the whitened covariance
    tensor. *)

type options = {
  max_iter : int;             (** Default 60. *)
  tol : float;                (** Stop when the sampled-fit estimate improves
                                  by less than this (default 1e-5). *)
  samples_per_mode : int option;
      (** LS sample count; [None] picks [max 64 (10·r·⌈ln(r+1)⌉)]. *)
  fit_samples : int;          (** Entries sampled to estimate the fit
                                  (default 4096). *)
  min_fit : float option;
      (** Accuracy gate: a final sampled fit below this surfaces as
          [info.failure = Some Not_converged] — the first-class solver
          contract that a sampled solve never silently ships a bad model.
          [None] (default) keeps the historical always-[Ok] behavior. *)
  seed : int;
}

val default_options : options

type info = {
  iterations : int;
  sampled_fit : float;  (** Final fit estimate from sampled entries. *)
  converged : bool;
  failure : Robust.failure option;
      (** [Some (Not_converged _)] when the [min_fit] accuracy gate rejected
          the model (residual = 1 − sampled fit).  Budget-expired solves are
          exempt: best-so-far with the deadline diagnostic is the
          documented degradation, not an error. *)
  deadline : Robust.failure option;
      (** [Some (Deadline_exceeded _)] when a budget stopped the solve at a
          sweep boundary; the model is the best-so-far state. *)
}

val decompose_op :
  ?options:options -> ?budget:Budget.t -> rank:int -> Op_tensor.t -> Kruskal.t * info
(** Raises [Invalid_argument] if [rank < 1]; [budget] is probed once per
    sweep.  [Dense] factors are initialized as in {!Cp_als}
    (HOSVD-style).  [Factored] samples the implicit tensor directly (an
    entry costs O(n·m), a mode-k fiber O(n·(m + dₖ)) where n is the
    component count), so nothing of size ∏dₚ is ever materialized.  The
    factored path initializes factors from the seeded Gaussian stream
    instead of HOSVD — the mode Grams HOSVD needs cost an O(n²·Σdₚ) pass
    over the view Grams, more than the sampled sweeps this path exists to
    keep cheap. *)
