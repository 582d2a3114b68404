(** Rank-r CP decomposition by alternating least squares — the solver TCCA
    uses for the best rank-1 (and recursively rank-r) approximation of the
    whitened covariance tensor (paper Sec. 4.3; Kroonenberg & De Leeuw 1980,
    Comon et al. 2009).

    Each sweep solves, for every mode k, the linear least-squares problem
    [min ‖X₍ₖ₎ − Uₖ diag(λ) Zₖᵀ‖] with [Zₖ] the Khatri–Rao product of the
    other factors, via the normal equations
    [Uₖ ← X₍ₖ₎ Zₖ (⊛_{q≠k} UqᵀUq)⁺].  The one entry point, {!decompose_op},
    takes the tensor as an [Op_tensor.t], so a materialized tensor
    ([Op_tensor.Dense]) and a factored operator run the same solver.

    {2 Robustness}

    A run is {e guarded}: a non-finite fit stops the sweep loop immediately
    (instead of burning [max_iter] sweeps on [NaN ≠ NaN]) and records a
    [Robust.Non_finite] diagnostic; a {e swamp} — the fit repeatedly falling
    well below its running best, the classic ALS oscillation — stops after
    [stall_sweeps] such drops with [Robust.Not_converged].  A failed run
    triggers up to [restarts] deterministic multi-start retries from
    [Random] initializations seeded by a [Mvutil.Rng] stream over
    [restart_seed]; the best run (clean ≻ converged ≻ highest fit) is
    returned, with every run's summary kept in [info.runs].  A clean run
    that merely exhausts [max_iter] never restarts — identical behaviour to
    the historical solver.

    {2 Budgets and checkpoints}

    An optional [?budget] is probed once per sweep (and once before each
    restart): on expiry the solver stops at that sweep boundary and returns
    its best-so-far model with [converged = false] and the
    [Robust.Deadline_exceeded] diagnostic in [info.deadline] — [info.failure]
    still describes only genuine numerical failures, so a deadline on an
    otherwise healthy run is {e not} an error.  An optional [?checkpoint]
    snapshots the full solve state (current run's loop variables, finished
    runs, restart position) through {!Checkpoint} every
    [every] sweeps plus at each run boundary; with [resume = true] a
    matching snapshot restores that state and the remaining sweeps replay
    the exact arithmetic — the resumed solve is bit-identical to an
    uninterrupted one at any [TCCA_DOMAINS] setting.  Unreadable, corrupt or
    mismatched snapshots degrade to a cold start with a typed warning;
    failed saves warn and continue unprotected.  Neither option changes any
    numerical path. *)

type init =
  | Random of int          (** Gaussian factors from the given seed. *)
  | Hosvd                  (** Leading eigenvectors of each unfolding's Gram
                               matrix (deterministic; random-padded when
                               [rank > dim]). *)
  | Warm of Mat.t array
      (** Start from the given per-mode factors — the incremental-refit
          path: the serving daemon hands in the live model's factors so a
          refit on slightly-changed statistics converges in a few sweeps.
          Columns are truncated (or seeded-Gaussian padded) to [rank]; a
          factor array whose order, row dims, or finiteness do not match
          the operator degrades to [Hosvd] with a {!Robust.warnf} warning
          rather than failing — a stale warm start must never take the
          daemon down.  Warm solves are not resumable: a [?checkpoint] is
          ignored with a warning (there is no recipe a snapshot could
          replay to recreate the starting factors). *)

type options = {
  max_iter : int;          (** Default 100. *)
  tol : float;             (** Stop when the fit improves by less than this
                               between sweeps.  Default 1e-6. *)
  init : init;             (** Default [Hosvd]. *)
  restarts : int;          (** Max multi-start retries after a {e failed}
                               (non-finite or swamped) run.  Default 2;
                               0 disables restarts. *)
  restart_seed : int;      (** Seed of the deterministic restart-seed stream.
                               Default [0x524F4253]. *)
  stall_sweeps : int;      (** Swamp threshold: sweeps with
                               [fit < best − (10·tol + 1e-7)] (counter reset
                               on a new best; 1e-7 is the fit's roundoff
                               near a perfect fit) before declaring a swamp.
                               Default 15. *)
}

val default_options : options

type run = {
  run_init : init;
  run_iterations : int;
  run_fit : float;
  run_converged : bool;
  run_failure : Robust.failure option;
}
(** Per-restart summary, oldest first in [info.runs]. *)

type info = {
  iterations : int;
  fit : float;             (** Final relative fit in [−∞, 1] (NaN if the
                               selected run died on a non-finite fit). *)
  converged : bool;
  fit_history : float list; (** Fit after each sweep of the selected run,
                                oldest first. *)
  failure : Robust.failure option;
      (** [None] iff the selected run ended cleanly (converged or hit
          [max_iter] with finite factors). *)
  deadline : Robust.failure option;
      (** [Some (Deadline_exceeded _)] when a budget stopped the solve; the
          returned model is the best-so-far state, not an error. *)
  runs : run list;         (** All runs attempted, in order; a singleton when
                               the first run was clean. *)
}

val decompose_op :
  ?options:options ->
  ?budget:Budget.t ->
  ?checkpoint:Checkpoint.config ->
  rank:int ->
  Op_tensor.t ->
  Kruskal.t * info
(** The generic solver: every sweep touches the tensor only through
    [Op_tensor.mttkrp] / [norm2] / [mode_gram], so a [Factored] operator is
    decomposed in O(n · Σₚ dₚ · r) per sweep without the ∏ₚ dₚ entries ever
    existing.  On [Dense] this is bit-for-bit the historical dense solver.
    Raises [Invalid_argument] if [rank < 1]. *)
