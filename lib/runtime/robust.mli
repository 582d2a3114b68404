(** Numerics guardrails: structured failure reporting, warning capture, and a
    fault-injection hook for the TCCA/KTCCA solve path.

    The paper's high-dimension / small-sample regime is exactly where the
    whitening step ([C̃pp^{−1/2}], Theorem 2) and KTCCA's Cholesky of
    [K²pp + εKpp] go numerically bad: near-singular covariances, indefinite
    kernel Grams, ALS swamps.  This module gives every such event a typed
    value so callers can distinguish "recovered after escalation" from
    "structured failure" — and so nothing ever degrades into a silent NaN
    model.  The decomposition modules in [lib/linalg], the ALS solver and the
    two fit paths all report through this type; see DESIGN.md §"Robustness"
    for the escalation policies built on top of it. *)

(** Everything that can go numerically wrong on a solve path.  The [stage]
    fields name where in the pipeline the event happened (e.g.
    ["tcca.whiten view 1"], ["cp_als"]) so multi-view failures stay
    attributable. *)
type failure =
  | Not_converged of { stage : string; sweeps : int; residual : float }
      (** An iteration (Jacobi sweeps, ALS) hit its cap or stalled;
          [residual] is the stage's own convergence measure (off-diagonal
          norm for Jacobi, [1 − fit] for ALS). *)
  | Not_positive_definite of {
      stage : string;
      pivot : int;       (** Index of the failing Cholesky pivot. *)
      value : float;     (** Its (non-positive) value. *)
      jitter_tried : float;
          (** Largest diagonal jitter attempted before giving up;
              [0.] when no escalation ran. *)
    }
  | Non_finite of { stage : string; where : string }
      (** A NaN/Inf was caught at a stage boundary; [where] names the
          offending object (a view, the whitened operator, a sweep's fit). *)
  | Rank_deficient of { view : int; rank : int; dim : int }
      (** A view's covariance has numerical rank 0 (or otherwise too low to
          proceed): [rank] of [dim] directions carry information. *)
  | Deadline_exceeded of { stage : string; sweeps : int; elapsed : float; limit : string }
      (** A cooperative budget ({!Budget}) expired: the stage stopped at a
          sweep boundary after [sweeps] sweeps and [elapsed] wall-clock
          seconds.  [limit] names the budget that tripped (e.g. ["wall 2.5s"],
          ["sweeps 50"]).  Unlike every other constructor this one usually
          travels with a {e valid} best-so-far model — solvers report it in
          their info records and the warnings ring, not as a fit error. *)

exception Error of failure
(** Raised by the exception-style entry points ([Tcca.fit], [Ktcca.fit], …)
    when their [result]-returning [_checked] twin would return [Error].
    A printer is registered, so an uncaught one renders readably. *)

val failure_to_string : failure -> string

val fail : failure -> 'a
(** [fail f] = [raise (Error f)]. *)

(** {1 Warnings}

    Guardrail events that were recovered (a ridge escalation, a Jacobi cap, a
    restarted ALS run) are worth surfacing but not worth failing over.  They
    go to the [logs] library (source ["tcca.robust"]) and into a small
    in-process ring buffer that tests and callers can inspect without
    installing a reporter.

    The ring is domain-safe: [warnf], [recent_warnings] and [clear_warnings]
    may be called from pool-worker domains concurrently (guardrails fire
    inside parallel regions); entries are serialized under an internal
    leaf-level mutex. *)

val warnf : ('a, unit, string, unit) format4 -> 'a
(** Printf-style warning: appended to the ring buffer and forwarded to
    [Logs.warn] on the ["tcca.robust"] source. *)

val recent_warnings : unit -> string list
(** The captured warnings, oldest first (capped; older entries drop).
    Non-destructive: repeated calls return the same entries until
    {!clear_warnings} or {!drain_warnings} runs. *)

val clear_warnings : unit -> unit

val drain_warnings : unit -> string list
(** Read-and-clear, atomically: returns the captured warnings oldest first
    and empties the ring in one critical section, so a long-lived process
    (the serving daemon) can ship warning batches to its log without ever
    re-reporting an entry or losing one.

    Mutex contract: the ring is guarded by a single internal leaf-level
    mutex shared by {!warnf}, {!recent_warnings}, {!clear_warnings} and this
    function.  A [warnf] racing a [drain_warnings] lands either in the
    returned batch or in the ring for the next drain — never in both and
    never dropped.  Two concurrent drains partition the entries between
    them. *)

(** {1 Fault injection}

    [Inject] lets tests corrupt chosen pipeline stages to prove that every
    degradation path ends in a recovered model or a typed {!failure} — never
    a silent NaN model.  Disabled (the default), every probe is a single
    [bool] load, so production paths pay nothing.  Not domain-safe by design:
    arm/disarm from the test's main domain only. *)
module Inject : sig
  type stage =
    | Covariance_nan   (** Poison the covariance statistics with a NaN. *)
    | View_column_zero (** Zero one instance column of view 0. *)
    | Gram_indefinite  (** Make view 0's whitening target indefinite. *)
    | Sweep_cap
        (** Force symmetric eigendecompositions (either method — Jacobi
            sweeps or tridiagonal QL iterations) to a 0-iteration cap. *)
    | Als_nan          (** Poison every ALS sweep's fit with NaN. *)
    | Torn_checkpoint_write
        (** Simulate a crash mid-[Checkpoint.save]: a truncated file lands at
            the destination path (the atomic temp-file + rename protocol is
            bypassed, which is exactly what it protects against). *)
    | Corrupt_checkpoint
        (** Flip one payload byte after the CRC is computed, so the next
            [Checkpoint.load] fails its integrity check. *)
    | Deadline_now
        (** Make every [Budget] check report immediate expiry, regardless of
            the actual clocks. *)
    | Slow_client
        (** Serving: pretend a connected client stalls mid-frame, so the
            daemon's per-connection read timeout must fire and the
            connection must be dropped without wedging a worker. *)
    | Torn_swap
        (** Serving: truncate the bytes of a hot-swap model read, so the
            swap must fail validation and roll back to the serving
            version. *)
    | Queue_full
        (** Serving: make the bounded request queue report overflow on every
            enqueue, forcing the load-shedding reply path. *)
    | Refit_nan
        (** Serving: poison the covariance statistics of an incremental
            refit (via the same NaN guardrail the fit path uses), so the
            refit must fail typed and leave the serving model unchanged. *)
    | Worker_crash
        (** Serving: make a model's compute worker die from an uncaught
            exception mid-request, so the supervisor must answer the
            in-flight request typed, log the death, and respawn the worker
            within its capped budget — siblings untouched. *)
    | Breaker_probe_fail
        (** Serving: force the next half-open circuit-breaker probe to
            fail, so the breaker must fall back to Open (with a fresh
            cooldown) instead of re-closing. *)
    | Registry_corrupt_one
        (** Serving: during multi-model recovery, treat the alphabetically
            first model directory's snapshots as unreadable, so exactly
            that model cold-starts with a warning while every sibling
            loads its newest valid snapshot. *)
    | Torn_model_write
        (** Serving: simulate a crash mid-[Model_store.save] — a truncated
            file lands at the {e final} path with no fsync and no rename,
            which is exactly the failure mode the durable temp-file +
            fsync + rename protocol prevents. *)

  val arm : stage -> unit
  (** Arm a stage (enables injection globally). *)

  val disarm : stage -> unit

  val reset : unit -> unit
  (** Disarm everything and disable injection. *)

  val enabled : unit -> bool

  val active : stage -> bool
  (** [true] iff injection is enabled and [stage] is armed.  This is the
      probe production code calls; when nothing was ever armed it costs one
      [bool] dereference. *)

  val with_stage : stage -> (unit -> 'a) -> 'a
  (** [with_stage s f] arms [s], runs [f], and restores the previous armed
      set even on exception — the test-suite entry point. *)
end
