(** Cooperative deadlines and iteration budgets for long-running solves.

    A production fit must not hang a caller: the fit solver, [Cp_als],
    accepts a budget and probes it {e once per sweep} at the loop head.
    When the budget expires the solver stops at that sweep boundary and
    returns its best-so-far model with [converged = false] and a
    {!Robust.Deadline_exceeded} diagnostic — it never raises and never
    discards completed work.  ALS iterates improve (near-)monotonically
    (Chen, Kolar & Tsay 2021), which is what makes the best-so-far snapshot
    a principled degradation target rather than a random partial state.

    The clock starts at {!create}, not at the first check, so a budget built
    by a caller and threaded through [Tcca.fit_checked] bounds the whole fit
    including preparation time spent before the sweep loop. *)

type t

val unlimited : t
(** Never expires; every probe is two [option] compares.  The default of all
    solver entry points. *)

val create : ?wall_seconds:float -> ?sweeps:int -> unit -> t
(** [create ?wall_seconds ?sweeps ()] expires when either limit is hit:
    [wall_seconds] of wall-clock time since creation, or [sweeps] solver
    sweeps completed.  Omitting both yields {!unlimited}.  Raises
    [Invalid_argument] on negative limits; [~sweeps:0] (or [~wall_seconds:0.])
    expires at the first probe — the degenerate "return the initialization"
    budget. *)

val is_unlimited : t -> bool

val expired : stage:string -> sweeps:int -> t -> Robust.failure option
(** The per-sweep probe: [Some (Deadline_exceeded _)] once a limit is hit
    (naming [stage] and the tripped limit), [None] otherwise.  When the
    {!Robust.Inject.Deadline_now} fault is armed, every probe reports
    expiry. *)

val remaining_seconds : t -> float option
(** Wall-clock seconds left ([None] when no wall limit is set); never
    negative.  Useful for splitting one budget across pipeline stages. *)
