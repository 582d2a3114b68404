(** The multi-model registry: one named serving slot per model, each with
    its own state directory, version counter, refit accumulator, bounded
    job queue, circuit breaker, and health record — so that any fault
    (torn swap, poisoned refit, crashed worker, corrupt state dir) is
    contained to the model that suffered it.

    Division of labour with {!Server}: the registry owns naming, on-disk
    layout, per-model state and recovery; the server owns the concurrency
    discipline built on top (workers, supervision, breaker policy,
    dispatch).  The {!entry} record is therefore deliberately transparent:
    the server mutates it under the documented locks.

    {b Locking.}  [e_mutex] guards an entry's serving state (model,
    version, builder, counters, breaker, worker accounting); [q_mutex] +
    [q_cond] guard its job queue; [refit_mutex] single-flights its refits.
    All three are leaf-level per entry and never held across a fit or a
    transform.  The registry-level [reg_mutex] only guards the id → entry
    table (lookup/insert/list); entry locks are never taken under it.

    {b On-disk layout.}  Each model owns [<root>/<id>/model-v%06d.tccm].
    A PR-8 single-model state dir ([<root>/model-v*.tccm], no subdirs) is
    recovered as the ["default"] model — unless a [<root>/default/]
    directory exists, which then wins. *)

type task = {
  req : Protocol.request;
  budget : Budget.t;
  deliver : Protocol.response -> unit;
      (** Completion callback: invoked exactly once, on whichever thread
          finished the job (a worker, a flush, or the submitter itself for
          refusals).  Must not block and must not raise — the event loop's
          callback just posts to its completion queue. *)
}

type job = Job of task | Stop

type entry = {
  id : string;
  e_mutex : Mutex.t;
  mutable model : Tcca.t option;
  mutable version : int;
  mutable builder : Tcca.Builder.t option;
  mutable ingested : int;
  mutable since_fit : int;
  mutable last_refit : string;
      (** ["never"], ["installed vN"], ["retained"], ["failed: …"]. *)
  mutable draining : bool;  (** Per-model drain; siblings unaffected. *)
  breaker : Breaker.t;
  mutable respawns : int;      (** Workers respawned after crashes. *)
  mutable live_workers : int;  (** Workers currently running. *)
  mutable batches : int;       (** Coalesced GEMM batches executed (≥ 2
                                   requests stacked into one product). *)
  mutable batched_jobs : int;  (** Requests served through those batches. *)
  refit_mutex : Mutex.t;
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  queue : job Queue.t;
  mutable threads : Thread.t list;  (** Every worker ever spawned (dead
                                        ones join instantly). *)
}

type t

val create : ?root:string -> breaker:Breaker.config -> unit -> t
(** An empty registry.  [root] is the state root directory (created if
    missing); without it nothing persists.  Recovery is separate
    ({!recover}) so the server can wire workers to recovered entries. *)

val find : t -> string -> entry option

val find_or_create : t -> string -> (entry * bool, string) result
(** Look up, creating a cold entry when the id is new.  The [bool] is
    [true] iff the entry was just created (the server spawns its workers
    then).  [Error] (a message) on an invalid id — nothing is created. *)

val list : t -> entry list
(** All entries, sorted by id (deterministic listing order). *)

val snapshot : t -> entry -> unit
(** Durably write the entry's current model to its own directory as
    [model-v%06d.tccm] (no-op when cold or rootless; a failed write warns
    and continues — serving is never blocked on the disk). *)

val recover : t -> unit
(** Scan the root and populate the registry: each subdirectory with a
    valid id becomes a model, loading its newest snapshot that passes
    full validation; corrupt ones are skipped with warnings and a model
    whose snapshots all fail cold-starts with a warning — {e independently
    per model}, so one rotten state dir never poisons a sibling.  Legacy
    top-level [model-v*.tccm] files recover as ["default"] when no
    [default/] subdirectory exists.  With
    {!Robust.Inject.Registry_corrupt_one} armed, the alphabetically first
    model directory is treated as unreadable (cold start + warning) to
    prove mixed-health recovery end-to-end. *)
