(** The serving daemon's engine: a {!Registry} of independently supervised
    models, each with its own bounded-queue worker pool, circuit breaker,
    and failure domain.

    {b Threading model.}  One {!Event_loop} reactor owns every connection;
    [workers] compute threads {e per model} pop that model's own bounded
    queue.  Compute requests ([Transform]/[Predict]/[Refit]) go through
    the target model's queue; control requests ([Health]/[Ingest]/[Swap]/
    [Drain]/[List_models]/[Model_health]) run on a single control thread
    (via {!submit}) or inline on the caller (via {!handle}), never on a
    compute worker.  Numeric kernels stay deterministic under this
    concurrency because [Parallel.parallel_for] falls back to the (bitwise
    identical) sequential path when its domain pool is busy — the
    pool-size-independence contract.

    {b Micro-batching.}  Workers coalesce compatible [Transform]/[Predict]
    jobs waiting at the head of a model's queue — up to [batch_max]
    requests, lingering up to [batch_window_us] for stragglers when the
    queue runs dry — stacking their instance columns into one matrix and
    projecting with a single GEMM, then scattering columns back per
    request.  Results are {e bitwise identical} to sequential dispatch:
    each output column is an independent ascending-k dot product (the
    packed-kernel contract), so stacking changes throughput, never bits.
    Only shape-identical rectangular requests coalesce; anything else —
    mismatched dims, cold model, expired budget — takes the sequential
    path and fails (or serves) exactly as it always did.

    {b Failure domains} (each proven by [test/test_serve.ml]):
    - A fault targeting one model — torn swap, poisoned refit, crashed
      worker, exhausted respawn budget, tripped breaker, corrupt state
      dir — leaves every sibling's version counter and served projections
      bitwise unchanged.
    - A worker that dies on an uncaught exception answers its in-flight
      request(s) — the whole batch, if it was mid-batch — with a typed
      ["worker-crash"] error, is logged, and is respawned — up to
      [max_respawns] per model; past the budget the model's breaker is
      forced open (effectively permanently) and its queue is flushed with
      [R_unavailable], while other models serve on.
    - [failure_threshold] consecutive request failures (internal errors,
      crashes, deadline expiries) trip the model's breaker: requests are
      refused {e immediately} with [R_unavailable { retry_after_ms }] —
      no queueing, no compute — until the cooldown elapses, then
      deterministic single-flight half-open probes decide whether to
      re-close it.
    - Recovery scans per-model state directories independently: one model
      whose snapshots are all corrupt cold-starts with a warning; the rest
      load their newest valid snapshot.
    - The PR-8 single-model invariants are unchanged per model: deadlines
      ride each job as a {!Budget} created at enqueue, full queues shed
      typed [R_shed], invalid swaps never change the serving version,
      refits are single-flight and warm-started. *)

type config = {
  workers : int;
      (** Compute threads {e per model}.  [0] is allowed (nothing drains
          the queues — test rigs use it to observe shedding). *)
  queue_capacity : int;  (** Per-model bounded queue; overflow sheds. *)
  default_deadline_ms : int;
      (** Deadline applied when a request carries a negative one.
          [0] = expire immediately; negative = unlimited. *)
  io_timeout_s : float;
      (** Mid-frame stall timeout: a connection that has started a frame
          but not finished it within this window is dropped (slow-loris
          defence).  Idle connections (no partial frame) live forever. *)
  state_dir : string option;
      (** State {e root}: each model snapshots to
          [<root>/<id>/model-v%06d.tccm] after every install and at drain,
          and {!create} recovers every model found under it. *)
  refit_options : Cp_als.options;  (** Everything but [init] (warm-set). *)
  refit_retry : Retry.policy;
  swap_retry : Retry.policy;
  eps : float;  (** Whitening regularizer for refits. *)
  rank : int;   (** Rank for cold-start refits (live refits keep the
                    serving model's rank). *)
  breaker : Breaker.config;  (** Per-model circuit breaker thresholds. *)
  max_respawns : int;
      (** Crashed-worker respawn budget per model; past it the model is
          forced unavailable rather than flapping forever. *)
  batch_max : int;
      (** Most requests one GEMM batch may stack ([1] disables
          coalescing). *)
  batch_window_us : int;
      (** How long a worker lingers for stragglers once the queue runs dry
          mid-collection, in microseconds ([0]: take only what is already
          queued — no added latency). *)
}

val default_config : config
(** [workers = Parallel.num_domains ()] per model, queue 64, deadline
    5000 ms, io timeout 30 s, no state root, default ALS options / retry
    policies, eps 1e-2, rank 2, {!Breaker.default_config}, 4 respawns,
    [batch_max = 32], [batch_window_us = 0]. *)

type t

val create : ?model:Tcca.t -> config -> t
(** Build the engine: recover every model under [config.state_dir]
    (independently — see {!Registry.recover}), ensure the ["default"]
    model exists, and start each model's workers plus the control thread.
    [?model] seeds ["default"] at version 1, taking precedence over
    recovery for that model only. *)

val config : t -> config
(** The engine's configuration (the reactor reads [io_timeout_s]). *)

val batch_stats : t -> string -> (int * int) option
(** [(batches, batched_jobs)] for the named model: coalesced GEMM batches
    executed and requests served through them.  [None] for unknown ids. *)

val draining : t -> bool
(** Daemon-wide drain flag (per-model drains don't set it). *)

val request_drain : t -> unit
(** Flip the daemon-wide drain flag and fire every registered drain hook —
    async-signal-safe (an atomic store plus hooks that are themselves
    signal-safe: the reactor's is a nonblocking pipe write), so this is
    the SIGTERM handler's whole body.  New work is refused with
    ["draining"]; reactors wake immediately instead of on their next poll
    tick. *)

val add_drain_hook : t -> (unit -> unit) -> int
(** Register a hook fired by {!request_drain} (lock-free; the hook must be
    async-signal-safe).  Returns an id for {!remove_drain_hook}. *)

val remove_drain_hook : t -> int -> unit

val handle : t -> Protocol.request -> Protocol.response
(** Full synchronous dispatch for one request — breaker admission and the
    target model's queue for compute requests (so the caller blocks until
    a worker answers, is shed on overflow, is rejected while the breaker
    is open, etc.); control requests run inline.  Exposed for in-process
    tests and benches. *)

val submit : t -> Protocol.request -> (Protocol.response -> unit) -> unit
(** Asynchronous dispatch — the reactor's entry point.  Never blocks the
    caller on compute or control work: refusals (breaker, shed, draining,
    unknown model) invoke the callback on the calling thread before
    returning; accepted compute jobs are answered from a worker thread;
    control requests are answered from the control thread.  The callback
    is invoked exactly once and must not block or raise. *)

val drain_and_stop : t -> unit
(** Graceful daemon shutdown: refuse new work, then drain every model
    (flush its queue — in-flight batches complete, nothing half-answered —
    stop its workers, snapshot it), then stop the control thread. *)
