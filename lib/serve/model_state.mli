(** One model's serving state as an immutable value, and {!step}, the pure
    transition that applies one event to it.  Every rule of the daemon's
    per-model bookkeeping lives here — the version counter, the refit
    accumulator and its counts, the refit disposition, drain, the circuit
    breaker, the respawn budget and the batch counters; {!Server} does the
    I/O, holds the locks and runs one {!step} per critical section.

    A step depends only on the state, the event and the time [now] the
    caller passes, so a test folds events over a state without a daemon. *)

type accumulator = {
  builder : Tcca.Builder.t;
      (** The refit statistics, folded in place by Ingest under the model's
          lock; everything else in {!t} is immutable. *)
  dims : int array;  (** The view dimensions the builder was created with. *)
}

type t = private {
  breaker_config : Breaker.config;
  version : int;  (** 0 = cold; one more per installed refit or swap. *)
  model : Tcca.t option;
  acc : accumulator option;  (** Created by the first Ingest. *)
  ingested : int;  (** Instances ingested over the model's lifetime. *)
  since_fit : int;
      (** Instances ingested since the last installed refit, or since a swap
          that changed the view dimensions. *)
  last_refit : string;
      (** ["never"], ["installed vN"], ["retained"] or ["failed: …"]. *)
  draining : bool;  (** Per-model drain: absorbing; siblings unaffected. *)
  breaker : Breaker.state;
  respawns : int;  (** Workers respawned after crashes. *)
  batches : int;  (** Coalesced GEMM batches (≥ 2 requests in one product). *)
  batched_jobs : int;  (** Requests served through those batches. *)
}

val init : Breaker.config -> t
(** Cold: version 0, no model, no accumulator, breaker closed.  Raises
    [Invalid_argument] on a bad breaker config ({!Breaker.init}). *)

(** An event, indexed by what {!step} answers for it. *)
type _ event =
  | Seed : { model : Tcca.t; version : int } -> unit event
      (** A model recovered from disk, or the daemon's [?model]. *)
  | Ingested : { acc : accumulator; n : int } -> unit event
      (** [n] instances folded into [acc] (from {!accumulator}). *)
  | Refit_installed : Tcca.t -> unit event
  | Refit_retained : unit event  (** Nothing new since the last fit. *)
  | Refit_failed : string -> unit event
  | Swap_installed : Tcca.t -> unit event
      (** A swap to a model of other view dimensions than the accumulator's
          drops the accumulator and zeroes [since_fit]; equal dimensions
          keep both. *)
  | Drain : unit event
  | Admit : Breaker.admission event  (** Breaker admission of one request. *)
  | Served : Protocol.response -> unit event
      (** A request's answer, judged by the breaker: crashes, internal
          errors, failed refits and blown deadlines fail; results and typed
          refusals ([no-model], [bad-request], [refit-busy]) succeed; other
          replies are not outcomes. *)
  | Shed : { probe : bool } -> unit event
      (** An admitted request shed by a full queue: a shed probe fails. *)
  | Batch : int -> unit event  (** One coalesced batch of that many requests. *)
  | Crash : { budget : int; stopping : bool; last : bool } -> bool event
      (** A worker died.  Answers whether to respawn it: while fewer than
          [budget] respawns were spent and neither the model nor the daemon
          ([stopping]) drains.  Otherwise, if it was the [last] worker, the
          breaker is forced open for a day. *)

val step : t -> now:float -> 'a event -> t * 'a

val accumulator : t -> Mat.t array -> accumulator
(** Where an Ingest of these views folds: the current accumulator, else a
    new one shaped after the model's view dimensions, or after the views'
    when cold.  Raises [Invalid_argument] when a new one cannot be shaped
    so ({!Tcca.Builder.create}). *)
