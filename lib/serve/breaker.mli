(** Per-model circuit breaker: the state machine that turns "this model's
    requests keep failing" into an immediate typed refusal instead of a
    queue full of doomed work.

    Classic three-state breaker, deterministic by construction:

    - {b Closed} — requests flow; [failures] counts {e consecutive}
      failures (a success resets it).  Hitting
      [config.failure_threshold] trips the breaker to Open.
    - {b Open} — every admission is rejected with the remaining cooldown
      ([retry_after_ms]) until [config.open_cooldown_s] has elapsed, then
      the next admission becomes a half-open probe.
    - {b Half-open} — exactly one probe request is in flight at a time
      (single-flight, so re-closing is deterministic in the request
      sequence, not in a thread race); [config.half_open_successes]
      consecutive probe successes re-close the breaker, any probe failure
      re-opens it with a fresh cooldown.

    The module is {e not} thread-safe by itself: the server calls it under
    the owning model's entry lock.  The clock is injected ([?now]) so unit
    tests drive every transition without sleeping. *)

type config = {
  failure_threshold : int;  (** Consecutive failures that trip Closed→Open. *)
  open_cooldown_s : float;  (** Seconds Open rejects before probing. *)
  half_open_successes : int;
      (** Consecutive probe successes that re-close the breaker. *)
}

val default_config : config
(** 5 consecutive failures, 1 s cooldown, 2 probe successes. *)

type state =
  | Closed of { failures : int }
  | Open of { until : float }  (** Absolute [now]-clock time of the next probe. *)
  | Half_open of { successes : int; probing : bool }

type t

val create : ?now:(unit -> float) -> config -> t
(** [now] defaults to [Unix.gettimeofday]; tests inject a fake clock. *)

val state_name : t -> string
(** ["closed"] / ["open"] / ["half-open"] — the wire/CLI rendering. *)

val failures : t -> int
(** Consecutive-failure count while Closed, [failure_threshold] while
    Open, [0] while Half-open. *)

type admission =
  | Admit                               (** Closed: serve normally. *)
  | Probe                               (** Half-open: serve, and report the
                                            outcome — it decides the state. *)
  | Reject of { retry_after_ms : int }  (** Open (or a probe already in
                                            flight): refuse immediately. *)

val admit : t -> admission
(** Ask to serve one request now.  May transition Open→Half-open when the
    cooldown has elapsed.  A [Probe] admission marks the single-flight
    probe slot taken until {!record} reports its outcome. *)

val record : t -> ok:bool -> unit
(** Report one served request's outcome.  Closed: success resets the
    consecutive count, failure increments it and trips at the threshold.
    Half-open: the probe's outcome — success counts toward re-closing,
    failure re-opens with a fresh cooldown.  Open: ignored (a straggler
    that was admitted before the trip proves nothing either way). *)

val force_open : t -> cooldown_s:float -> unit
(** Trip to Open unconditionally with the given cooldown — the server's
    lever for structural faults that are not request outcomes (a model
    whose worker-respawn budget is exhausted gets an effectively
    permanent cooldown). *)

val retry_after_ms : t -> int
(** Remaining cooldown while Open (never negative), [0] otherwise. *)
