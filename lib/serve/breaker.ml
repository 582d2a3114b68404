(* Three-state circuit breaker.  No internal locking (the server holds the
   owning model's entry lock) and no internal randomness: trips are counted,
   the cooldown is a config constant, and half-open probes are single-flight
   — so every transition is a deterministic function of the request/outcome
   sequence and the injected clock. *)

type config = {
  failure_threshold : int;
  open_cooldown_s : float;
  half_open_successes : int;
}

let default_config = { failure_threshold = 5; open_cooldown_s = 1.0; half_open_successes = 2 }

type state =
  | Closed of { failures : int }
  | Open of { until : float }
  | Half_open of { successes : int; probing : bool }

type t = { cfg : config; now : unit -> float; mutable st : state }

let create ?(now = Unix.gettimeofday) cfg =
  if cfg.failure_threshold < 1 then invalid_arg "Breaker.create: failure_threshold < 1";
  if cfg.half_open_successes < 1 then invalid_arg "Breaker.create: half_open_successes < 1";
  { cfg; now; st = Closed { failures = 0 } }


let state_name t =
  match t.st with
  | Closed _ -> "closed"
  | Open _ -> "open"
  | Half_open _ -> "half-open"

let failures t =
  match t.st with
  | Closed { failures } -> failures
  | Open _ -> t.cfg.failure_threshold
  | Half_open _ -> 0

type admission = Admit | Probe | Reject of { retry_after_ms : int }

let remaining_ms t until =
  let left = until -. t.now () in
  if left <= 0. then 0 else int_of_float (ceil (left *. 1000.))

let admit t =
  match t.st with
  | Closed _ -> Admit
  | Open { until } ->
    if t.now () >= until then begin
      (* Cooldown served: this very request is the first half-open probe. *)
      t.st <- Half_open { successes = 0; probing = true };
      Probe
    end
    else Reject { retry_after_ms = max 1 (remaining_ms t until) }
  | Half_open { successes; probing } ->
    if probing then
      (* Single-flight: a second request during a probe cannot add evidence,
         so it waits out (roughly) one more probe round trip. *)
      Reject { retry_after_ms = 1 }
    else begin
      t.st <- Half_open { successes; probing = true };
      Probe
    end

let trip t =
  t.st <- Open { until = t.now () +. t.cfg.open_cooldown_s }

let record t ~ok =
  match t.st with
  | Closed { failures } ->
    if ok then (if failures > 0 then t.st <- Closed { failures = 0 })
    else if failures + 1 >= t.cfg.failure_threshold then trip t
    else t.st <- Closed { failures = failures + 1 }
  | Half_open { successes; probing = _ } ->
    if not ok then trip t
    else if successes + 1 >= t.cfg.half_open_successes then t.st <- Closed { failures = 0 }
    else t.st <- Half_open { successes = successes + 1; probing = false }
  | Open _ -> ()

let force_open t ~cooldown_s = t.st <- Open { until = t.now () +. cooldown_s }

let retry_after_ms t =
  match t.st with
  | Open { until } -> max 1 (remaining_ms t until)
  | Closed _ | Half_open _ -> 0
