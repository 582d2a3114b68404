(* Three-state circuit breaker as pure transitions over [state].  No clock
   and no randomness of its own: trips are counted, the cooldown is a
   config constant, half-open probes are single-flight, and the caller
   passes [now] — so every transition is a deterministic function of the
   request/outcome sequence and the times it is given. *)

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

let init cfg =
  if cfg.failure_threshold < 1 then invalid_arg "Breaker.init: failure_threshold < 1";
  if cfg.half_open_successes < 1 then invalid_arg "Breaker.init: half_open_successes < 1";
  Closed { failures = 0 }

let state_name = function
  | Closed _ -> "closed"
  | Open _ -> "open"
  | Half_open _ -> "half-open"

let failures cfg = function
  | Closed { failures } -> failures
  | Open _ -> cfg.failure_threshold
  | Half_open _ -> 0

type admission = Admit | Probe | Reject of { retry_after_ms : int }

let remaining_ms ~now until =
  let left = until -. now in
  if left <= 0. then 0 else int_of_float (ceil (left *. 1000.))

let admit ~now st =
  match st with
  | Closed _ -> (Admit, st)
  | Open { until } ->
    if now >= until then
      (* Cooldown served: this very request is the first half-open probe. *)
      (Probe, Half_open { successes = 0; probing = true })
    else (Reject { retry_after_ms = max 1 (remaining_ms ~now until) }, st)
  | Half_open { successes; probing } ->
    if probing then
      (* Single-flight: a second request during a probe cannot add evidence,
         so it waits out (roughly) one more probe round trip. *)
      (Reject { retry_after_ms = 1 }, st)
    else (Probe, Half_open { successes; probing = true })

let force_open ~now ~cooldown_s _ = Open { until = now +. cooldown_s }

let record cfg ~now ~ok st =
  let trip () = force_open ~now ~cooldown_s:cfg.open_cooldown_s st in
  match st with
  | Closed { failures } ->
    if ok then Closed { failures = 0 }
    else if failures + 1 >= cfg.failure_threshold then trip ()
    else Closed { failures = failures + 1 }
  | Half_open { successes; probing = _ } ->
    if not ok then trip ()
    else if successes + 1 >= cfg.half_open_successes then Closed { failures = 0 }
    else Half_open { successes = successes + 1; probing = false }
  | Open _ -> st

let retry_after_ms ~now = function
  | Open { until } -> max 1 (remaining_ms ~now until)
  | Closed _ | Half_open _ -> 0
