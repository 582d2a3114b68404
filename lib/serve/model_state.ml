type accumulator = { builder : Tcca.Builder.t; dims : int array }

type t = {
  breaker_config : Breaker.config;
  version : int;
  model : Tcca.t option;
  acc : accumulator option;
  ingested : int;
  since_fit : int;
  last_refit : string;
  draining : bool;
  breaker : Breaker.state;
  respawns : int;
  batches : int;
  batched_jobs : int;
}

let init breaker_config =
  { breaker_config;
    version = 0;
    model = None;
    acc = None;
    ingested = 0;
    since_fit = 0;
    last_refit = "never";
    draining = false;
    breaker = Breaker.init breaker_config;
    respawns = 0;
    batches = 0;
    batched_jobs = 0 }

type _ event =
  | Seed : { model : Tcca.t; version : int } -> unit event
  | Ingested : { acc : accumulator; n : int } -> unit event
  | Refit_installed : { model : Tcca.t; version : int; fitted : int } -> bool event
  | Refit_retained : unit event
  | Refit_failed : string -> unit event
  | Swap_installed : Tcca.t -> unit event
  | Drain : unit event
  | Admit : Breaker.admission event
  | Served : Protocol.response -> unit event
  | Shed : { probe : bool } -> unit event
  | Batch : int -> unit event
  | Crash : { budget : int; stopping : bool; last : bool } -> bool event

(* The breaker judges served outcomes: what proves the serving path broken
   counts against it; a deterministic typed refusal is the path answering
   as specified; shedding and admission are not outcomes at all. *)
let outcome = function
  | Protocol.R_deadline _
  | Protocol.R_error { code = "internal" | "worker-crash" | "refit-failed"; _ } ->
    Some false
  | Protocol.R_matrix _ | Protocol.R_scores _ | Protocol.R_ok _
  | Protocol.R_error { code = "no-model" | "bad-request" | "refit-busy"; _ } ->
    Some true
  | _ -> None

let record s ~now ~ok = { s with breaker = Breaker.record s.breaker_config ~now ~ok s.breaker }

let step : type a. t -> now:float -> a event -> t * a =
 fun s ~now -> function
  | Seed { model; version } -> ({ s with model = Some model; version }, ())
  | Ingested { acc; n } ->
    ({ s with acc = Some acc; ingested = s.ingested + n; since_fit = s.since_fit + n }, ())
  | Refit_installed { model; version; fitted } ->
    if version = s.version then
      let version = s.version + 1 in
      ( { s with
          model = Some model;
          version;
          since_fit = s.since_fit - fitted;
          last_refit = Printf.sprintf "installed v%d" version },
        true )
    else
      (* A swap installed another model while this refit ran; the refit
         was warm-started from, and took its rank from, the model the swap
         replaced.  The swapped model stays. *)
      ({ s with last_refit = "superseded by swap" }, false)
  | Refit_retained -> ({ s with last_refit = "retained" }, ())
  | Refit_failed message -> ({ s with last_refit = "failed: " ^ message }, ())
  | Swap_installed model ->
    let s = { s with model = Some model; version = s.version + 1 } in
    (* Statistics of other view dimensions can neither take the swapped
       model's ingests nor refit it. *)
    ( (match s.acc with
      | Some { dims; _ } when dims <> Tcca.view_dims model ->
        { s with acc = None; since_fit = 0 }
      | _ -> s),
      () )
  | Drain -> ({ s with draining = true }, ())
  | Admit ->
    let admission, breaker = Breaker.admit ~now s.breaker in
    ({ s with breaker }, admission)
  | Served resp -> ((match outcome resp with Some ok -> record s ~now ~ok | None -> s), ())
  | Shed { probe } -> ((if probe then record s ~now ~ok:false else s), ())
  | Batch jobs -> ({ s with batches = s.batches + 1; batched_jobs = s.batched_jobs + jobs }, ())
  | Crash { budget; stopping; last } ->
    if s.respawns < budget && not (s.draining || stopping) then
      ({ s with respawns = s.respawns + 1 }, true)
    else if last then
      (* No worker will ever pop this model's queue again. *)
      ({ s with breaker = Breaker.force_open ~now ~cooldown_s:86400. s.breaker }, false)
    else (s, false)

let accumulator s views =
  match s.acc with
  | Some acc -> acc
  | None ->
    let dims =
      match s.model with
      | Some m -> Tcca.view_dims m
      | None -> Array.map (fun v -> fst (Mat.dims v)) views
    in
    { builder = Tcca.Builder.create ~dims; dims }
