(* The daemon engine.  Concurrency layout, per model:

     the reactor ({!Event_loop}) or any caller ──▶ submit/handle
            │ control requests → the control thread (Health/Ingest/Swap/…)
            │ compute requests → breaker admission, then enqueue
            ▼                    (bounded, shed on overflow)
     entry queue ◀── entry workers (config.workers threads) ──▶ Transform/
                          │                                     Predict/Refit
                          └─ micro-batcher: compatible Transform/Predict
                             jobs at the queue head coalesce (≤ batch_max,
                             ≤ batch_window_us) into ONE stacked-column
                             GEMM, scattered back per request

   Every model owns its queue, workers, breaker, builder, and state dir —
   its failure domain.  The entry mutex guards the model/version/builder
   cell (plus breaker and worker accounting) and is only ever held for
   O(state) work — never across a fit or a transform, so a model serves at
   its old version while its refit runs, and siblings never wait on it at
   all.  Deadlines ride each job as a [Budget] created at *enqueue* time,
   so time spent queued counts against the request.

   Jobs carry a completion callback instead of a mailbox: the event loop
   submits asynchronously ({!submit}) and gets the response posted back to
   its completion queue; the synchronous {!handle} is a thin wrapper that
   parks the caller on a condition variable until the callback fires.

   Micro-batching is bitwise-exact: stacking request columns into one
   matrix and projecting with a single GEMM yields每 column the same bits
   as projecting it alone, because the packed kernel accumulates each
   output element independently in ascending-k order (the PR-6 contract).
   Requests whose shape does not match the serving model never enter a
   batch — they take the sequential path and fail with the same reply they
   always did.

   Supervision: a worker that dies on an uncaught exception answers its
   in-flight job(s) with a typed "worker-crash" error, records a breaker
   failure, logs, and is respawned — up to [max_respawns]; past the budget
   the last worker's death forces the breaker open (effectively
   permanently) and flushes the queue with [R_unavailable]. *)

let src = Logs.Src.create "tccad" ~doc:"TCCA serving daemon"

module Log = (val Logs.src_log src : Logs.LOG)

type config = {
  workers : int;
  queue_capacity : int;
  default_deadline_ms : int;
  io_timeout_s : float;
  state_dir : string option;
  refit_options : Cp_als.options;
  refit_retry : Retry.policy;
  swap_retry : Retry.policy;
  eps : float;
  rank : int;
  breaker : Breaker.config;
  max_respawns : int;
  batch_max : int;
  batch_window_us : int;
}

let default_config =
  { workers = Parallel.num_domains ();
    queue_capacity = 64;
    default_deadline_ms = 5000;
    io_timeout_s = 30.;
    state_dir = None;
    refit_options = Cp_als.default_options;
    refit_retry = Retry.default_policy;
    swap_retry = Retry.default_policy;
    eps = 1e-2;
    rank = 2;
    breaker = Breaker.default_config;
    max_respawns = 4;
    batch_max = 32;
    batch_window_us = 0 }

(* The control executor: one thread draining a queue of thunks, so the
   reactor never blocks on a Swap's file I/O or a Drain's thread joins.
   After shutdown ([alive = false], queue drained) thunks run inline on
   the submitting thread instead. *)
type control = {
  c_mutex : Mutex.t;
  c_cond : Condition.t;
  c_queue : (unit -> unit) Queue.t;
  mutable c_alive : bool;
  mutable c_thread : Thread.t option;
}

type t = {
  cfg : config;
  reg : Registry.t;
  drain_flag : bool Atomic.t;
  ctl : control;
  (* Immutable snapshot under an Atomic so {!request_drain} can run the
     hooks from a signal handler without ever taking a lock. *)
  drain_hooks : (int * (unit -> unit)) list Atomic.t;
  hook_seq : int Atomic.t;
}

let config t = t.cfg
let draining t = Atomic.get t.drain_flag

let add_drain_hook t f =
  let id = Atomic.fetch_and_add t.hook_seq 1 in
  let rec go () =
    let cur = Atomic.get t.drain_hooks in
    if not (Atomic.compare_and_set t.drain_hooks cur ((id, f) :: cur)) then go ()
  in
  go ();
  id

let remove_drain_hook t id =
  let rec go () =
    let cur = Atomic.get t.drain_hooks in
    let next = List.filter (fun (i, _) -> i <> id) cur in
    if not (Atomic.compare_and_set t.drain_hooks cur next) then go ()
  in
  go ()

let request_drain t =
  Atomic.set t.drain_flag true;
  (* Wake every registered reactor immediately (self-pipe writes): drain
     latency is bounded by a syscall, not a poll interval. *)
  List.iter (fun (_, f) -> try f () with _ -> ()) (Atomic.get t.drain_hooks)

let with_entry (e : Registry.entry) f =
  Mutex.lock e.Registry.e_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.Registry.e_mutex) f

let default_entry t =
  match Registry.find_or_create t.reg "default" with
  | Ok (e, _) -> e
  | Error _ -> assert false (* "default" is a valid id *)

let version t =
  let e = default_entry t in
  with_entry e (fun () -> e.Registry.version)

let model t =
  let e = default_entry t in
  with_entry e (fun () -> e.Registry.model)

let batch_stats t id =
  match Registry.find t.reg id with
  | None -> None
  | Some e ->
    Some (with_entry e (fun () -> (e.Registry.batches, e.Registry.batched_jobs)))

(* Guardrail events accumulated in Robust's ring (whitening escalations,
   warm-start fallbacks, supervision notices, recovery degradations) are
   shipped to the daemon log in batches — drained, so nothing is ever
   reported twice. *)
let ship_warnings () =
  List.iter (fun w -> Log.warn (fun m -> m "%s" w)) (Robust.drain_warnings ())

(* ------------------------------------------------------------------ *)
(* Deadlines. *)

let budget_of_deadline t deadline_ms =
  let ms = if deadline_ms < 0 then t.cfg.default_deadline_ms else deadline_ms in
  if ms < 0 then Budget.unlimited
  else Budget.create ~wall_seconds:(float_of_int ms /. 1000.) ()

let deadline_reply = function
  | Robust.Deadline_exceeded { stage; elapsed; _ } ->
    Protocol.R_deadline { stage; elapsed_ms = int_of_float (elapsed *. 1000.) }
  | f -> Protocol.R_error { code = "internal"; message = Robust.failure_to_string f }

(* ------------------------------------------------------------------ *)
(* Breaker plumbing.  The breaker judges *served* outcomes: things that
   prove the model's serving path broken (crashes, internal errors, failed
   refits, blown deadlines) count against it; deterministic typed refusals
   (no-model, bad-request, refit-busy) count as successes — the path
   answered exactly as specified; load shedding and admission decisions
   are not outcomes at all. *)

let breaker_outcome = function
  | Protocol.R_deadline _ -> Some false
  | Protocol.R_error { code = "internal" | "worker-crash" | "refit-failed"; _ } ->
    Some false
  | Protocol.R_matrix _ | Protocol.R_scores _ | Protocol.R_ok _ -> Some true
  | Protocol.R_error { code = "no-model" | "bad-request" | "refit-busy"; _ } ->
    Some true
  | _ -> None

let record_breaker (e : Registry.entry) resp =
  match breaker_outcome resp with
  | None -> ()
  | Some ok -> with_entry e (fun () -> Breaker.record e.Registry.breaker ~ok)

(* Record + deliver: every job gets exactly one of these. *)
let answer e (j : Registry.task) resp =
  record_breaker e resp;
  j.Registry.deliver resp

(* ------------------------------------------------------------------ *)
(* Compute handlers (worker side). *)

let transform_reply m views budget ~stage =
  match Budget.expired ~stage ~sweeps:0 budget with
  | Some f -> deadline_reply f
  | None -> (
    match Tcca.transform m views with
    | z -> Protocol.R_matrix z
    | exception Invalid_argument msg ->
      Protocol.R_error { code = "bad-request"; message = msg })

(* Per-instance high-order correlation score: sᵢ = Σₖ λₖ Πₚ Zₚ[k,i] — the
   rank-r canonical polyadic form of ρ(h₁ᵀx₁, …, hₘᵀxₘ) evaluated at
   instance i.  Shared verbatim by the sequential and batched paths: each
   score reads only its own column of the per-view projections, which is
   what makes cross-request stacking bitwise-exact. *)
let scores_of_projections m (zs : Mat.t array) ~off ~n =
  let lambda = Tcca.correlations m in
  let r = Array.length lambda in
  Array.init n (fun i ->
      let s = ref 0. in
      for k = 0 to r - 1 do
        let prod = ref lambda.(k) in
        Array.iter (fun z -> prod := !prod *. Mat.get z k (off + i)) zs;
        s := !s +. !prod
      done;
      !s)

let predict_reply m views budget =
  match Budget.expired ~stage:"serve.predict" ~sweeps:0 budget with
  | Some f -> deadline_reply f
  | None -> (
    match Array.mapi (fun p x -> Tcca.transform_view m p x) views with
    | exception Invalid_argument msg ->
      Protocol.R_error { code = "bad-request"; message = msg }
    | zs ->
      if Array.length views <> Tcca.n_views m then
        Protocol.R_error { code = "bad-request"; message = "view count mismatch" }
      else
        let n = snd (Mat.dims zs.(0)) in
        Protocol.R_scores (scores_of_projections m zs ~off:0 ~n))

let refit_reply t (e : Registry.entry) budget =
  if not (Mutex.try_lock e.Registry.refit_mutex) then
    Protocol.R_error { code = "refit-busy"; message = "another refit is in progress" }
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.Registry.refit_mutex)
      (fun () ->
        let live, since, builder =
          with_entry e (fun () -> (e.model, e.since_fit, e.builder))
        in
        let retained () =
          let v =
            with_entry e (fun () ->
                e.last_refit <- "retained";
                e.version)
          in
          Protocol.R_ok
            { version = v;
              note = "no new samples since last fit — serving model retained" }
        in
        match builder with
        (* Nothing new: skip the solve entirely so the reply provably
           serves the bit-identical live model. *)
        | None -> retained ()
        | Some _ when since = 0 -> retained ()
        | Some b -> (
          let attempt () =
            (* Builder folds race with Ingest; finalize under the entry
               lock (O(statistics), not O(fit)). *)
            let raw = with_entry e (fun () -> Tcca.Builder.finalize b) in
            let prep () = Tcca.prepare_of_raw_checked ~eps:t.cfg.eps raw in
            let prepared =
              (* [Refit_nan] reuses the fit path's own covariance-poison
                 guardrail, so the refit failure matrix is the real one. *)
              if Robust.Inject.(active Refit_nan) then
                Robust.Inject.with_stage Robust.Inject.Covariance_nan prep
              else prep ()
            in
            match prepared with
            | Error f -> Error f
            | Ok prepared ->
              let solver, rank =
                match live with
                | Some m -> (Tcca.warm_solver ~options:t.cfg.refit_options m, Tcca.r m)
                | None -> (Tcca.Als t.cfg.refit_options, t.cfg.rank)
              in
              Tcca.fit_prepared_checked ~solver ~budget ~r:rank prepared
          in
          let on_retry ~attempt ~delay err =
            Log.warn (fun m ->
                m "[%s] refit attempt %d failed (%s) — retrying in %.0f ms"
                  e.Registry.id attempt (Robust.failure_to_string err)
                  (delay *. 1000.))
          in
          match Retry.run ~policy:t.cfg.refit_retry ~on_retry attempt with
          | Ok model' ->
            let v =
              with_entry e (fun () ->
                  e.model <- Some model';
                  e.version <- e.version + 1;
                  e.since_fit <- 0;
                  e.last_refit <- Printf.sprintf "installed v%d" e.version;
                  e.version)
            in
            Registry.snapshot t.reg e;
            ship_warnings ();
            Protocol.R_ok
              { version = v; note = "refit installed: " ^ Tcca.solver_info model' }
          | Error gu ->
            ship_warnings ();
            let message =
              Printf.sprintf "%s (gave up after %d attempts, %.0f ms backoff)"
                (Robust.failure_to_string gu.Retry.ga_last_error)
                gu.Retry.ga_attempts
                (gu.Retry.ga_total_delay *. 1000.)
            in
            with_entry e (fun () -> e.last_refit <- "failed: " ^ message);
            Protocol.R_error { code = "refit-failed"; message }))

let no_model = Protocol.R_error { code = "no-model"; message = "serving cold: no model" }

(* A worker raising [Crashed] simulates an abrupt worker death (stack
   overflow, fatal signal in a C stub, …): the exception escapes the
   compute wrapper and kills the thread, exercising supervision. *)
exception Crashed

let compute t (e : Registry.entry) req budget =
  if Robust.Inject.(active Worker_crash) then raise Crashed;
  match req with
  | Protocol.Transform { views; _ } -> (
    match with_entry e (fun () -> e.model) with
    | None -> no_model
    | Some m -> transform_reply m views budget ~stage:"serve.transform")
  | Protocol.Predict { views; _ } -> (
    match with_entry e (fun () -> e.model) with
    | None -> no_model
    | Some m -> predict_reply m views budget)
  | Protocol.Refit _ -> refit_reply t e budget
  | Protocol.Health | Protocol.Ingest _ | Protocol.Swap _ | Protocol.Drain _
  | Protocol.List_models | Protocol.Model_health _ ->
    Protocol.R_error { code = "internal"; message = "control request on compute path" }

let worker_crashed =
  Protocol.R_error
    { code = "worker-crash"; message = "worker died serving this request" }

(* The plain sequential path: one job, exactly the PR-8/9 behavior.  Also
   the fallback for anything the batcher declines. *)
let run_single t (e : Registry.entry) (j : Registry.task) =
  let outcome =
    match compute t e j.Registry.req j.Registry.budget with
    | resp -> Ok resp
    | exception Crashed -> Error ()
    | exception ex ->
      Ok (Protocol.R_error { code = "internal"; message = Printexc.to_string ex })
  in
  match outcome with
  | Ok resp -> answer e j resp
  | Error () ->
    (* The in-flight request gets a typed answer before the thread dies —
       a crash must never leave a client waiting forever. *)
    answer e j worker_crashed;
    raise Crashed

(* ------------------------------------------------------------------ *)
(* Micro-batching.  Compatible Transform/Predict jobs at the queue head
   coalesce into one stacked-column product.  Two jobs are compatible when
   they are the same kind and every view agrees on its row count; a job
   enters a batch at all only if it is "rectangular" (every view has the
   same, nonzero column count) so the scatter offsets are well defined.
   Shape errors never reach the batched path: if the stacked views do not
   exactly match the serving model, every member is replayed through
   {!run_single} and fails with its usual sequential reply. *)

let views_of = function
  | Protocol.Transform { views; _ } | Protocol.Predict { views; _ } -> views
  | _ -> [||]

let batch_kind = function
  | Protocol.Transform _ -> 1
  | Protocol.Predict _ -> 2
  | _ -> 0

(* [Some n] iff every view has exactly [n ≥ 1] columns. *)
let rect_cols views =
  if Array.length views = 0 then None
  else
    let n = snd (Mat.dims views.(0)) in
    if n = 0 then None
    else if Array.for_all (fun v -> snd (Mat.dims v) = n) views then Some n
    else None

let coalescable req = batch_kind req > 0 && rect_cols (views_of req) <> None

let compatible a b =
  batch_kind a = batch_kind b
  && batch_kind a > 0
  &&
  let va = views_of a and vb = views_of b in
  Array.length va = Array.length vb
  && Array.for_all2 (fun x y -> fst (Mat.dims x) = fst (Mat.dims y)) va vb

(* Pop every compatible job sitting behind [first]; with a batching window
   configured, linger (in short naps) for stragglers while the queue is
   empty — but never past the window, never past [batch_max], and never
   once a Stop or an incompatible job reaches the head (drain must flush
   in arrival order, and a batch begun before drain always completes:
   Stop tokens are queued behind real jobs and are never popped here). *)
let collect_batch t (e : Registry.entry) (first : Registry.task) =
  if t.cfg.batch_max <= 1 || not (coalescable first.Registry.req) then [ first ]
  else begin
    let acc = ref [ first ] in
    let count = ref 1 in
    (* Take compatible jobs off the head; true iff the queue is empty
       afterwards (head incompatible → false → stop lingering). *)
    let grab () =
      Mutex.lock e.Registry.q_mutex;
      let rec take () =
        if !count < t.cfg.batch_max then
          match Queue.peek_opt e.Registry.queue with
          | Some (Registry.Job j2)
            when coalescable j2.Registry.req
                 && compatible first.Registry.req j2.Registry.req ->
            ignore (Queue.pop e.Registry.queue);
            acc := j2 :: !acc;
            incr count;
            take ()
          | _ -> ()
      in
      take ();
      let empty = Queue.is_empty e.Registry.queue in
      Mutex.unlock e.Registry.q_mutex;
      empty
    in
    let empty = grab () in
    let window = float_of_int t.cfg.batch_window_us *. 1e-6 in
    if window > 0. && empty && !count < t.cfg.batch_max && not (draining t) then begin
      let deadline = Unix.gettimeofday () +. window in
      let rec linger () =
        let left = deadline -. Unix.gettimeofday () in
        if !count < t.cfg.batch_max && left > 0. && not (draining t) then begin
          Thread.delay (Float.min 50e-6 left);
          if grab () then linger ()
        end
      in
      linger ()
    end;
    List.rev !acc
  end

let batch_cols (j : Registry.task) = snd (Mat.dims (views_of j.Registry.req).(0))

(* ≥ 2 jobs, same kind, per-view rows agree, all rectangular. *)
let process_coalesced t (e : Registry.entry) jobs =
  if Robust.Inject.(active Worker_crash) then begin
    List.iter (fun j -> answer e j worker_crashed) jobs;
    raise Crashed
  end;
  match with_entry e (fun () -> e.model) with
  | None -> List.iter (fun j -> answer e j no_model) jobs
  | Some m ->
    let first_views = views_of (List.hd jobs).Registry.req in
    let shape_ok =
      Array.length first_views = Tcca.n_views m
      && Array.for_all2
           (fun v d -> fst (Mat.dims v) = d)
           first_views (Tcca.view_dims m)
    in
    if not shape_ok then
      (* Doomed shapes replay sequentially so the error replies are the
         exact ones a lone request would have gotten. *)
      List.iter (run_single t e) jobs
    else begin
      let is_transform = batch_kind (List.hd jobs).Registry.req = 1 in
      let stage = if is_transform then "serve.transform" else "serve.predict" in
      let live, dead =
        List.partition_map
          (fun (j : Registry.task) ->
            match Budget.expired ~stage ~sweeps:0 j.Registry.budget with
            | Some f -> Right (j, f)
            | None -> Left j)
          jobs
      in
      List.iter (fun (j, f) -> answer e j (deadline_reply f)) dead;
      match live with
      | [] -> ()
      | [ j ] -> run_single t e j
      | live -> (
        let nb = List.length live in
        let stacked =
          Array.init (Array.length first_views) (fun p ->
              Mat.hcat_list
                (List.map (fun j -> (views_of j.Registry.req).(p)) live))
        in
        let outcome =
          if is_transform then
            match Tcca.transform m stacked with
            | z ->
              Ok
                (fun (j : Registry.task) off n ->
                  ignore j;
                  Protocol.R_matrix (Mat.sub_cols z off n))
            | exception ex -> Error ex
          else
            match Array.mapi (fun p x -> Tcca.transform_view m p x) stacked with
            | zs ->
              Ok
                (fun (j : Registry.task) off n ->
                  ignore j;
                  Protocol.R_scores (scores_of_projections m zs ~off ~n))
            | exception ex -> Error ex
        in
        match outcome with
        | Ok slice ->
          ignore
            (List.fold_left
               (fun off j ->
                 let n = batch_cols j in
                 answer e j (slice j off n);
                 off + n)
               0 live);
          with_entry e (fun () ->
              e.batches <- e.batches + 1;
              e.batched_jobs <- e.batched_jobs + nb)
        | Error ex ->
          (* Shapes were prechecked, so this is genuinely unexpected. *)
          let resp =
            Protocol.R_error { code = "internal"; message = Printexc.to_string ex }
          in
          List.iter (fun j -> answer e j resp) live)
    end

(* ------------------------------------------------------------------ *)
(* Queue, workers, supervision. *)

let unavailable (e : Registry.entry) =
  Protocol.R_unavailable
    { model_id = e.Registry.id;
      retry_after_ms = with_entry e (fun () -> Breaker.retry_after_ms e.breaker) }

let flush_queue (e : Registry.entry) resp_of =
  Mutex.lock e.Registry.q_mutex;
  Queue.iter
    (function
      | Registry.Job j -> j.Registry.deliver (resp_of ())
      | Registry.Stop -> ())
    e.queue;
  Queue.clear e.queue;
  Mutex.unlock e.q_mutex

let worker_loop t (e : Registry.entry) =
  let rec loop () =
    Mutex.lock e.Registry.q_mutex;
    while Queue.is_empty e.queue do
      Condition.wait e.q_cond e.q_mutex
    done;
    let job = Queue.pop e.queue in
    Mutex.unlock e.q_mutex;
    match job with
    | Registry.Stop -> ()
    | Registry.Job j ->
      (match collect_batch t e j with
      | [ lone ] -> run_single t e lone
      | batch -> process_coalesced t e batch);
      loop ()
  in
  loop ()

let rec spawn_worker t (e : Registry.entry) =
  with_entry e (fun () ->
      e.live_workers <- e.live_workers + 1;
      e.threads <- Thread.create (fun () -> supervised_loop t e) () :: e.threads)

(* The supervisor: a crash is logged, the dead worker replaced — with a
   capped budget, so a persistently crashing model converges to "breaker
   open, queue flushed" instead of a respawn storm, and its siblings never
   notice. *)
and supervised_loop t (e : Registry.entry) =
  try worker_loop t e
  with Crashed ->
    let respawn, last =
      with_entry e (fun () ->
          e.live_workers <- e.live_workers - 1;
          let ok =
            e.respawns < t.cfg.max_respawns
            && (not e.draining)
            && not (Atomic.get t.drain_flag)
          in
          if ok then e.respawns <- e.respawns + 1;
          (ok, e.live_workers = 0))
    in
    Robust.warnf "tccad[%s]: worker crashed — %s" e.Registry.id
      (if respawn then "respawning"
       else "respawn budget exhausted; model unavailable");
    if respawn then spawn_worker t e
    else if last then begin
      (* No worker will ever pop this queue again: force the breaker open
         (effectively permanently) and answer everything queued, so no
         client blocks on a dead model. *)
      with_entry e (fun () -> Breaker.force_open e.breaker ~cooldown_s:86400.);
      flush_queue e (fun () -> unavailable e)
    end

let deadline_of = function
  | Protocol.Transform { deadline_ms; _ }
  | Protocol.Predict { deadline_ms; _ }
  | Protocol.Refit { deadline_ms; _ } -> deadline_ms
  | Protocol.Health | Protocol.Ingest _ | Protocol.Swap _ | Protocol.Drain _
  | Protocol.List_models | Protocol.Model_health _ -> -1

(* Asynchronous enqueue: refusals (breaker, shed) are delivered on the
   calling thread; accepted jobs are answered later by a worker. *)
let enqueue_compute t (e : Registry.entry) req deliver =
  (* Admission first: an open breaker answers *before* any queueing, so a
     broken model costs its clients one frame round trip, not a deadline. *)
  let admission = with_entry e (fun () -> Breaker.admit e.Registry.breaker) in
  match admission with
  | Breaker.Reject { retry_after_ms } ->
    deliver (Protocol.R_unavailable { model_id = e.Registry.id; retry_after_ms })
  | Breaker.Probe when Robust.Inject.(active Breaker_probe_fail) ->
    (* Injected probe failure: the half-open probe dies before compute, so
       the breaker must re-open with a fresh cooldown. *)
    with_entry e (fun () -> Breaker.record e.breaker ~ok:false);
    deliver (Protocol.R_error { code = "internal"; message = "injected probe failure" })
  | Breaker.Admit | Breaker.Probe -> (
    let is_probe = admission = Breaker.Probe in
    let budget = budget_of_deadline t (deadline_of req) in
    Mutex.lock e.q_mutex;
    let depth = Queue.length e.queue in
    if depth >= t.cfg.queue_capacity || Robust.Inject.(active Queue_full) then begin
      Mutex.unlock e.q_mutex;
      (* Load shedding: a typed refusal now beats an unbounded queue OOMing
         later; the client owns the retry decision.  A shed *probe* must
         still report an outcome or the single-flight slot stays taken
         forever; overload while half-open reads as "not recovered yet". *)
      if is_probe then with_entry e (fun () -> Breaker.record e.breaker ~ok:false);
      deliver (Protocol.R_shed { depth; capacity = t.cfg.queue_capacity })
    end
    else begin
      Queue.push (Registry.Job { Registry.req; budget; deliver }) e.queue;
      Condition.signal e.q_cond;
      Mutex.unlock e.q_mutex;
      (* Close the admission/death race: if the model's last worker died
         between our admission check and the push, the supervisor's flush
         may have run before our job landed — flush again ourselves so no
         client can wait forever on a queue nothing will ever pop.  (The
         supervisor zeroes [live_workers] *before* it flushes, so one of
         the two flushes is guaranteed to see this job.) *)
      let dead =
        t.cfg.workers > 0
        && with_entry e (fun () ->
               e.live_workers = 0 && Breaker.retry_after_ms e.breaker > 0)
      in
      if dead then flush_queue e (fun () -> unavailable e)
    end)

(* ------------------------------------------------------------------ *)
(* Inline handlers (control side). *)

let queue_depth (e : Registry.entry) =
  Mutex.lock e.Registry.q_mutex;
  let d = Queue.length e.queue in
  Mutex.unlock e.q_mutex;
  d

let health t =
  ship_warnings ();
  (* Single-model-era health: answered with the "default" model's numbers
     so PR-8 monitoring keeps reading sense. *)
  let e = default_entry t in
  let version, r, dims, ingested, since_fit, e_draining =
    with_entry e (fun () ->
        let r, dims =
          match e.model with
          | None -> (0, [||])
          | Some m -> (Tcca.r m, Tcca.view_dims m)
        in
        (e.version, r, dims, e.ingested, e.since_fit, e.draining))
  in
  Protocol.R_health
    { version;
      r;
      dims;
      queue_depth = queue_depth e;
      queue_capacity = t.cfg.queue_capacity;
      workers = t.cfg.workers;
      ingested;
      since_fit;
      draining = draining t || e_draining }

let model_info (e : Registry.entry) =
  with_entry e (fun () ->
      { Protocol.mi_id = e.id;
        mi_version = e.version;
        mi_r = (match e.model with None -> 0 | Some m -> Tcca.r m);
        mi_breaker = Breaker.state_name e.breaker;
        mi_draining = e.draining })

let model_health t (e : Registry.entry) =
  let depth = queue_depth e in
  with_entry e (fun () ->
      let r, dims =
        match e.model with
        | None -> (0, [||])
        | Some m -> (Tcca.r m, Tcca.view_dims m)
      in
      { Protocol.mh_id = e.id;
        mh_version = e.version;
        mh_r = r;
        mh_dims = dims;
        mh_queue_depth = depth;
        mh_queue_capacity = t.cfg.queue_capacity;
        mh_workers = e.live_workers;
        mh_breaker = Breaker.state_name e.breaker;
        mh_retry_after_ms = Breaker.retry_after_ms e.breaker;
        mh_failures = Breaker.failures e.breaker;
        mh_respawns = e.respawns;
        mh_ingested = e.ingested;
        mh_since_fit = e.since_fit;
        mh_last_refit = e.last_refit;
        mh_draining = e.draining })

let ingest (e : Registry.entry) views =
  if Array.length views = 0 then
    Protocol.R_error { code = "bad-request"; message = "empty view array" }
  else
    let outcome =
      with_entry e (fun () ->
          match
            let b =
              match e.builder with
              | Some b -> b
              | None ->
                let dims =
                  match e.model with
                  | Some m -> Tcca.view_dims m
                  | None -> Array.map (fun v -> fst (Mat.dims v)) views
                in
                let b = Tcca.Builder.create ~dims in
                e.builder <- Some b;
                b
            in
            Tcca.Builder.add_batch b views
          with
          | () ->
            let n = snd (Mat.dims views.(0)) in
            e.ingested <- e.ingested + n;
            e.since_fit <- e.since_fit + n;
            Ok (e.version, n, e.ingested)
          | exception Invalid_argument msg -> Error msg)
    in
    match outcome with
    | Ok (version, n, total) ->
      Protocol.R_ok
        { version; note = Printf.sprintf "ingested %d instances (total %d)" n total }
    | Error msg -> Protocol.R_error { code = "bad-request"; message = msg }

let swap t (e : Registry.entry) path =
  match Retry.run ~policy:t.cfg.swap_retry (fun () -> Model_store.load ~path) with
  | Ok model' ->
    (* Validation (framing, CRC, version, structure, finiteness) happened
       before this point, so installation cannot need a rollback: a bad
       file simply never reaches the serving slot. *)
    let v =
      with_entry e (fun () ->
          e.model <- Some model';
          e.version <- e.version + 1;
          e.version)
    in
    Registry.snapshot t.reg e;
    ship_warnings ();
    Protocol.R_ok { version = v; note = "swapped in " ^ path }
  | Error gu ->
    let code =
      match gu.Retry.ga_last_error with
      | Checkpoint.Truncated -> "torn"
      | Checkpoint.Corrupt _ -> "corrupt"
      | Checkpoint.Version_mismatch { direction = Checkpoint.Newer; _ } ->
        "version-newer"
      | Checkpoint.Version_mismatch _ -> "version-older"
    in
    Protocol.R_error
      { code;
        message =
          Printf.sprintf "%s (%d attempts) — serving version %d unchanged"
            (Checkpoint.load_error_to_string gu.Retry.ga_last_error)
            gu.Retry.ga_attempts
            (with_entry e (fun () -> e.version)) }

(* Per-model drain: flush this model's queue through its own workers, stop
   them, snapshot — while every sibling keeps serving untouched. *)
let drain_entry t (e : Registry.entry) =
  let live =
    with_entry e (fun () ->
        e.draining <- true;
        e.live_workers)
  in
  Mutex.lock e.Registry.q_mutex;
  if live = 0 then begin
    (* No workers to flush the queue: answer leftovers inline so no client
       blocks forever on its callback. *)
    Queue.iter
      (function
        | Registry.Job j ->
          j.Registry.deliver
            (Protocol.R_error { code = "draining"; message = "model stopped" })
        | Registry.Stop -> ())
      e.queue;
    Queue.clear e.queue
  end
  else
    (* One Stop per live worker, queued *behind* the real jobs: in-flight
       work flushes — whole batches included — before the workers exit. *)
    for _ = 1 to live do
      Queue.push Registry.Stop e.queue
    done;
  Condition.broadcast e.q_cond;
  Mutex.unlock e.q_mutex;
  List.iter Thread.join e.threads;
  with_entry e (fun () ->
      e.threads <- [];
      e.live_workers <- 0);
  Registry.snapshot t.reg e

(* ------------------------------------------------------------------ *)
(* Routing and dispatch. *)

let unknown_model id =
  Protocol.R_error
    { code = "unknown-model"; message = Printf.sprintf "no model %S in registry" id }

(* Transform/Predict target an existing model; Ingest/Swap/Refit/Drain may
   create one (a cold entry with fresh workers) when the id is new and
   valid — how a second model is born on a live daemon. *)
let resolve t id = Registry.find t.reg id

let resolve_or_create t id =
  match Registry.find_or_create t.reg id with
  | Error msg -> Error (Protocol.R_error { code = "bad-request"; message = msg })
  | Ok (e, created) ->
    if created then
      for _ = 1 to t.cfg.workers do
        spawn_worker t e
      done;
    Ok e

let entry_draining (e : Registry.entry) = with_entry e (fun () -> e.draining)

let model_draining_reply (e : Registry.entry) =
  Protocol.R_error
    { code = "draining";
      message = Printf.sprintf "model %S is draining" e.Registry.id }

(* One routing function behind both {!handle} and {!submit}.  [run_control]
   decides where a control thunk executes (inline for the synchronous
   API, the control thread for the reactor); compute requests resolve and
   enqueue on the calling thread either way — admission and queue push are
   O(1) under leaf mutexes. *)
let dispatch t req ~deliver ~run_control =
  match req with
  | Protocol.Health -> run_control (fun () -> health t)
  | Protocol.List_models ->
    run_control (fun () ->
        Protocol.R_models (Array.of_list (List.map model_info (Registry.list t.reg))))
  | Protocol.Model_health { model_id } ->
    run_control (fun () ->
        match resolve t model_id with
        | None -> unknown_model model_id
        | Some e -> Protocol.R_model_health (model_health t e))
  | Protocol.Drain { model_id = "" } ->
    run_control (fun () ->
        request_drain t;
        Protocol.R_ok { version = version t; note = "draining" })
  | _ when draining t ->
    deliver
      (Protocol.R_error
         { code = "draining"; message = "server is draining — retry elsewhere" })
  | Protocol.Drain { model_id } ->
    run_control (fun () ->
        match resolve t model_id with
        | None -> unknown_model model_id
        | Some e ->
          if entry_draining e then model_draining_reply e
          else begin
            drain_entry t e;
            ship_warnings ();
            Protocol.R_ok
              { version = with_entry e (fun () -> e.version);
                note = Printf.sprintf "model %S drained" model_id }
          end)
  | (Protocol.Transform { model_id; _ } | Protocol.Predict { model_id; _ }) as req
    -> (
    match resolve t model_id with
    | None -> deliver (unknown_model model_id)
    | Some e ->
      if entry_draining e then deliver (model_draining_reply e)
      else enqueue_compute t e req deliver)
  | Protocol.Refit { model_id; _ } -> (
    match resolve_or_create t model_id with
    | Error resp -> deliver resp
    | Ok e ->
      if entry_draining e then deliver (model_draining_reply e)
      else enqueue_compute t e req deliver)
  | Protocol.Ingest { views; model_id } ->
    run_control (fun () ->
        match resolve_or_create t model_id with
        | Error resp -> resp
        | Ok e -> if entry_draining e then model_draining_reply e else ingest e views)
  | Protocol.Swap { path; model_id } ->
    run_control (fun () ->
        match resolve_or_create t model_id with
        | Error resp -> resp
        | Ok e -> if entry_draining e then model_draining_reply e else swap t e path)

(* Control-thread plumbing. *)

let control_loop (c : control) =
  let rec go () =
    Mutex.lock c.c_mutex;
    while Queue.is_empty c.c_queue && c.c_alive do
      Condition.wait c.c_cond c.c_mutex
    done;
    if Queue.is_empty c.c_queue then Mutex.unlock c.c_mutex
    else begin
      let f = Queue.pop c.c_queue in
      Mutex.unlock c.c_mutex;
      (try f () with _ -> ());
      go ()
    end
  in
  go ()

let post_control t f =
  let c = t.ctl in
  Mutex.lock c.c_mutex;
  if c.c_alive then begin
    Queue.push f c.c_queue;
    Condition.signal c.c_cond;
    Mutex.unlock c.c_mutex
  end
  else begin
    (* Post-shutdown (or a test rig that already drained): run inline so
       nothing is ever silently dropped. *)
    Mutex.unlock c.c_mutex;
    try f () with _ -> ()
  end

let stop_control t =
  let c = t.ctl in
  Mutex.lock c.c_mutex;
  c.c_alive <- false;
  Condition.broadcast c.c_cond;
  Mutex.unlock c.c_mutex;
  (match c.c_thread with Some th -> Thread.join th | None -> ());
  c.c_thread <- None

let submit t req deliver =
  dispatch t req ~deliver ~run_control:(fun f ->
      post_control t (fun () -> deliver (f ())))

(* Synchronous dispatch: control inline on the caller, compute through the
   target model's queue with the caller parked on a condition variable —
   exactly the surface PR-8/9 exposed to tests and benches. *)
let handle t req =
  let m = Mutex.create () in
  let cond = Condition.create () in
  let cell = ref None in
  let deliver resp =
    Mutex.lock m;
    cell := Some resp;
    Condition.signal cond;
    Mutex.unlock m
  in
  dispatch t req ~deliver ~run_control:(fun f -> deliver (f ()));
  Mutex.lock m;
  while !cell = None do
    Condition.wait cond m
  done;
  let resp = Option.get !cell in
  Mutex.unlock m;
  resp

(* ------------------------------------------------------------------ *)
(* Lifecycle. *)


let create ?model cfg =
  let reg = Registry.create ?root:cfg.state_dir ~breaker:cfg.breaker () in
  let ctl =
    { c_mutex = Mutex.create ();
      c_cond = Condition.create ();
      c_queue = Queue.create ();
      c_alive = true;
      c_thread = None }
  in
  let t =
    { cfg;
      reg;
      drain_flag = Atomic.make false;
      ctl;
      drain_hooks = Atomic.make [];
      hook_seq = Atomic.make 0 }
  in
  ctl.c_thread <- Some (Thread.create control_loop ctl);
  Registry.recover reg;
  let d =
    match Registry.find_or_create reg "default" with
    | Ok (e, _) -> e
    | Error _ -> assert false
  in
  (match model with
  | Some m ->
    (* An explicitly provided model seeds "default" at version 1, taking
       precedence over whatever recovery found for that model. *)
    with_entry d (fun () ->
        d.model <- Some m;
        d.version <- 1)
  | None -> ());
  if with_entry d (fun () -> d.model) = None then
    Log.info (fun m ->
        m "starting cold: no default model (transform requests will be refused)");
  List.iter
    (fun e ->
      for _ = 1 to cfg.workers do
        spawn_worker t e
      done)
    (Registry.list reg);
  t

let drain_and_stop t =
  request_drain t;
  List.iter
    (fun e -> if not (entry_draining e) then drain_entry t e)
    (Registry.list t.reg);
  stop_control t;
  ship_warnings ()
