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

   Every model owns its queue, workers, breaker, accumulator, and state
   dir — its failure domain.  Its serving state is one immutable
   {!Model_state.t} in an [Atomic.t]: readers take a snapshot and no lock;
   writers take the entry mutex and publish the result of one
   {!Model_state.step}.  The mutex also guards the accumulator's in-place
   folds and the worker accounting, and is only ever held for O(state)
   work — never across a fit or a transform, so a model serves at its old
   version while its refit runs, and siblings never wait on it at all.
   Deadlines ride each job as a [Budget] created at *enqueue* time, so time
   spent queued counts against the request.

   Jobs carry a completion callback instead of a mailbox: the event loop
   submits asynchronously ({!submit}) and gets the response posted back to
   its completion queue; the synchronous {!handle} is a thin wrapper that
   parks the caller on a condition variable until the callback fires.

   Micro-batching is bitwise-exact: stacking request columns into one
   matrix and projecting with a single GEMM yields each column the same bits
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

type task = {
  req : Protocol.request;
  budget : Budget.t;
  deliver : Protocol.response -> unit;
      (* Completion callback: invoked exactly once, on whichever thread
         finished the job (a worker, a flush, or the submitter itself for
         refusals).  Must not block and must not raise — the event loop's
         callback just posts to its completion queue. *)
}

type job = Job of task | Stop

(* One model's serving slot.  [lock] serializes the writers of [state],
   the accumulator's folds and the worker accounting; [q_mutex] + [q_cond]
   guard the queue; [refit_lock] single-flights refits.  All three are
   leaf-level and never held across a fit or a transform. *)
type entry = {
  id : string;
  state : Model_state.t Atomic.t;
  lock : Mutex.t;
  refit_lock : Mutex.t;
  q_mutex : Mutex.t;
  q_cond : Condition.t;
  queue : job Queue.t;
  mutable live_workers : int;
  mutable threads : Thread.t list;  (* Every worker ever spawned. *)
}

type t = {
  cfg : config;
  reg : entry Registry.t;
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

let state e = Atomic.get e.state

let locked e f =
  Mutex.lock e.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock e.lock) f

(* The one write of a model's serving state; the caller holds [e.lock]. *)
let advance e ev =
  let s, answer = Model_state.step (state e) ~now:(Unix.gettimeofday ()) ev in
  Atomic.set e.state s;
  (s, answer)

let apply e ev = locked e (fun () -> advance e ev)

let default_entry t =
  match Registry.find_or_create t.reg "default" with
  | Ok (e, _) -> e
  | Error _ -> assert false (* "default" is a valid id *)

let batch_stats t id =
  Option.map
    (fun e ->
      let s = state e in
      (s.Model_state.batches, s.batched_jobs))
    (Registry.find t.reg id)

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

(* Judge + deliver: every job gets exactly one of these. *)
let answer e (j : task) resp =
  ignore (apply e (Model_state.Served resp));
  j.deliver resp

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

let refit_reply t e budget =
  if not (Mutex.try_lock e.refit_lock) then
    Protocol.R_error { code = "refit-busy"; message = "another refit is in progress" }
  else
    Fun.protect
      ~finally:(fun () -> Mutex.unlock e.refit_lock)
      (fun () ->
        let s = state e in
        match s.acc with
        | Some acc when s.since_fit > 0 -> (
          let attempt () =
            (* Ingest folds into the builder in place; finalize under the
               entry lock (O(statistics), not O(fit)), with the count of
               instances it holds. *)
            let raw, fitted =
              locked e (fun () -> (Tcca.Builder.finalize acc.builder, (state e).since_fit))
            in
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
                match s.model with
                | Some m -> (Tcca.warm_solver ~options:t.cfg.refit_options m, Tcca.r m)
                | None -> (Tcca.Als t.cfg.refit_options, t.cfg.rank)
              in
              Result.map
                (fun model -> (model, fitted))
                (Tcca.fit_prepared_checked ~solver ~budget ~r:rank prepared)
          in
          let on_retry ~attempt ~delay err =
            Log.warn (fun m ->
                m "[%s] refit attempt %d failed (%s) — retrying in %.0f ms"
                  e.id attempt (Robust.failure_to_string err)
                  (delay *. 1000.))
          in
          match Retry.run ~policy:t.cfg.refit_retry ~on_retry attempt with
          | Ok (model', fitted) ->
            let s, installed =
              apply e
                (Model_state.Refit_installed { model = model'; version = s.version; fitted })
            in
            if installed then Registry.snapshot t.reg e.id s;
            ship_warnings ();
            Protocol.R_ok
              { version = s.version;
                note =
                  (if installed then "refit installed: " ^ Tcca.solver_info model'
                   else "refit superseded by a swap — serving model retained") }
          | Error gu ->
            ship_warnings ();
            let message =
              Printf.sprintf "%s (gave up after %d attempts, %.0f ms backoff)"
                (Robust.failure_to_string gu.Retry.ga_last_error)
                gu.Retry.ga_attempts
                (gu.Retry.ga_total_delay *. 1000.)
            in
            ignore (apply e (Model_state.Refit_failed message));
            Protocol.R_error { code = "refit-failed"; message })
        | _ ->
          (* Nothing new: skip the solve entirely so the reply provably
             serves the bit-identical live model. *)
          Protocol.R_ok
            { version = (fst (apply e Model_state.Refit_retained)).version;
              note = "no new samples since last fit — serving model retained" })

let no_model = Protocol.R_error { code = "no-model"; message = "serving cold: no model" }

(* A worker raising [Crashed] simulates an abrupt worker death (stack
   overflow, fatal signal in a C stub, …): the exception escapes the
   compute wrapper and kills the thread, exercising supervision. *)
exception Crashed

let compute t e req budget =
  if Robust.Inject.(active Worker_crash) then raise Crashed;
  match req with
  | Protocol.Transform { views; _ } -> (
    match (state e).model with
    | None -> no_model
    | Some m -> transform_reply m views budget ~stage:"serve.transform")
  | Protocol.Predict { views; _ } -> (
    match (state e).model with
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
let run_single t e (j : task) =
  let outcome =
    match compute t e j.req j.budget with
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
let collect_batch t e (first : task) =
  if t.cfg.batch_max <= 1 || not (coalescable first.req) then [ first ]
  else begin
    let acc = ref [ first ] in
    let count = ref 1 in
    (* Take compatible jobs off the head; true iff the queue is empty
       afterwards (head incompatible → false → stop lingering). *)
    let grab () =
      Mutex.lock e.q_mutex;
      let rec take () =
        if !count < t.cfg.batch_max then
          match Queue.peek_opt e.queue with
          | Some (Job j2) when coalescable j2.req && compatible first.req j2.req ->
            ignore (Queue.pop e.queue);
            acc := j2 :: !acc;
            incr count;
            take ()
          | _ -> ()
      in
      take ();
      let empty = Queue.is_empty e.queue in
      Mutex.unlock e.q_mutex;
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

let batch_cols (j : task) = snd (Mat.dims (views_of j.req).(0))

(* ≥ 2 jobs, same kind, per-view rows agree, all rectangular. *)
let process_coalesced t e jobs =
  if Robust.Inject.(active Worker_crash) then begin
    List.iter (fun j -> answer e j worker_crashed) jobs;
    raise Crashed
  end;
  match (state e).model with
  | None -> List.iter (fun j -> answer e j no_model) jobs
  | Some m ->
    let first_views = views_of (List.hd jobs).req in
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
      let is_transform = batch_kind (List.hd jobs).req = 1 in
      let stage = if is_transform then "serve.transform" else "serve.predict" in
      let live, dead =
        List.partition_map
          (fun (j : task) ->
            match Budget.expired ~stage ~sweeps:0 j.budget with
            | Some f -> Right (j, f)
            | None -> Left j)
          jobs
      in
      List.iter (fun (j, f) -> answer e j (deadline_reply f)) dead;
      match live with
      | [] -> ()
      | [ j ] -> run_single t e j
      | live -> (
        let stacked =
          Array.init (Array.length first_views) (fun p ->
              Mat.hcat_list
                (List.map (fun (j : task) -> (views_of j.req).(p)) live))
        in
        let outcome =
          if is_transform then
            match Tcca.transform m stacked with
            | z -> Ok (fun off n -> Protocol.R_matrix (Mat.sub_cols z off n))
            | exception ex -> Error ex
          else
            match Array.mapi (fun p x -> Tcca.transform_view m p x) stacked with
            | zs -> Ok (fun off n -> Protocol.R_scores (scores_of_projections m zs ~off ~n))
            | exception ex -> Error ex
        in
        match outcome with
        | Ok slice ->
          ignore
            (List.fold_left
               (fun off j ->
                 let n = batch_cols j in
                 answer e j (slice off n);
                 off + n)
               0 live);
          ignore (apply e (Model_state.Batch (List.length live)))
        | Error ex ->
          (* Shapes were prechecked, so this is genuinely unexpected. *)
          let resp =
            Protocol.R_error { code = "internal"; message = Printexc.to_string ex }
          in
          List.iter (fun j -> answer e j resp) live)
    end

(* ------------------------------------------------------------------ *)
(* Queue, workers, supervision. *)

let unavailable e =
  Protocol.R_unavailable
    { model_id = e.id;
      retry_after_ms = Breaker.retry_after_ms ~now:(Unix.gettimeofday ()) (state e).breaker }

let flush_queue e resp_of =
  Mutex.lock e.q_mutex;
  Queue.iter (function Job j -> j.deliver (resp_of ()) | Stop -> ()) e.queue;
  Queue.clear e.queue;
  Mutex.unlock e.q_mutex

let worker_loop t e =
  let rec loop () =
    Mutex.lock e.q_mutex;
    while Queue.is_empty e.queue do
      Condition.wait e.q_cond e.q_mutex
    done;
    let job = Queue.pop e.queue in
    Mutex.unlock e.q_mutex;
    match job with
    | Stop -> ()
    | Job j ->
      (match collect_batch t e j with
      | [ lone ] -> run_single t e lone
      | batch -> process_coalesced t e batch);
      loop ()
  in
  loop ()

let rec spawn_worker t e =
  locked e (fun () ->
      e.live_workers <- e.live_workers + 1;
      e.threads <- Thread.create (fun () -> supervised_loop t e) () :: e.threads)

(* The supervisor: a crash is logged, the dead worker replaced — with a
   capped budget, so a persistently crashing model converges to "breaker
   open, queue flushed" instead of a respawn storm, and its siblings never
   notice. *)
and supervised_loop t e =
  try worker_loop t e
  with Crashed ->
    let respawn, last =
      locked e (fun () ->
          e.live_workers <- e.live_workers - 1;
          let last = e.live_workers = 0 in
          let crash =
            Model_state.Crash { budget = t.cfg.max_respawns; stopping = draining t; last }
          in
          (snd (advance e crash), last))
    in
    Robust.warnf "tccad[%s]: worker crashed — %s" e.id
      (if respawn then "respawning"
       else "respawn budget exhausted; model unavailable");
    if respawn then spawn_worker t e
    else if last then
      (* No worker will ever pop this queue again, and the crash forced the
         breaker open: answer everything queued, so no client blocks on a
         dead model. *)
      flush_queue e (fun () -> unavailable e)

let deadline_of = function
  | Protocol.Transform { deadline_ms; _ }
  | Protocol.Predict { deadline_ms; _ }
  | Protocol.Refit { deadline_ms; _ } -> deadline_ms
  | Protocol.Health | Protocol.Ingest _ | Protocol.Swap _ | Protocol.Drain _
  | Protocol.List_models | Protocol.Model_health _ -> -1

(* Asynchronous enqueue: refusals (breaker, shed) are delivered on the
   calling thread; accepted jobs are answered later by a worker. *)
let enqueue_compute t e req deliver =
  (* Admission first: an open breaker answers *before* any queueing, so a
     broken model costs its clients one frame round trip, not a deadline. *)
  let admission = snd (apply e Model_state.Admit) in
  match admission with
  | Breaker.Reject { retry_after_ms } ->
    deliver (Protocol.R_unavailable { model_id = e.id; retry_after_ms })
  | Breaker.Probe when Robust.Inject.(active Breaker_probe_fail) ->
    (* Injected probe failure: the half-open probe dies before compute, so
       the breaker must re-open with a fresh cooldown. *)
    let resp = Protocol.R_error { code = "internal"; message = "injected probe failure" } in
    ignore (apply e (Model_state.Served resp));
    deliver resp
  | Breaker.Admit | Breaker.Probe -> (
    let budget = budget_of_deadline t (deadline_of req) in
    Mutex.lock e.q_mutex;
    let depth = Queue.length e.queue in
    if depth >= t.cfg.queue_capacity || Robust.Inject.(active Queue_full) then begin
      Mutex.unlock e.q_mutex;
      (* Load shedding: a typed refusal now beats an unbounded queue OOMing
         later; the client owns the retry decision.  A shed *probe* must
         still report an outcome or the single-flight slot stays taken
         forever; overload while half-open reads as "not recovered yet". *)
      ignore (apply e (Model_state.Shed { probe = admission = Breaker.Probe }));
      deliver (Protocol.R_shed { depth; capacity = t.cfg.queue_capacity })
    end
    else begin
      Queue.push (Job { req; budget; deliver }) e.queue;
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
        && locked e (fun () ->
               e.live_workers = 0
               && Breaker.retry_after_ms ~now:(Unix.gettimeofday ()) (state e).breaker > 0)
      in
      if dead then flush_queue e (fun () -> unavailable e)
    end)

(* ------------------------------------------------------------------ *)
(* Inline handlers (control side). *)

let queue_depth e =
  Mutex.lock e.q_mutex;
  let d = Queue.length e.queue in
  Mutex.unlock e.q_mutex;
  d

(* Rank and view dimensions; (0, [||]) when cold. *)
let shape (s : Model_state.t) =
  match s.model with None -> (0, [||]) | Some m -> (Tcca.r m, Tcca.view_dims m)

let health t =
  ship_warnings ();
  (* Single-model-era health: answered with the "default" model's numbers
     so PR-8 monitoring keeps reading sense. *)
  let e = default_entry t in
  let s = state e in
  let r, dims = shape s in
  Protocol.R_health
    { version = s.version;
      r;
      dims;
      queue_depth = queue_depth e;
      queue_capacity = t.cfg.queue_capacity;
      workers = t.cfg.workers;
      ingested = s.ingested;
      since_fit = s.since_fit;
      draining = draining t || s.draining }

let model_info e =
  let s = state e in
  { Protocol.mi_id = e.id;
    mi_version = s.version;
    mi_r = fst (shape s);
    mi_breaker = Breaker.state_name s.breaker;
    mi_draining = s.draining }

let model_health t e =
  let s = state e in
  let r, dims = shape s in
  { Protocol.mh_id = e.id;
    mh_version = s.version;
    mh_r = r;
    mh_dims = dims;
    mh_queue_depth = queue_depth e;
    mh_queue_capacity = t.cfg.queue_capacity;
    mh_workers = e.live_workers;
    mh_breaker = Breaker.state_name s.breaker;
    mh_retry_after_ms = Breaker.retry_after_ms ~now:(Unix.gettimeofday ()) s.breaker;
    mh_failures = Breaker.failures s.breaker_config s.breaker;
    mh_respawns = s.respawns;
    mh_ingested = s.ingested;
    mh_since_fit = s.since_fit;
    mh_last_refit = s.last_refit;
    mh_draining = s.draining }

let ingest e views =
  if Array.length views = 0 then
    Protocol.R_error { code = "bad-request"; message = "empty view array" }
  else
    let n = snd (Mat.dims views.(0)) in
    match
      locked e (fun () ->
          let acc = Model_state.accumulator (state e) views in
          match Tcca.Builder.add_batch acc.builder views with
          | () -> fst (advance e (Model_state.Ingested { acc; n }))
          | exception (Invalid_argument _ as refused) ->
            (* A refused batch still keeps a new accumulator, shape and all. *)
            ignore (advance e (Model_state.Ingested { acc; n = 0 }));
            raise refused)
    with
    | s ->
      Protocol.R_ok
        { version = s.version;
          note = Printf.sprintf "ingested %d instances (total %d)" n s.ingested }
    | exception Invalid_argument msg -> Protocol.R_error { code = "bad-request"; message = msg }

let swap t e path =
  match Retry.run ~policy:t.cfg.swap_retry (fun () -> Model_store.load ~path) with
  | Ok model' ->
    (* Validation (framing, CRC, version, structure, finiteness) happened
       before this point, so installation cannot need a rollback: a bad
       file simply never reaches the serving slot. *)
    let s = fst (apply e (Model_state.Swap_installed model')) in
    Registry.snapshot t.reg e.id s;
    ship_warnings ();
    Protocol.R_ok { version = s.version; note = "swapped in " ^ path }
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
            gu.Retry.ga_attempts (state e).version }

(* Per-model drain: flush this model's queue through its own workers, stop
   them, snapshot — while every sibling keeps serving untouched. *)
let drain_entry t e =
  let live =
    locked e (fun () ->
        ignore (advance e Model_state.Drain);
        e.live_workers)
  in
  if live = 0 then
    (* No workers to flush the queue: answer leftovers inline so no client
       blocks forever on its callback. *)
    flush_queue e (fun () -> Protocol.R_error { code = "draining"; message = "model stopped" })
  else begin
    (* One Stop per live worker, queued *behind* the real jobs: in-flight
       work flushes — whole batches included — before the workers exit. *)
    Mutex.lock e.q_mutex;
    for _ = 1 to live do
      Queue.push Stop e.queue
    done;
    Condition.broadcast e.q_cond;
    Mutex.unlock e.q_mutex
  end;
  List.iter Thread.join e.threads;
  locked e (fun () ->
      e.threads <- [];
      e.live_workers <- 0);
  Registry.snapshot t.reg e.id (state e)

(* ------------------------------------------------------------------ *)
(* Routing and dispatch. *)

let unknown_model id =
  Protocol.R_error
    { code = "unknown-model"; message = Printf.sprintf "no model %S in registry" id }

(* Transform/Predict/Drain/Model_health target an existing model;
   Ingest/Swap/Refit may create one (a cold entry with fresh workers) when
   the id is new and valid — how a second model is born on a live daemon. *)
let resolve t ~create id =
  if not create then Option.to_result ~none:(unknown_model id) (Registry.find t.reg id)
  else
    match Registry.find_or_create t.reg id with
    | Error msg -> Error (Protocol.R_error { code = "bad-request"; message = msg })
    | Ok (e, created) ->
      if created then
        for _ = 1 to t.cfg.workers do
          spawn_worker t e
        done;
      Ok e

(* The target of a request that uses or changes a model: refused while
   that model drains. *)
let serving t ~create id =
  Result.bind (resolve t ~create id) (fun e ->
      if (state e).draining then
        Error
          (Protocol.R_error
             { code = "draining"; message = Printf.sprintf "model %S is draining" id })
      else Ok e)

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
        match resolve t ~create:false model_id with
        | Error refusal -> refusal
        | Ok e -> Protocol.R_model_health (model_health t e))
  | Protocol.Drain { model_id = "" } ->
    run_control (fun () ->
        request_drain t;
        Protocol.R_ok { version = (state (default_entry t)).version; note = "draining" })
  | _ when draining t ->
    deliver
      (Protocol.R_error
         { code = "draining"; message = "server is draining — retry elsewhere" })
  | Protocol.Drain { model_id } ->
    run_control (fun () ->
        match serving t ~create:false model_id with
        | Error refusal -> refusal
        | Ok e ->
          drain_entry t e;
          ship_warnings ();
          Protocol.R_ok
            { version = (state e).version; note = Printf.sprintf "model %S drained" model_id })
  | Protocol.Transform { model_id; _ } | Protocol.Predict { model_id; _ }
  | Protocol.Refit { model_id; _ } -> (
    let create = match req with Protocol.Refit _ -> true | _ -> false in
    match serving t ~create model_id with
    | Error refusal -> deliver refusal
    | Ok e -> enqueue_compute t e req deliver)
  | Protocol.Ingest { views; model_id } ->
    run_control (fun () ->
        match serving t ~create:true model_id with
        | Error refusal -> refusal
        | Ok e -> ingest e views)
  | Protocol.Swap { path; model_id } ->
    run_control (fun () ->
        match serving t ~create:true model_id with
        | Error refusal -> refusal
        | Ok e -> swap t e path)

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

let new_entry cfg id =
  { id;
    state = Atomic.make (Model_state.init cfg.breaker);
    lock = Mutex.create ();
    refit_lock = Mutex.create ();
    q_mutex = Mutex.create ();
    q_cond = Condition.create ();
    queue = Queue.create ();
    live_workers = 0;
    threads = [] }

let create ?model cfg =
  let ctl =
    { c_mutex = Mutex.create ();
      c_cond = Condition.create ();
      c_queue = Queue.create ();
      c_alive = true;
      c_thread = None }
  in
  let t =
    { cfg;
      reg = Registry.create ?root:cfg.state_dir (new_entry cfg);
      drain_flag = Atomic.make false;
      ctl;
      drain_hooks = Atomic.make [];
      hook_seq = Atomic.make 0 }
  in
  ctl.c_thread <- Some (Thread.create control_loop ctl);
  let seed e (model, version) = ignore (apply e (Model_state.Seed { model; version })) in
  List.iter
    (fun (id, loaded) ->
      match Registry.find_or_create t.reg id with
      | Ok (e, _) -> Option.iter (seed e) loaded
      | Error _ -> ())
    (Registry.recover t.reg);
  let d = default_entry t in
  (* An explicitly provided model seeds "default" at version 1, taking
     precedence over whatever recovery found for that model. *)
  Option.iter (fun m -> seed d (m, 1)) model;
  if (state d).model = None then
    Log.info (fun m ->
        m "starting cold: no default model (transform requests will be refused)");
  List.iter
    (fun e ->
      for _ = 1 to cfg.workers do
        spawn_worker t e
      done)
    (Registry.list t.reg);
  t

let drain_and_stop t =
  request_drain t;
  List.iter
    (fun e -> if not (state e).draining then drain_entry t e)
    (Registry.list t.reg);
  stop_control t;
  ship_warnings ()
