type init = Random of int | Hosvd | Warm of Mat.t array

type options = {
  max_iter : int;
  tol : float;
  init : init;
  restarts : int;
  restart_seed : int;
  stall_sweeps : int;
}

let default_options =
  { max_iter = 100;
    tol = 1e-6;
    init = Hosvd;
    restarts = 2;
    restart_seed = 0x524F4253;
    stall_sweeps = 15 }

type run = {
  run_init : init;
  run_iterations : int;
  run_fit : float;
  run_converged : bool;
  run_failure : Robust.failure option;
}

type info = {
  iterations : int;
  fit : float;
  converged : bool;
  fit_history : float list;
  failure : Robust.failure option;
  deadline : Robust.failure option;
  runs : run list;
}

(* Solve U Γ = V for U with Γ symmetric PSD: Cholesky when possible (the
   generic case), spectral pseudo-inverse as the rank-deficient fallback. *)
let solve_against_gram v gamma =
  match Cholesky.decompose gamma with
  | f -> Mat.transpose (Cholesky.solve f (Mat.transpose v))
  | exception Cholesky.Not_positive_definite _ -> Mat.mul v (Matfun.inv_psd gamma)

let normalize_columns_in_place u lambda =
  let rows, r = Mat.dims u in
  for c = 0 to r - 1 do
    let col = Mat.col u c in
    let n = Vec.norm col in
    if n > 1e-300 then begin
      Mat.set_col u c (Vec.scale (1. /. n) col);
      lambda.(c) <- n
    end
    else begin
      (* Underflowed column: zero it explicitly so the factor carries no
         stale un-normalized direction alongside its λ = 0 weight. *)
      for i = 0 to rows - 1 do
        Mat.set u i c 0.
      done;
      lambda.(c) <- 0.
    end
  done

let rec init_factors init ~rank ~mode_grams op =
  let m = Op_tensor.order op in
  let dims = Op_tensor.dims op in
  match init with
  | Warm given ->
    (* Serving refits hand in the live model's factors.  A stale or
       mismatched warm start must degrade, not crash the daemon: any shape
       or finiteness problem falls back to the deterministic Hosvd init
       with a warning. *)
    let shape_ok =
      Array.length given = m
      && Array.for_all2 (fun u d -> fst (Mat.dims u) = d) given dims
      && Array.for_all Mat.all_finite given
    in
    if not shape_ok then begin
      Robust.warnf
        "Cp_als: warm-start factors do not match the operator (order/dims/finite) — \
         falling back to Hosvd init";
      init_factors Hosvd ~rank ~mode_grams op
    end
    else
      let rng = Rng.create 0x5741524D (* "WARM" *) in
      Array.map
        (fun u ->
          let rows, cols = Mat.dims u in
          if cols = rank then Mat.copy u
          else if cols > rank then Mat.init rows rank (fun i j -> Mat.get u i j)
          else
            (* rank grew since the warm model was fitted: keep its columns
               and pad the new directions with seeded Gaussians. *)
            Mat.hcat (Mat.copy u)
              (Mat.init rows (rank - cols) (fun _ _ -> Rng.gaussian rng)))
        given
  | Random seed ->
    let rng = Rng.create seed in
    Array.init m (fun k -> Mat.init dims.(k) rank (fun _ _ -> Rng.gaussian rng))
  | Hosvd ->
    let rng = Rng.create 0x415353 in
    let grams = Lazy.force mode_grams in
    Array.init m (fun k ->
        let eig = Eigen.decompose grams.(k) in
        let keep = min rank dims.(k) in
        let lead = Eigen.top_k eig keep in
        if keep = rank then lead
        else begin
          (* rank > dₖ: pad with random columns so the factor is full width. *)
          let pad = Mat.init dims.(k) (rank - keep) (fun _ _ -> Rng.gaussian rng) in
          Mat.hcat lead pad
        end)

(* ------------------------------------------------------------------ *)
(* Checkpoint plumbing: Checkpoint lives below linalg, so factor state
   crosses the boundary as plain row-major arrays. *)

let factor_of_mat (m : Mat.t) =
  { Checkpoint.rows = m.Mat.rows; cols = m.Mat.cols; data = Array.copy m.Mat.data }

let mat_of_factor (f : Checkpoint.factor) =
  Mat.unsafe_of_flat ~rows:f.Checkpoint.rows ~cols:f.Checkpoint.cols
    (Array.copy f.Checkpoint.data)

let init_of_state (rs : Checkpoint.run_state) =
  match rs.Checkpoint.rs_init_random with Some s -> Random s | None -> Hosvd

(* A [Warm] init cannot be named in a snapshot (it is the live model's
   factors, not a recipe); [decompose_op] refuses to checkpoint such solves,
   so this mapping is only ever read back for Random/Hosvd runs. *)
let init_to_state = function Random s -> Some s | Hosvd | Warm _ -> None

(* The solve identity a snapshot must match to be resumed: shape, operator
   representation, rank, and every option that alters the sweep arithmetic.
   (Tensor *content* is deliberately not digested — hashing a dense operator
   per save would cost more than the sweep it protects.) *)
let fingerprint options ~rank op =
  let dims =
    String.concat "x" (Array.to_list (Array.map string_of_int (Op_tensor.dims op)))
  in
  let repr =
    match Op_tensor.n_components op with
    | None -> "dense"
    | Some n -> Printf.sprintf "factored:%d" n
  in
  let init =
    match options.init with
    | Random s -> Printf.sprintf "random:%d" s
    | Hosvd -> "hosvd"
    | Warm fs ->
      (* Content-free on purpose (like the tensor itself): warm solves are
         never checkpointed, so this only has to be readable. *)
      Printf.sprintf "warm:%d" (Array.length fs)
  in
  Printf.sprintf "cp_als/1 rank=%d dims=%s repr=%s max_iter=%d tol=%.17g init=%s restarts=%d seed=%d stall=%d"
    rank dims repr options.max_iter options.tol init options.restarts
    options.restart_seed options.stall_sweeps

(* Everything one run hands back: the model, its summary, its trajectory,
   its final durable state, and whether a budget stopped it. *)
type run_outcome = {
  o_kruskal : Kruskal.t;
  o_run : run;
  o_history : float list;
  o_state : Checkpoint.run_state;
  o_deadline : Robust.failure option;
}

(* One ALS run from one initialization, guarded: a non-finite fit stops the
   sweep loop immediately (instead of burning max_iter on NaN ≠ NaN), and a
   swamp — the fit repeatedly dropping well below its best without the
   convergence test firing — stops with a Not_converged diagnostic so the
   caller can restart from fresh factors.

   [resume] (a snapshot's current-run state) restores every loop variable at
   a sweep boundary, so the remaining sweeps replay the exact arithmetic of
   an uninterrupted run.  [budget] is probed once per sweep at the loop
   head; on expiry the run stops at that boundary with its best-so-far
   factors and [o_deadline] set — never an exception.  [on_sweep] receives a
   lazily-built durable state after each completed sweep (the checkpoint
   hook; [ignore]-cheap when checkpointing is off).  [norm_x2] and
   [mode_grams] belong to the solve and are shared by its runs (see
   [decompose_op]). *)
let single_run options ~budget ~sweeps_before ~on_sweep ~resume ~rank ~init ~norm_x2
    ~mode_grams op =
  let m = Op_tensor.order op in
  let factors, lambda =
    match resume with
    | Some rs ->
      ( Array.map mat_of_factor rs.Checkpoint.rs_factors,
        Array.copy rs.Checkpoint.rs_weights )
    | None -> (init_factors init ~rank ~mode_grams op, Array.make rank 1.)
  in
  let norm_x2 = Lazy.force norm_x2 in
  let norm_x = sqrt norm_x2 in
  let fit_history = ref [] in
  let previous_fit = ref neg_infinity in
  let best_fit = ref neg_infinity in
  let drops = ref 0 in
  let failure = ref None in
  let converged = ref false in
  let iterations = ref 0 in
  let deadline = ref None in
  (match resume with
  | Some rs ->
    fit_history := List.rev (Array.to_list rs.Checkpoint.rs_history);
    previous_fit := rs.Checkpoint.rs_previous_fit;
    best_fit := rs.Checkpoint.rs_best_fit;
    drops := rs.Checkpoint.rs_drops;
    converged := rs.Checkpoint.rs_converged;
    failure := rs.Checkpoint.rs_failure;
    iterations := rs.Checkpoint.rs_iterations
  | None -> ());
  let state () =
    { Checkpoint.rs_init_random = init_to_state init;
      rs_iterations = !iterations;
      rs_previous_fit = !previous_fit;
      rs_best_fit = !best_fit;
      rs_drops = !drops;
      rs_converged = !converged;
      rs_failure = !failure;
      rs_weights = Array.copy lambda;
      rs_factors = Array.map factor_of_mat factors;
      rs_history = Array.of_list (List.rev !fit_history) }
  in
  while
    (not !converged) && !failure = None && !deadline = None
    && !iterations < options.max_iter
  do
    match Budget.expired ~stage:"cp_als" ~sweeps:(sweeps_before + !iterations) budget with
    | Some f -> deadline := Some f
    | None ->
      incr iterations;
      let last_v = ref (Mat.create 1 1) in
      for k = 0 to m - 1 do
        let v = Op_tensor.mttkrp op factors k in
        let gamma = Khatri_rao.gram_hadamard_excluding factors k in
        let u = solve_against_gram v gamma in
        normalize_columns_in_place u lambda;
        factors.(k) <- u;
        if k = m - 1 then last_v := v
      done;
      (* Fit from the last sweep's quantities:
         ⟨X, X̂⟩ = Σ_c λ_c ⟨v_c, u_c⟩ with V the final-mode MTTKRP,
         ‖X̂‖²   = λᵀ (⊛_p UₚᵀUₚ) λ. *)
      let cross = ref 0. in
      for c = 0 to rank - 1 do
        cross := !cross +. (lambda.(c) *. Vec.dot (Mat.col !last_v c) (Mat.col factors.(m - 1) c))
      done;
      let gram_full = ref (Mat.make rank rank 1.) in
      Array.iter (fun u -> gram_full := Mat.map2 ( *. ) !gram_full (Mat.tgram u)) factors;
      let norm_xhat2 = Vec.dot lambda (Mat.mul_vec !gram_full lambda) in
      let err2 = Float.max 0. (norm_x2 -. (2. *. !cross) +. norm_xhat2) in
      let fit = if norm_x = 0. then 1. else 1. -. (sqrt err2 /. norm_x) in
      let fit = if Robust.Inject.(active Als_nan) then nan else fit in
      fit_history := fit :: !fit_history;
      if not (Float.is_finite fit) then
        failure :=
          Some
            (Robust.Non_finite
               { stage = "cp_als"; where = Printf.sprintf "fit at sweep %d" !iterations })
      else begin
        if Float.abs (fit -. !previous_fit) < options.tol then converged := true;
        (* Swamp detection: ALS is monotone in exact arithmetic, so a fit that
           keeps landing well below its best (10·tol, i.e. beyond convergence-
           test noise) is oscillating, not converging.  The absolute 1e-7
           floor is the fit's own roundoff: fit = 1 − √err²/‖X‖ takes the
           square root of err² = ‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖², a cancelled
           difference of O(‖X‖²) terms, so near a perfect fit it moves by
           ≈ √ε ≈ 1.5e-8 between sweeps while the model stays the same.  A
           genuine swamp swings by ~1e-3 or more. *)
        if fit > !best_fit then begin
          best_fit := fit;
          drops := 0
        end
        else if fit < !best_fit -. ((10. *. options.tol) +. 1e-7) then begin
          incr drops;
          if !drops >= options.stall_sweeps && not !converged then
            failure :=
              Some
                (Robust.Not_converged
                   { stage = "cp_als";
                     sweeps = !iterations;
                     residual = 1. -. !best_fit })
        end
      end;
      previous_fit := fit;
      on_sweep !iterations state
  done;
  (* Final-model guard: a NaN that appeared in the factors without reaching
     the fit (e.g. through the Gram pseudo-inverse) must not leave silently. *)
  if
    !failure = None
    && not (Array.for_all Mat.all_finite factors && Vec.all_finite lambda)
  then
    failure := Some (Robust.Non_finite { stage = "cp_als"; where = "final factors" });
  let kruskal = Kruskal.normalize { Kruskal.weights = Array.copy lambda; factors } in
  { o_kruskal = kruskal;
    o_run =
      { run_init = init;
        run_iterations = !iterations;
        run_fit = !previous_fit;
        run_converged = !converged;
        run_failure = !failure };
    o_history = List.rev !fit_history;
    o_state = state ();
    o_deadline = !deadline }

let run_ok r = match r.run_failure with None -> true | Some _ -> false

(* [a] strictly better than [b]: clean beats failed, converged beats capped,
   then higher finite fit. *)
let better a b =
  let score r = (if run_ok r then 2 else 0) + if r.run_converged then 1 else 0 in
  if score a <> score b then score a > score b
  else
    let fit r = if Float.is_finite r.run_fit then r.run_fit else neg_infinity in
    fit a > fit b

(* Rebuild a finished run's outcome from its durable state — what a resumed
   multi-start solve uses so its final best-run selection matches the
   uninterrupted solve exactly. *)
let outcome_of_state (rs : Checkpoint.run_state) =
  let factors = Array.map mat_of_factor rs.Checkpoint.rs_factors in
  { o_kruskal =
      Kruskal.normalize
        { Kruskal.weights = Array.copy rs.Checkpoint.rs_weights; factors };
    o_run =
      { run_init = init_of_state rs;
        run_iterations = rs.Checkpoint.rs_iterations;
        run_fit = rs.Checkpoint.rs_previous_fit;
        run_converged = rs.Checkpoint.rs_converged;
        run_failure = rs.Checkpoint.rs_failure };
    o_history = Array.to_list rs.Checkpoint.rs_history;
    o_state = rs;
    o_deadline = None }

let decompose_op ?(options = default_options) ?(budget = Budget.unlimited) ?checkpoint
    ~rank op =
  if rank < 1 then invalid_arg "Cp_als.decompose_op: rank must be >= 1";
  let checkpoint =
    (* A warm init is the live model's factors — there is no recipe a
       snapshot could replay to recreate it, so resuming such a solve could
       not be bit-identical.  Refuse loudly rather than silently mis-resume;
       warm-started serving refits are protected by the daemon's own
       post-refit model snapshot instead. *)
    match (options.init, checkpoint) with
    | Warm _, Some cfg ->
      Robust.warnf "Cp_als: checkpoint %s ignored — warm-started solves are not resumable"
        cfg.Checkpoint.path;
      None
    | _ -> checkpoint
  in
  let fp = fingerprint options ~rank op in
  let loaded =
    match checkpoint with
    | None -> None
    | Some cfg -> Checkpoint.load_for_resume ~fingerprint:fp cfg
  in
  let completed_states =
    ref (match loaded with None -> [] | Some s -> s.Checkpoint.completed)
  in
  let attempt0 = match loaded with None -> 0 | Some s -> s.Checkpoint.attempt in
  let resume_current = Option.map (fun s -> s.Checkpoint.current) loaded in
  let attempt = ref attempt0 in
  let save_snapshot cur_state =
    match checkpoint with
    | None -> ()
    | Some cfg -> (
      try
        Checkpoint.save ~path:cfg.Checkpoint.path
          { Checkpoint.fingerprint = fp;
            domains = Parallel.num_domains ();
            attempt = !attempt;
            completed = !completed_states;
            current = cur_state }
      with Sys_error e ->
        (* A failed snapshot must not kill the fit it protects. *)
        Robust.warnf "Checkpoint %s: save failed (%s) — continuing unprotected"
          cfg.Checkpoint.path e)
  in
  let on_sweep sweep state =
    match checkpoint with
    | Some cfg when sweep mod cfg.Checkpoint.every = 0 -> save_snapshot (state ())
    | _ -> ()
  in
  let sweeps_of_states states =
    List.fold_left (fun acc rs -> acc + rs.Checkpoint.rs_iterations) 0 states
  in
  (* ‖X‖² is computed once per solve and shared by every run, restarts
     included.  When a run starts from HOSVD, its mode Grams come from the
     same pass as the norm (Op_tensor.norm2_and_mode_grams); otherwise the
     norm is computed on its own. *)
  let joint = lazy (Op_tensor.norm2_and_mode_grams op) in
  let mode_grams = lazy (snd (Lazy.force joint)) in
  let norm_x2 =
    lazy (if Lazy.is_val joint then fst (Lazy.force joint) else Op_tensor.norm2 op)
  in
  let run_one ~sweeps_before ~init ~resume =
    let outcome =
      single_run options ~budget ~sweeps_before ~on_sweep ~resume ~rank ~init ~norm_x2
        ~mode_grams op
    in
    (* End-of-run snapshot: makes the completed run (including its final
       guard verdict) durable before any restart decision. *)
    if checkpoint <> None then save_snapshot outcome.o_state;
    outcome
  in
  let first =
    match resume_current with
    | Some rs ->
      (* Budget sweep counts are totals across runs; the resumed run's own
         pre-crash sweeps re-enter through its restored iteration counter. *)
      run_one
        ~sweeps_before:(sweeps_of_states !completed_states)
        ~init:(init_of_state rs) ~resume:(Some rs)
    | None -> run_one ~sweeps_before:0 ~init:options.init ~resume:None
  in
  (* Restored finished runs come first in chronological order. *)
  let prior = List.map outcome_of_state !completed_states in
  let runs = ref (first :: List.rev prior) in
  (* Escalation: deterministic multi-start.  Only a *failed* run (non-finite
     or swamped) triggers restarts — a clean run that merely exhausted
     max_iter keeps the historical behaviour.  The seed stream is replayed
     to the snapshot's position on resume, so a resumed solve draws the same
     restart seeds an uninterrupted one would. *)
  let rng = Rng.create options.restart_seed in
  for _ = 1 to attempt0 do
    ignore (Rng.int rng 0x3FFFFFFF)
  done;
  let deadline = ref (List.hd !runs).o_deadline in
  while
    (let head = List.hd !runs in
     (not (run_ok head.o_run)) && head.o_deadline = None)
    && !deadline = None && !attempt < options.restarts
  do
    let head = List.hd !runs in
    let total_sweeps = List.fold_left (fun acc o -> acc + o.o_run.run_iterations) 0 !runs in
    match Budget.expired ~stage:"cp_als" ~sweeps:total_sweeps budget with
    | Some f ->
      (* No time left to repair a failed run: stop restarting, report both. *)
      deadline := Some f
    | None ->
      incr attempt;
      let seed = Rng.int rng 0x3FFFFFFF in
      Robust.warnf "Cp_als: run %d failed (%s) — restarting from Random %d (%d/%d)" !attempt
        (match head.o_run.run_failure with
        | Some f -> Robust.failure_to_string f
        | None -> "?")
        seed !attempt options.restarts;
      completed_states := !completed_states @ [ head.o_state ];
      let outcome =
        run_one ~sweeps_before:total_sweeps ~init:(Random seed) ~resume:None
      in
      if outcome.o_deadline <> None then deadline := outcome.o_deadline;
      runs := outcome :: !runs
  done;
  let ordered = List.rev !runs in
  let best =
    List.fold_left
      (fun acc candidate -> if better candidate.o_run acc.o_run then candidate else acc)
      (List.hd ordered) (List.tl ordered)
  in
  ( best.o_kruskal,
    { iterations = best.o_run.run_iterations;
      fit = best.o_run.run_fit;
      converged = best.o_run.run_converged;
      fit_history = best.o_history;
      failure = best.o_run.run_failure;
      deadline = !deadline;
      runs = List.map (fun o -> o.o_run) ordered } )
