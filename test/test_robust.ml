(* The numerics-guardrail layer: injection semantics, escalation ladders, and
   end-to-end proof that every degradation path through the TCCA/KTCCA fits
   ends in a recovered model or a typed [Robust.failure] — never a silent
   NaN model.  CI runs this binary at TCCA_DOMAINS=1 and 4. *)

open Test_support

let random_views r ~dims ~n = Array.map (fun d -> random_mat r d n) dims

let finite_mat m = Mat.all_finite m

(* ------------------------------------------------------------------ *)
(* Injection hook semantics *)

let test_inject_default_off () =
  Robust.Inject.reset ();
  check_true "disabled by default" (not (Robust.Inject.enabled ()));
  check_true "no stage active" (not Robust.Inject.(active Als_nan))

let test_inject_arm_disarm () =
  Robust.Inject.reset ();
  Robust.Inject.(arm Sweep_cap);
  check_true "enabled after arm" (Robust.Inject.enabled ());
  check_true "armed stage active" Robust.Inject.(active Sweep_cap);
  check_true "other stage inactive" (not Robust.Inject.(active Als_nan));
  Robust.Inject.(disarm Sweep_cap);
  check_true "inactive after disarm" (not Robust.Inject.(active Sweep_cap));
  Robust.Inject.reset ()

let test_inject_with_stage_restores () =
  Robust.Inject.reset ();
  Robust.Inject.(with_stage Als_nan (fun () ->
      check_true "active inside" (active Als_nan)));
  check_true "restored after" (not Robust.Inject.(active Als_nan));
  (* Restored even when the thunk raises. *)
  (try
     Robust.Inject.(with_stage Als_nan (fun () -> failwith "boom"))
   with Failure _ -> ());
  check_true "restored after exception" (not Robust.Inject.(active Als_nan))

(* ------------------------------------------------------------------ *)
(* Warning ring buffer *)

let test_warning_ring () =
  Robust.clear_warnings ();
  check_true "empty after clear" (Robust.recent_warnings () = []);
  Robust.warnf "event %d" 1;
  Robust.warnf "event %d" 2;
  (match Robust.recent_warnings () with
  | [ a; b ] ->
    check_true "oldest first" (a = "event 1" && b = "event 2")
  | ws -> Alcotest.failf "expected 2 warnings, got %d" (List.length ws));
  Robust.clear_warnings ()

let test_warning_ring_domain_safe () =
  (* Guardrails fire inside parallel regions: hammer the ring from several
     domains at once.  Under the mutex this must neither crash, nor tear an
     entry, nor lose the concurrent reader. *)
  Robust.clear_warnings ();
  let per_domain = 200 in
  let writers =
    Array.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Robust.warnf "domain %d event %d" d i;
              if i mod 50 = 0 then ignore (Robust.recent_warnings ())
            done))
  in
  Array.iter Domain.join writers;
  let ws = Robust.recent_warnings () in
  check_true "ring non-empty" (ws <> []);
  (* Every surviving entry is well-formed (no torn strings). *)
  check_true "entries intact"
    (List.for_all (fun w -> String.length w >= 14 && String.sub w 0 7 = "domain ") ws);
  Robust.clear_warnings ()

let test_drain_warnings () =
  Robust.clear_warnings ();
  Robust.warnf "drain me %d" 1;
  Robust.warnf "drain me %d" 2;
  (match Robust.drain_warnings () with
  | [ a; b ] -> check_true "oldest first" (a = "drain me 1" && b = "drain me 2")
  | ws -> Alcotest.failf "expected 2 drained, got %d" (List.length ws));
  check_true "ring empty after drain" (Robust.recent_warnings () = []);
  check_true "second drain empty" (Robust.drain_warnings () = [])

let test_drain_warnings_partitions () =
  (* Concurrent drains racing concurrent writers: an entry lands in at most
     one drained batch — never two (the ring may evict past its 64-entry
     cap, so "lost to eviction" is allowed; duplication never is). *)
  Robust.clear_warnings ();
  let per_domain = 100 in
  let drained = Array.make 4 [] in
  let writers =
    Array.init 2 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Robust.warnf "w%d-%d" d i
            done))
  in
  let drainers =
    Array.init 4 (fun k ->
        Domain.spawn (fun () ->
            for _ = 1 to 20 do
              drained.(k) <- drained.(k) @ Robust.drain_warnings ()
            done))
  in
  Array.iter Domain.join writers;
  Array.iter Domain.join drainers;
  let rest = Robust.drain_warnings () in
  let all = List.sort compare (List.concat (rest :: Array.to_list drained)) in
  check_true "nothing drained twice"
    (List.length all = List.length (List.sort_uniq compare all));
  check_true "nothing invented" (List.length all <= 2 * per_domain);
  check_true "entries intact"
    (List.for_all (fun w -> String.length w >= 4 && w.[0] = 'w') all);
  Robust.clear_warnings ()

let test_failure_printing () =
  let failures =
    [ Robust.Not_converged { stage = "cp_als"; sweeps = 7; residual = 0.5 };
      Robust.Not_positive_definite
        { stage = "ktcca.whiten view 0"; pivot = 3; value = -1.; jitter_tried = 1e-8 };
      Robust.Non_finite { stage = "tcca.prepare"; where = "input matrix" };
      Robust.Rank_deficient { view = 1; rank = 0; dim = 5 };
      Robust.Deadline_exceeded
        { stage = "cp_als"; sweeps = 42; elapsed = 1.25; limit = "wall 2s" } ]
  in
  List.iter
    (fun f -> check_true "non-empty rendering" (String.length (Robust.failure_to_string f) > 0))
    failures;
  (* The registered printer makes an uncaught Error readable. *)
  check_true "exception printer"
    (String.length (Printexc.to_string (Robust.Error (List.hd failures))) > 0)

(* ------------------------------------------------------------------ *)
(* Linalg guardrails *)

let test_eigen_info_converges () =
  let r = rng () in
  let _, info = Eigen.decompose_info (random_spd r 6) in
  check_true "converged" info.Eigen.converged;
  check_true "did some sweeps" (info.Eigen.sweeps > 0)

let test_eigen_checked_nan () =
  let a = Mat.of_arrays [| [| nan; 0. |]; [| 0.; 1. |] |] in
  match Eigen.decompose_checked a with
  | Error (Robust.Non_finite _) -> ()
  | _ -> Alcotest.fail "NaN input must be Non_finite"

let test_eigen_sweep_cap_injection () =
  let r = rng () in
  let a = random_spd r 6 in
  Robust.Inject.(with_stage Sweep_cap (fun () ->
      match Eigen.decompose_checked a with
      | Error (Robust.Not_converged { sweeps; residual; _ }) ->
        check_true "zero sweeps" (sweeps = 0);
        check_true "positive residual" (residual > 0.)
      | _ -> Alcotest.fail "forced sweep cap must be Not_converged"))

let test_eigen_cap_warns () =
  let r = rng () in
  Robust.clear_warnings ();
  Robust.Inject.(with_stage Sweep_cap (fun () ->
      ignore (Eigen.decompose (random_spd r 5))));
  check_true "cap logged"
    (List.exists
       (fun w -> String.length w >= 5 && String.sub w 0 5 = "Eigen")
       (Robust.recent_warnings ()));
  Robust.clear_warnings ()

let test_svd_info_converges () =
  let r = rng () in
  let _, info = Svd.decompose_info (random_mat r 7 4) in
  check_true "converged" info.Svd.converged

let test_svd_checked_nan () =
  let a = Mat.of_arrays [| [| 1.; infinity |]; [| 0.; 1. |] |] in
  match svd_decompose_checked a with
  | Error (Robust.Non_finite _) -> ()
  | _ -> Alcotest.fail "Inf input must be Non_finite"

let test_cholesky_jitter_recovers () =
  (* Indefinite by a hair: smallest eigenvalue −1e-13, within jitter reach. *)
  let r = rng () in
  let q = random_orthonormal r 5 5 in
  let d = [| 1.; 0.5; 0.2; 0.1; -1e-13 |] in
  let a =
    Mat.mul q (Mat.mul (Mat.init 5 5 (fun i j -> if i = j then d.(i) else 0.)) (Mat.transpose q))
  in
  Robust.clear_warnings ();
  match Cholesky.decompose_jittered a with
  | Ok (f, jitter) ->
    check_true "needed jitter" (jitter > 0.);
    check_true "retry logged" (Robust.recent_warnings () <> []);
    check_true "factor finite" (finite_mat (Cholesky.lower f));
    Robust.clear_warnings ()
  | Error e -> Alcotest.failf "should recover: %s" (Robust.failure_to_string e)

let test_cholesky_jitter_exhausted () =
  (* Genuinely indefinite: eigenvalues ±1, no roundoff-scale jitter helps. *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  match Cholesky.decompose_jittered a with
  | Error (Robust.Not_positive_definite { jitter_tried; _ }) ->
    check_true "ladder was walked" (jitter_tried > 0.)
  | Ok _ -> Alcotest.fail "indefinite input factorized"
  | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)

let test_inv_sqrt_rank_report () =
  (* cov = 0 + ridge: every eigenvalue equals the shift — numerical rank 0. *)
  (match Matfun.inv_sqrt_psd_checked ~shift:0.1 ~stage:"t" (Mat.scale 0.1 (Mat.identity 4)) with
  | Ok (_, rank) -> Alcotest.(check int) "pure-ridge rank" 0 rank
  | Error e -> Alcotest.failf "unexpected: %s" (Robust.failure_to_string e));
  let r = rng () in
  let a = random_spd r 4 in
  match Matfun.inv_sqrt_psd_checked ~stage:"t" a with
  | Ok (w, rank) ->
    Alcotest.(check int) "full rank" 4 rank;
    (* Bit-compatibility with the historical whitener. *)
    check_mat ~eps:0. "same arithmetic as inv_sqrt_psd" (Matfun.inv_sqrt_psd a) w
  | Error e -> Alcotest.failf "unexpected: %s" (Robust.failure_to_string e)

(* ------------------------------------------------------------------ *)
(* CP-ALS guardrails *)

let test_cp_als_healthy_single_run () =
  let r = rng () in
  let t = random_tensor r [| 4; 5; 3 |] in
  let _, info = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t) in
  check_true "no failure" (info.Cp_als.failure = None);
  Alcotest.(check int) "single run" 1 (List.length info.Cp_als.runs)

let test_cp_als_nan_fit_stops_immediately () =
  (* Satellite fix: a NaN fit used to burn the full max_iter because
     |fit − prev| < tol is false for NaN.  Now every run stops at sweep 1. *)
  let r = rng () in
  let t = Tensor.map (fun v -> v +. nan) (random_tensor r [| 3; 4; 3 |]) in
  let _, info = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t) in
  check_true "not converged" (not info.Cp_als.converged);
  Alcotest.(check int) "stopped at first sweep" 1 info.Cp_als.iterations;
  (match info.Cp_als.failure with
  | Some (Robust.Non_finite { stage = "cp_als"; _ }) -> ()
  | _ -> Alcotest.fail "expected Non_finite cp_als failure");
  (* Restarts were attempted (default 2) and all failed the same way. *)
  Alcotest.(check int) "restart count" 3 (List.length info.Cp_als.runs);
  List.iter
    (fun run ->
      check_true "every run failed" (run.Cp_als.run_failure <> None);
      Alcotest.(check int) "every run stopped early" 1 run.Cp_als.run_iterations)
    info.Cp_als.runs

let test_cp_als_injection_deterministic () =
  let r = rng () in
  let t = random_tensor r [| 4; 4; 4 |] in
  let solve () =
    Robust.Inject.(
      with_stage Als_nan (fun () -> snd (Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t))))
  in
  let a = solve () and b = solve () in
  check_true "failure injected" (a.Cp_als.failure <> None);
  check_true "restart seeds deterministic"
    (List.map (fun r -> r.Cp_als.run_init) a.Cp_als.runs
    = List.map (fun r -> r.Cp_als.run_init) b.Cp_als.runs)

let test_cp_als_no_restart_on_plain_cap () =
  (* Exhausting max_iter without converging is not a failure — the historical
     contract (short-budget callers read the partial model) must hold. *)
  let r = rng () in
  let t = random_tensor r [| 5; 5; 5 |] in
  let options = { Cp_als.default_options with max_iter = 2; init = Cp_als.Random 3 } in
  let _, info = Cp_als.decompose_op ~options ~rank:3 (Op_tensor.Dense t) in
  check_true "no failure on cap" (info.Cp_als.failure = None);
  Alcotest.(check int) "no restarts" 1 (List.length info.Cp_als.runs)

(* ------------------------------------------------------------------ *)
(* End-to-end injection through the fit paths *)

let tcca_views r = random_views r ~dims:[| 5; 4; 6 |] ~n:40

let test_tcca_covariance_nan () =
  let r = rng () in
  let views = tcca_views r in
  Robust.Inject.(with_stage Covariance_nan (fun () ->
      match Tcca.fit_checked ~r:2 views with
      | Error (Robust.Non_finite _) -> ()
      | Ok _ -> Alcotest.fail "poisoned covariance produced a model"
      | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)))

let test_tcca_view_column_zero_recovers () =
  let r = rng () in
  let views = tcca_views r in
  Robust.Inject.(with_stage View_column_zero (fun () ->
      match Tcca.fit_checked ~r:2 views with
      | Ok t ->
        check_true "transform finite" (finite_mat (Tcca.transform t views));
        check_true "correlations finite" (Vec.all_finite (Tcca.correlations t))
      | Error e -> Alcotest.failf "dead column must recover: %s" (Robust.failure_to_string e)))

let test_tcca_sweep_cap () =
  let r = rng () in
  let views = tcca_views r in
  Robust.Inject.(with_stage Sweep_cap (fun () ->
      match Tcca.fit_checked ~r:2 views with
      | Error (Robust.Not_converged _) -> ()
      | Ok _ -> Alcotest.fail "capped eigensolver produced a model"
      | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)))

let test_tcca_als_nan () =
  let r = rng () in
  let views = tcca_views r in
  Robust.Inject.(with_stage Als_nan (fun () ->
      (match Tcca.fit_checked ~r:2 views with
      | Error (Robust.Non_finite { stage = "cp_als"; _ }) -> ()
      | Ok _ -> Alcotest.fail "NaN ALS produced a model"
      | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e));
      (* The legacy exception-style entry point raises the same failure. *)
      match Tcca.fit ~r:2 views with
      | _ -> Alcotest.fail "legacy fit must raise"
      | exception Robust.Error (Robust.Non_finite _) -> ()))

let test_tcca_constant_view_rank_deficient () =
  let r = rng () in
  let views = tcca_views r in
  views.(0) <- Mat.make 5 40 3.14;
  (* constant view: zero covariance *)
  match Tcca.fit_checked ~r:2 views with
  | Error (Robust.Rank_deficient { view = 0; rank = 0; dim = 5 }) -> ()
  | Ok _ -> Alcotest.fail "zero-information view produced a model"
  | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)

let test_tcca_nan_input () =
  let r = rng () in
  let views = tcca_views r in
  Mat.set views.(1) 2 7 nan;
  match Tcca.fit_checked ~r:2 views with
  | Error (Robust.Non_finite _) -> ()
  | Ok _ -> Alcotest.fail "NaN view produced a model"
  | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)

let test_tcca_both_paths_guarded () =
  (* Both operator routes must take the same guardrails. *)
  let r = rng () in
  let views = tcca_views r in
  List.iter
    (fun (route, name) ->
      with_route route (fun () ->
          Robust.Inject.(with_stage Covariance_nan (fun () ->
              match Tcca.fit_checked ~r:2 views with
              | Error (Robust.Non_finite _) -> ()
              | Ok _ -> Alcotest.failf "%s route missed the poisoned covariance" name
              | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)))))
    [ (`Dense, "dense"); (`Factored, "factored") ]

let ktcca_kernels r n =
  Array.init 3 (fun _ ->
      let x = random_mat r 6 n in
      Mat.tgram x)

let test_ktcca_gram_indefinite () =
  let r = rng () in
  let kernels = ktcca_kernels r 25 in
  Robust.Inject.(with_stage Gram_indefinite (fun () ->
      match Ktcca.fit_checked ~r:2 kernels with
      | Error (Robust.Not_positive_definite { jitter_tried; _ }) ->
        check_true "jitter ladder was walked" (jitter_tried > 0.)
      | Ok _ -> Alcotest.fail "indefinite Gram produced a model"
      | Error e -> Alcotest.failf "wrong failure: %s" (Robust.failure_to_string e)))

let test_ktcca_healthy () =
  let r = rng () in
  let kernels = ktcca_kernels r 25 in
  match Ktcca.fit_checked ~r:2 kernels with
  | Ok t -> check_true "train embedding finite" (finite_mat (Ktcca.transform_train t))
  | Error e -> Alcotest.failf "healthy kernels failed: %s" (Robust.failure_to_string e)

(* ------------------------------------------------------------------ *)
(* Degenerate-input properties: recovered or structured, never silent NaN *)

let recovered_or_structured ~r views =
  match Tcca.fit_checked ~r views with
  | Ok t ->
    finite_mat (Tcca.transform t views) && Vec.all_finite (Tcca.correlations t)
  | Error _ -> true

let prop_rank_deficient_views =
  (* Fewer instances than dimensions AND a duplicated instance: the covariance
     is singular on every view. *)
  qtest ~count:30 "n < d + duplicated columns"
    QCheck2.Gen.(pair (int_range 3 6) (int_range 0 1000))
    (fun (d, seed) ->
      let r = Rng.create seed in
      let n = max 2 (d - 1) in
      let views = random_views r ~dims:[| d; d + 1 |] ~n in
      Array.iter (fun v -> Mat.set_col v (n - 1) (Mat.col v 0)) views;
      recovered_or_structured ~r:2 views)

let prop_indefinite_kernels =
  qtest ~count:30 "indefinite symmetric kernels"
    QCheck2.Gen.(pair (int_range 4 8) (int_range 0 1000))
    (fun (n, seed) ->
      let r = Rng.create seed in
      let kernels =
        Array.init 2 (fun _ ->
            let a = random_mat r n n in
            (* Symmetric but in general indefinite. *)
            Mat.scale 0.5 (Mat.add a (Mat.transpose a)))
      in
      match Ktcca.fit_checked ~r:1 kernels with
      | Ok t -> finite_mat (Ktcca.transform_train t)
      | Error _ -> true)

let prop_subnormal_tensors =
  qtest ~count:30 "subnormal-scale tensors" Test_support.gen_tensor3 (fun t ->
      let t = Tensor.scale 1e-310 t in
      let kruskal, info = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t) in
      match info.Cp_als.failure with
      | Some _ -> true
      | None ->
        Vec.all_finite kruskal.Kruskal.weights
        && Array.for_all Mat.all_finite kruskal.Kruskal.factors)

let prop_tiny_sample_fits =
  (* The paper's small-sample regime: N as low as 2. *)
  qtest ~count:30 "tiny-sample fits"
    QCheck2.Gen.(pair (int_range 2 5) (int_range 0 1000))
    (fun (n, seed) ->
      let r = Rng.create seed in
      let views = random_views r ~dims:[| 4; 3; 5 |] ~n in
      recovered_or_structured ~r:2 views)

let () =
  Robust.Inject.reset ();
  Alcotest.run "robust"
    [ ( "inject",
        [ Alcotest.test_case "default off" `Quick test_inject_default_off;
          Alcotest.test_case "arm/disarm" `Quick test_inject_arm_disarm;
          Alcotest.test_case "with_stage restores" `Quick test_inject_with_stage_restores ] );
      ( "reporting",
        [ Alcotest.test_case "warning ring" `Quick test_warning_ring;
          Alcotest.test_case "ring domain-safe" `Quick test_warning_ring_domain_safe;
          Alcotest.test_case "drain reads and clears" `Quick test_drain_warnings;
          Alcotest.test_case "drains partition entries" `Quick test_drain_warnings_partitions;
          Alcotest.test_case "failure printing" `Quick test_failure_printing ] );
      ( "linalg",
        [ Alcotest.test_case "eigen info" `Quick test_eigen_info_converges;
          Alcotest.test_case "eigen nan" `Quick test_eigen_checked_nan;
          Alcotest.test_case "eigen sweep cap" `Quick test_eigen_sweep_cap_injection;
          Alcotest.test_case "eigen cap warns" `Quick test_eigen_cap_warns;
          Alcotest.test_case "svd info" `Quick test_svd_info_converges;
          Alcotest.test_case "svd inf" `Quick test_svd_checked_nan;
          Alcotest.test_case "cholesky jitter recovers" `Quick test_cholesky_jitter_recovers;
          Alcotest.test_case "cholesky jitter exhausted" `Quick test_cholesky_jitter_exhausted;
          Alcotest.test_case "whitener rank report" `Quick test_inv_sqrt_rank_report ] );
      ( "cp-als",
        [ Alcotest.test_case "healthy single run" `Quick test_cp_als_healthy_single_run;
          Alcotest.test_case "nan fit stops" `Quick test_cp_als_nan_fit_stops_immediately;
          Alcotest.test_case "deterministic restarts" `Quick test_cp_als_injection_deterministic;
          Alcotest.test_case "no restart on cap" `Quick test_cp_als_no_restart_on_plain_cap ] );
      ( "tcca-injection",
        [ Alcotest.test_case "covariance nan" `Quick test_tcca_covariance_nan;
          Alcotest.test_case "dead column recovers" `Quick test_tcca_view_column_zero_recovers;
          Alcotest.test_case "sweep cap" `Quick test_tcca_sweep_cap;
          Alcotest.test_case "als nan" `Quick test_tcca_als_nan;
          Alcotest.test_case "constant view" `Quick test_tcca_constant_view_rank_deficient;
          Alcotest.test_case "nan input" `Quick test_tcca_nan_input;
          Alcotest.test_case "factored path" `Quick test_tcca_both_paths_guarded ] );
      ( "ktcca-injection",
        [ Alcotest.test_case "gram indefinite" `Quick test_ktcca_gram_indefinite;
          Alcotest.test_case "healthy" `Quick test_ktcca_healthy ] );
      ( "properties",
        [ prop_rank_deficient_views;
          prop_indefinite_kernels;
          prop_subnormal_tensors;
          prop_tiny_sample_fits ] ) ]
