open Test_support

let three_view_grams r ~n =
  let views = Array.init 3 (fun _ -> Mat.create 2 n) in
  let labels = Array.init n (fun j -> j mod 2) in
  for j = 0 to n - 1 do
    let radius = if labels.(j) = 0 then 1. else 3. in
    Array.iter
      (fun v ->
        let a = Rng.float r (2. *. Float.pi) in
        Mat.set v 0 j ((radius *. cos a) +. (0.1 *. Rng.gaussian r));
        Mat.set v 1 j ((radius *. sin a) +. (0.1 *. Rng.gaussian r)))
      views
  done;
  let fits = Array.map (fun v -> Kernel.fit (Kernel.Exp_distance Distance.L2) v) views in
  (Array.map Kernel.gram fits, fits, views, labels)

let test_shapes () =
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:40 in
  let model = Ktcca.fit ~r:3 kernels in
  Alcotest.(check int) "r" 3 (Ktcca.r model);
  Alcotest.(check int) "views" 3 (Ktcca.n_views model);
  Alcotest.(check (pair int int)) "3r × N" (9, 40) (Mat.dims (Ktcca.transform_train model));
  Array.iter
    (fun a -> Alcotest.(check (pair int int)) "dual shape" (40, 3) (Mat.dims a))
    (Ktcca.dual_weights model)

let test_two_views_matches_kcca () =
  (* For m = 2 KTCCA's leading directions coincide with KCCA's (the tensor
     problem degenerates to the same SVD, up to the 1/N weight scale). *)
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:50 in
  let pair = [| kernels.(0); kernels.(1) |] in
  let ktcca = Ktcca.fit ~eps:1e-2 ~r:3 pair in
  let kcca = Kcca.fit ~eps:1e-2 ~r:3 kernels.(0) kernels.(1) in
  let zt = Ktcca.transform_train ktcca and zc = Kcca.transform_train kcca in
  for i = 0 to 2 do
    check_true
      (Printf.sprintf "component %d matches" i)
      (Float.abs (Stats.pearson (Mat.row zt i) (Mat.row zc i)) > 0.999)
  done

let test_nonlinear_separation () =
  let r = rng () in
  let kernels, _, _, labels = three_view_grams r ~n:100 in
  let model = Ktcca.fit ~eps:1e-1 ~r:4 kernels in
  let z = Ktcca.transform_train model in
  let knn = Knn.fit ~k:3 z labels in
  check_true "rings separated" (Eval.accuracy (Knn.predict knn z) labels > 0.85)

let test_out_of_sample_matches_train () =
  let r = rng () in
  let _, fits, views, _ = three_view_grams r ~n:40 in
  let kernels = Array.map Kernel.gram fits in
  let model = Ktcca.fit ~eps:1e-2 ~r:2 kernels in
  let crosses = Array.map2 Kernel.cross fits views in
  check_mat ~eps:1e-8 "train = cross(train)" (Ktcca.transform_train model)
    (Ktcca.transform model crosses)

let test_prepare_consistency () =
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:40 in
  let direct = Ktcca.fit ~eps:1e-2 ~r:2 kernels in
  let prepared = Ktcca.fit_prepared ~r:2 (Ktcca.prepare ~eps:1e-2 kernels) in
  check_mat ~eps:1e-12 "same embedding" (Ktcca.transform_train direct)
    (Ktcca.transform_train prepared)

let test_power_deflation_refuses_above_cap () =
  (* Five Nyström views at ℓₚ = 40 make a 40⁵ ≈ 1.02·10⁸-entry S, above
     Op_tensor.dense_entry_cap: the route keeps it factored, and the
     dense-only solver refuses it before allocating anything. *)
  let r = rng () in
  let n = 50 in
  let oracles =
    Array.init 5 (fun _ ->
        Kernel.oracle (Kernel.fit ~precompute:false (Kernel.Rbf 0.05) (random_mat r 8 n)))
  in
  let p =
    Ktcca.prepare_oracles ~eps:1e-2 ~approx:(Ktcca.Nystrom { rank = 40; tol = 0. }) oracles
  in
  (match Ktcca.sketch_info p with
  | Some info -> Array.iter (Alcotest.(check int) "ℓₚ" 40) info.Ktcca.achieved_ranks
  | None -> Alcotest.fail "expected sketch diagnostics");
  check_true "above the cap stays factored" (not (Ktcca.materialized p));
  Alcotest.check_raises "refused"
    (Invalid_argument
       "Ktcca.fit_prepared: this solver needs the dense tensor (102400000 entries); use the \
        Als solver for factored operators")
    (fun () -> ignore (Ktcca.fit_prepared ~solver:Tcca.Power_deflation ~r:1 p))

let test_factored_matches_dense () =
  (* N=40, m=3 (64 000 entries): both representations of S must give the
     same model. *)
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:40 in
  let dense_p = with_route `Dense (fun () -> Ktcca.prepare ~eps:1e-2 kernels) in
  let fact_p = with_route `Factored (fun () -> Ktcca.prepare ~eps:1e-2 kernels) in
  check_true "dense is dense" (Ktcca.materialized dense_p);
  check_true "factored is factored" (not (Ktcca.materialized fact_p));
  let zd = Ktcca.transform_train (Ktcca.fit_prepared ~r:2 dense_p) in
  let zf = Ktcca.transform_train (Ktcca.fit_prepared ~r:2 fact_p) in
  for i = 0 to 5 do
    check_true
      (Printf.sprintf "component %d matches" i)
      (Float.abs (Stats.pearson (Mat.row zd i) (Mat.row zf i)) > 0.9999)
  done

(* --- Nyström sketched path. --- *)

let test_nystrom_full_rank_matches_exact () =
  (* At ℓ = N with tol 0 the partial Cholesky is exact (K̂ = K), so the
     sketched model must reproduce the exact one. *)
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:40 in
  let exact = Ktcca.fit ~eps:1e-2 ~r:2 kernels in
  let ny = Ktcca.fit ~eps:1e-2 ~approx:(Ktcca.Nystrom { rank = 40; tol = 0. }) ~r:2 kernels in
  let ze = Ktcca.transform_train exact and zn = Ktcca.transform_train ny in
  Alcotest.(check (pair int int)) "same shape" (Mat.dims ze) (Mat.dims zn);
  for i = 0 to 5 do
    check_true
      (Printf.sprintf "component %d matches exact" i)
      (Float.abs (Stats.pearson (Mat.row ze i) (Mat.row zn i)) > 0.999)
  done

let test_nystrom_converges_with_rank () =
  (* ℓ → N monotonically drives the kernel trace residual to zero. *)
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:40 in
  let residual rank =
    let p = Ktcca.prepare ~eps:1e-2 ~approx:(Ktcca.Nystrom { rank; tol = 0. }) kernels in
    match Ktcca.sketch_info p with
    | None -> Alcotest.fail "expected sketch diagnostics"
    | Some info -> Array.fold_left Float.max 0. info.Ktcca.trace_residuals
  in
  let r10 = residual 10 and r25 = residual 25 and r40 = residual 40 in
  check_true "residual shrinks 10→25" (r25 <= r10 +. 1e-12);
  check_true "residual shrinks 25→40" (r40 <= r25 +. 1e-12);
  check_true "full rank residual ~ 0" (r40 < 1e-8)

let test_nystrom_sketch_info () =
  let r = rng () in
  let kernels, _, _, _ = three_view_grams r ~n:40 in
  let p = Ktcca.prepare ~eps:1e-2 ~approx:(Ktcca.Nystrom { rank = 15; tol = 0. }) kernels in
  (match Ktcca.sketch_info p with
  | None -> Alcotest.fail "expected sketch diagnostics"
  | Some info ->
    Alcotest.(check int) "one rank per view" 3 (Array.length info.Ktcca.achieved_ranks);
    Array.iter (fun l -> check_true "ℓ ≤ cap" (l <= 15)) info.Ktcca.achieved_ranks;
    Array.iter
      (fun res -> check_true "residual ∈ [0,1]" (res >= 0. && res <= 1. +. 1e-12))
      info.Ktcca.trace_residuals);
  check_true "exact path has no sketch"
    (Ktcca.sketch_info (Ktcca.prepare ~eps:1e-2 kernels) = None);
  let model = Ktcca.fit_prepared ~r:2 p in
  check_true "model carries the diagnostics" (Ktcca.model_sketch_info model <> None)

let test_nystrom_oracles_match_grams () =
  (* The no-N×N entry point ([fit_oracles] on [Kernel.oracle]) and the Gram
     entry point with the same approximation agree. *)
  let r = rng () in
  let kernels, fits, _, _ = three_view_grams r ~n:40 in
  let approx = Ktcca.Nystrom { rank = 40; tol = 0. } in
  let from_grams = Ktcca.fit ~eps:1e-2 ~approx ~r:2 kernels in
  let from_oracles = Ktcca.fit_oracles ~eps:1e-2 ~approx ~r:2 (Array.map Kernel.oracle fits) in
  check_mat ~eps:1e-6 "same embedding"
    (Ktcca.transform_train from_grams)
    (Ktcca.transform_train from_oracles)

let test_nystrom_out_of_sample () =
  (* At full rank the approximate column means equal the exact ones, so
     embedding the training columns through [transform] reproduces
     [transform_train]. *)
  let r = rng () in
  let _, fits, views, _ = three_view_grams r ~n:40 in
  let kernels = Array.map Kernel.gram fits in
  let model =
    Ktcca.fit ~eps:1e-2 ~approx:(Ktcca.Nystrom { rank = 40; tol = 0. }) ~r:2 kernels
  in
  let crosses = Array.map2 Kernel.cross fits views in
  check_mat ~eps:1e-6 "train = cross(train)" (Ktcca.transform_train model)
    (Ktcca.transform model crosses)

let test_nystrom_low_rank_separates () =
  (* A genuinely truncated sketch (ℓ ≪ N) still solves the rings task. *)
  let r = rng () in
  let kernels, _, _, labels = three_view_grams r ~n:100 in
  let model =
    Ktcca.fit ~eps:1e-1 ~approx:(Ktcca.Nystrom { rank = 30; tol = 0. }) ~r:4 kernels
  in
  let z = Ktcca.transform_train model in
  let knn = Knn.fit ~k:3 z labels in
  check_true "rings separated on the sketch" (Eval.accuracy (Knn.predict knn z) labels > 0.8)

(* A solve that fails after its budget ran out is an [Error] that announces
   no best-so-far model, from KTCCA as from TCCA: ALS poisoned with NaN
   fails its first run at sweep 1, and the one-sweep budget leaves no room
   for a restart, so the solver reports the failure and the deadline. *)
let test_failed_solve_announces_no_model () =
  let r = rng () in
  let kernels, _, views, _ = three_view_grams r ~n:30 in
  let budget () = Budget.create ~sweeps:1 () in
  let poisoned name = function
    | Error (Robust.Non_finite { stage = "cp_als"; _ }) ->
      check_true (name ^ ": no best-so-far warning")
        (not (List.exists (fun w -> contains w "best-so-far") (Robust.recent_warnings ())))
    | Ok _ -> Alcotest.failf "%s: poisoned ALS produced a model" name
    | Error e -> Alcotest.failf "%s: wrong failure: %s" name (Robust.failure_to_string e)
  in
  Robust.Inject.(with_stage Als_nan (fun () ->
      Robust.clear_warnings ();
      poisoned "Ktcca" (Ktcca.fit_checked ~budget:(budget ()) ~r:1 kernels);
      Robust.clear_warnings ();
      poisoned "Tcca" (Tcca.fit_checked ~budget:(budget ()) ~r:1 views)));
  Robust.clear_warnings ()

let test_errors () =
  Alcotest.check_raises "one view" (Invalid_argument "Ktcca.fit: need at least two views")
    (fun () -> ignore (Ktcca.fit ~r:1 [| Mat.identity 3 |]))

let () =
  Alcotest.run "ktcca"
    [ ( "theory",
        [ Alcotest.test_case "m=2 reduces to KCCA" `Quick test_two_views_matches_kcca;
          Alcotest.test_case "factored = dense" `Quick test_factored_matches_dense ] );
      ( "behaviour",
        [ Alcotest.test_case "nonlinear separation" `Quick test_nonlinear_separation;
          Alcotest.test_case "out of sample" `Quick test_out_of_sample_matches_train ] );
      ( "interface",
        [ Alcotest.test_case "shapes" `Quick test_shapes;
          Alcotest.test_case "prepare" `Quick test_prepare_consistency;
          Alcotest.test_case "power deflation above the cap" `Quick
            test_power_deflation_refuses_above_cap;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "failed solve announces no model" `Quick
            test_failed_solve_announces_no_model ] );
      ( "nystrom",
        [ Alcotest.test_case "full rank = exact" `Quick test_nystrom_full_rank_matches_exact;
          Alcotest.test_case "residual → 0 as ℓ → N" `Quick test_nystrom_converges_with_rank;
          Alcotest.test_case "sketch diagnostics" `Quick test_nystrom_sketch_info;
          Alcotest.test_case "oracles = grams" `Quick test_nystrom_oracles_match_grams;
          Alcotest.test_case "out of sample" `Quick test_nystrom_out_of_sample;
          Alcotest.test_case "low rank separates" `Quick test_nystrom_low_rank_separates ] ) ]
