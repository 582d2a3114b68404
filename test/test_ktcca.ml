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

let test_above_cap_stays_factored () =
  (* Five Nyström views at ℓₚ = 40 make a 40⁵ ≈ 1.02·10⁸-entry S, above
     Op_tensor.dense_entry_cap: the route keeps it factored, and CP-ALS
     fits it there without allocating anything of that size. *)
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
  let m = Ktcca.fit_prepared ~r:1 p in
  check_true "finite model"
    (Vec.all_finite (Ktcca.correlations m) && Array.for_all Mat.all_finite (Ktcca.dual_weights m))

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

(* --- The fit, replayed: the staged entry points and the ℓ-space operator
   rebuilt from public calls reproduce [Ktcca.fit_oracles] bit for bit, at
   pools 1 and 4. --- *)

let eps = 1e-4
let nystrom_rank = 12 and nystrom_tol = 1e-8
let nystrom = Ktcca.Nystrom { rank = nystrom_rank; tol = nystrom_tol }
let gen_nystrom_case = QCheck2.Gen.(triple (int_range 1 3) (int_range 60 120) (int_bound 1_000_000))

(* RBF oracles over three views sharing a latent in their first
   coordinate. *)
let shared_oracles ~n ~seed =
  let r = Rng.create seed in
  let s = Array.init n (fun _ -> Rng.gaussian r) in
  Array.init 3 (fun _ ->
      let v = Mat.create 4 n in
      for j = 0 to n - 1 do
        Mat.set v 0 j (s.(j) +. (0.3 *. Rng.gaussian r));
        for i = 1 to 3 do
          Mat.set v i j (Rng.gaussian r)
        done
      done;
      Kernel.oracle (Kernel.fit ~precompute:false (Kernel.Rbf 0.1) v))

let at_pools_1_and_4 check = List.for_all (fun size -> with_pool size check) [ 1; 4 ]

let warm_factors m =
  match Ktcca.warm_solver m with
  | Tcca.Als { Cp_als.init = Cp_als.Warm fs; _ } -> fs
  | Tcca.Als _ -> [||]

let same_ktcca_model a b =
  Array.for_all2 same_bits (Ktcca.correlations a) (Ktcca.correlations b)
  && Array.for_all2 bits_equal (Ktcca.dual_weights a) (Ktcca.dual_weights b)
  && bits_equal (Ktcca.transform_train a) (Ktcca.transform_train b)
  && Array.for_all2 bits_equal (warm_factors a) (warm_factors b)

(* S rebuilt from public calls: the partial Cholesky Fₚ of each kernel, its
   columns centered, the Cholesky factor Gₚ of FₚᵀFₚ + εI, the factored
   operator over Zₚ = Gₚ⁻¹Fₚᵀ, and the route it takes. *)
let replayed_operator oracles =
  let whitened o =
    match Pchol.decompose ~rank:nystrom_rank ~tol:nystrom_tol o with
    | Error e -> Alcotest.failf "replayed pchol: %s" (Robust.failure_to_string e)
    | Ok (f0, _) -> (
      let n, l = Mat.dims f0 in
      let means = Array.init l (fun j -> Vec.mean (Mat.col f0 j)) in
      let f = Mat.init n l (fun i j -> Mat.get f0 i j -. means.(j)) in
      match Cholesky.decompose_jittered (Mat.add_scaled_identity eps (Mat.tgram f)) with
      | Ok (g, _) -> Mat.mul (Cholesky.inverse_lower g) (Mat.transpose f)
      | Error e -> Alcotest.failf "replayed whitening: %s" (Robust.failure_to_string e))
  in
  let zs = Array.map whitened oracles in
  match
    Op_tensor.route ~stage:"test" ~where:"replay"
      (Op_tensor.factored ~weight:(1. /. float_of_int (snd (Mat.dims zs.(0)))) zs)
  with
  | Ok op -> op
  | Error e -> Alcotest.failf "replayed route: %s" (Robust.failure_to_string e)

let prop_staged_equals_fit =
  qtest ~count:3 "staged = fit, bitwise (Nyström, pools 1 and 4)" gen_nystrom_case
    (fun (r, n, seed) ->
      let oracles = shared_oracles ~n ~seed in
      at_pools_1_and_4 (fun () ->
          let staged =
            Ktcca.fit_prepared ~r (Ktcca.prepare_oracles ~eps ~approx:nystrom oracles)
          in
          same_ktcca_model staged (Ktcca.fit_oracles ~eps ~approx:nystrom ~r oracles)))

let prop_replay_equals_fit =
  qtest ~count:3 "replay = fit: Cp_als on the rebuilt ℓ-space S, bitwise (pools 1 and 4)"
    gen_nystrom_case (fun (r, n, seed) ->
      let oracles = shared_oracles ~n ~seed in
      at_pools_1_and_4 (fun () ->
          let op = replayed_operator oracles in
          let rank = Array.fold_left min r (Op_tensor.dims op) in
          let k, _ = Cp_als.decompose_op ~rank op in
          let m = Ktcca.fit_oracles ~eps ~approx:nystrom ~r oracles in
          Array.for_all2 bits_equal k.Kruskal.factors (warm_factors m)))

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
          Alcotest.test_case "above the dense cap stays factored" `Quick
            test_above_cap_stays_factored;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "failed solve announces no model" `Quick
            test_failed_solve_announces_no_model ] );
      ( "nystrom",
        [ Alcotest.test_case "full rank = exact" `Quick test_nystrom_full_rank_matches_exact;
          Alcotest.test_case "residual → 0 as ℓ → N" `Quick test_nystrom_converges_with_rank;
          Alcotest.test_case "sketch diagnostics" `Quick test_nystrom_sketch_info;
          Alcotest.test_case "oracles = grams" `Quick test_nystrom_oracles_match_grams;
          Alcotest.test_case "out of sample" `Quick test_nystrom_out_of_sample;
          Alcotest.test_case "low rank separates" `Quick test_nystrom_low_rank_separates ] );
      ("replay", [ prop_staged_equals_fit; prop_replay_equals_fit ]) ]
