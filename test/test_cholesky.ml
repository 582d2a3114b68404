open Test_support

let test_factor_known () =
  (* [[4,2],[2,5]] = G Gᵀ with G = [[2,0],[1,2]]. *)
  let a = Mat.of_arrays [| [| 4.; 2. |]; [| 2.; 5. |] |] in
  let g = Cholesky.lower (Cholesky.decompose a) in
  check_mat ~eps:1e-12 "lower factor" (Mat.of_arrays [| [| 2.; 0. |]; [| 1.; 2. |] |]) g

let test_reconstruction () =
  let r = rng () in
  for _ = 1 to 10 do
    let a = random_spd r 7 in
    let g = Cholesky.lower (Cholesky.decompose a) in
    check_mat ~eps:1e-8 "G·Gᵀ = A" a (Mat.mul_nt g g)
  done

let test_solve () =
  let r = rng () in
  let a = random_spd r 6 in
  let b = random_vec r 6 in
  let x = Cholesky.solve_vec (Cholesky.decompose a) b in
  check_vec ~eps:1e-8 "Ax = b" b (Mat.mul_vec a x)

let test_inverse () =
  let r = rng () in
  let a = random_spd r 5 in
  let inv = cholesky_inverse (Cholesky.decompose a) in
  check_mat ~eps:1e-8 "A·A⁻¹" (Mat.identity 5) (Mat.mul a inv)

let test_not_pd () =
  (* Leading 1×1 minor is fine; the second pivot is 1 − 4 = −3. *)
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 1. |] |] in
  match Cholesky.decompose a with
  | _ -> Alcotest.fail "indefinite matrix factorized"
  | exception Cholesky.Not_positive_definite { pivot; value } ->
    Alcotest.(check int) "failing pivot" 1 pivot;
    check_float ~eps:1e-12 "pivot value" (-3.) value

let test_nan_pivot () =
  let a = Mat.of_arrays [| [| nan; 0. |]; [| 0.; 1. |] |] in
  match Cholesky.decompose a with
  | _ -> Alcotest.fail "NaN matrix factorized"
  | exception Cholesky.Not_positive_definite { pivot; value } ->
    Alcotest.(check int) "failing pivot" 0 pivot;
    check_true "pivot value is NaN" (Float.is_nan value)

let test_not_square () =
  Alcotest.check_raises "not square" (Invalid_argument "Cholesky.decompose: not square")
    (fun () -> ignore (Cholesky.decompose (Mat.create 2 3)))

let test_log_det () =
  let r = rng () in
  let a = random_spd r 5 in
  let expected = log (Lu.det (Lu.decompose a)) in
  check_float ~eps:1e-8 "log det matches LU" expected
    (cholesky_log_det (Cholesky.decompose a))

let test_triangular_solves () =
  let r = rng () in
  let a = random_spd r 6 in
  let f = Cholesky.decompose a in
  let g = Cholesky.lower f in
  let b = random_vec r 6 in
  (* G y = b *)
  let y = Cholesky.solve_lower_vec f b in
  check_vec ~eps:1e-8 "forward solve" b (Mat.mul_vec g y);
  (* Gᵀ X = B *)
  let bm = random_mat r 6 2 in
  let x = Cholesky.solve_lower_transpose f bm in
  check_mat ~eps:1e-8 "transpose solve" bm (Mat.mul (Mat.transpose g) x)

let test_inverse_lower () =
  let r = rng () in
  let a = random_spd r 5 in
  let f = Cholesky.decompose a in
  let g = Cholesky.lower f and gi = Cholesky.inverse_lower f in
  check_mat ~eps:1e-8 "G·G⁻¹" (Mat.identity 5) (Mat.mul g gi)

let prop_solve_residual =
  qtest ~count:60 "SPD solve residual" gen_spd (fun a ->
      let n = fst (Mat.dims a) in
      let b = Array.init n (fun i -> float_of_int (i + 1)) in
      let x = Cholesky.solve_vec (Cholesky.decompose a) b in
      Vec.norm (Vec.sub (Mat.mul_vec a x) b) < 1e-6 *. (1. +. Vec.norm b))

let prop_factor_lower_triangular =
  qtest ~count:60 "factor is lower triangular" gen_spd (fun a ->
      let g = Cholesky.lower (Cholesky.decompose a) in
      let n = fst (Mat.dims g) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Mat.get g i j <> 0. then ok := false
        done
      done;
      !ok)

let () =
  Alcotest.run "cholesky"
    [ ( "factorization",
        [ Alcotest.test_case "known" `Quick test_factor_known;
          Alcotest.test_case "reconstruction" `Quick test_reconstruction;
          Alcotest.test_case "inverse lower" `Quick test_inverse_lower ] );
      ( "solve",
        [ Alcotest.test_case "vector" `Quick test_solve;
          Alcotest.test_case "inverse" `Quick test_inverse;
          Alcotest.test_case "triangular" `Quick test_triangular_solves;
          Alcotest.test_case "log det" `Quick test_log_det ] );
      ( "errors",
        [ Alcotest.test_case "not pd" `Quick test_not_pd;
          Alcotest.test_case "nan pivot" `Quick test_nan_pivot;
          Alcotest.test_case "not square" `Quick test_not_square ] );
      ("properties", [ prop_solve_residual; prop_factor_lower_triangular ]) ]
