open Test_support

let test_sqrt_known () =
  let a = Mat.diag_of_vec [| 4.; 9. |] in
  check_mat ~eps:1e-10 "sqrt diag" (Mat.diag_of_vec [| 2.; 3. |]) (sqrt_psd a)

let test_sqrt_squares () =
  let r = rng () in
  for _ = 1 to 8 do
    let a = random_spd r 6 in
    let s = sqrt_psd a in
    check_mat ~eps:1e-7 "S·S = A" a (Mat.mul s s);
    check_true "sqrt symmetric" (Mat.is_symmetric ~eps:1e-8 s)
  done

let test_inv_sqrt_whitens () =
  let r = rng () in
  let a = random_spd r 7 in
  let w = Matfun.inv_sqrt_psd a in
  check_mat ~eps:1e-6 "W A W = I" (Mat.identity 7) (Mat.mul w (Mat.mul a w))

let test_inv_psd () =
  let r = rng () in
  let a = random_spd r 6 in
  check_mat ~eps:1e-7 "A⁻¹A = I" (Mat.identity 6) (Mat.mul (Matfun.inv_psd a) a)

let test_inv_sqrt_floor () =
  (* Rank-deficient input must not blow up thanks to the eigenvalue floor. *)
  let a = Mat.of_arrays [| [| 1.; 1. |]; [| 1.; 1. |] |] in
  let w = Matfun.inv_sqrt_psd a in
  check_true "finite" (Array.for_all Float.is_finite (Mat.row w 0));
  check_true "finite" (Array.for_all Float.is_finite (Mat.row w 1))

let test_pinv_square () =
  let r = rng () in
  let a = Mat.add_scaled_identity 1. (random_mat r 5 5) in
  check_mat ~eps:1e-7 "pinv = inverse when invertible" (Lu.inverse (Lu.decompose a))
    (pinv a)

let test_pinv_moore_penrose () =
  let r = rng () in
  let a = random_mat r 7 4 in
  let p = pinv a in
  (* A A⁺ A = A and A⁺ A A⁺ = A⁺. *)
  check_mat ~eps:1e-7 "A A+ A = A" a (Mat.mul a (Mat.mul p a));
  check_mat ~eps:1e-7 "A+ A A+ = A+" p (Mat.mul p (Mat.mul a p));
  check_true "A A+ symmetric" (Mat.is_symmetric ~eps:1e-7 (Mat.mul a p));
  check_true "A+ A symmetric" (Mat.is_symmetric ~eps:1e-7 (Mat.mul p a))

let test_pinv_rank_deficient () =
  let a = Mat.of_arrays [| [| 1.; 2. |]; [| 2.; 4. |] |] in
  let p = pinv a in
  check_mat ~eps:1e-8 "A A+ A = A (singular)" a (Mat.mul a (Mat.mul p a))

let test_apply_spectral () =
  let r = rng () in
  let a = random_spd r 5 in
  check_mat ~eps:1e-7 "identity function" a (apply_spectral (fun l -> l) a);
  let sq = apply_spectral (fun l -> l *. l) a in
  check_mat ~eps:1e-6 "square function = A·A" (Mat.mul a a) sq

let prop_inv_sqrt_spd =
  qtest ~count:40 "inv_sqrt output symmetric" gen_spd (fun a ->
      Mat.is_symmetric ~eps:1e-7 (Matfun.inv_sqrt_psd a))

let prop_whitening =
  qtest ~count:40 "whitening property" gen_spd (fun a ->
      let n = fst (Mat.dims a) in
      let w = Matfun.inv_sqrt_psd a in
      Mat.equal ~eps:1e-5 (Mat.identity n) (Mat.mul w (Mat.mul a w)))

let () =
  Alcotest.run "matfun"
    [ ( "sqrt",
        [ Alcotest.test_case "known" `Quick test_sqrt_known;
          Alcotest.test_case "squares" `Quick test_sqrt_squares;
          Alcotest.test_case "inv sqrt whitens" `Quick test_inv_sqrt_whitens;
          Alcotest.test_case "floor" `Quick test_inv_sqrt_floor;
          Alcotest.test_case "inv psd" `Quick test_inv_psd ] );
      ( "pinv",
        [ Alcotest.test_case "square" `Quick test_pinv_square;
          Alcotest.test_case "moore-penrose" `Quick test_pinv_moore_penrose;
          Alcotest.test_case "rank deficient" `Quick test_pinv_rank_deficient;
          Alcotest.test_case "apply spectral" `Quick test_apply_spectral ] );
      ("properties", [ prop_inv_sqrt_spd; prop_whitening ]) ]
