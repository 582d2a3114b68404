open Test_support

let test_rank1_exact () =
  let r = rng () in
  let xs =
    [| Vec.normalize (random_vec r 4);
       Vec.normalize (random_vec r 5);
       Vec.normalize (random_vec r 3) |]
  in
  let t = Tensor.scale 4. (Tensor.outer xs) in
  let res = Hopm.rank1 t in
  check_true "converged" res.Hopm.converged;
  check_float ~eps:1e-8 "sigma" 4. (Float.abs res.Hopm.sigma);
  Array.iteri
    (fun p v ->
      check_true (Printf.sprintf "direction %d" p) (Float.abs (Vec.dot v xs.(p)) > 1. -. 1e-6))
    res.Hopm.vectors

let test_unit_vectors () =
  let r = rng () in
  let t = random_tensor r [| 4; 3; 5 |] in
  let res = Hopm.rank1 t in
  Array.iter (fun v -> check_float ~eps:1e-8 "unit" 1. (Vec.norm v)) res.Hopm.vectors

let test_sigma_is_multilinear_form () =
  let r = rng () in
  let t = random_tensor r [| 3; 4; 2 |] in
  let res = Hopm.rank1 t in
  check_float ~eps:1e-8 "sigma consistency" (Tensor.multilinear_form t res.Hopm.vectors)
    res.Hopm.sigma

let test_dominant_of_two () =
  (* Orthogonal rank-2: HOPM must pick the heavier term. *)
  let u = [| [| 1.; 0. |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0.; 0. |] |] in
  let v = [| [| 0.; 1. |]; [| 0.; 1.; 0. |]; [| 0.; 1.; 0.; 0. |] |] in
  let t = Tensor.add (Tensor.scale 7. (Tensor.outer u)) (Tensor.scale 3. (Tensor.outer v)) in
  let res = Hopm.rank1 t in
  check_float ~eps:1e-6 "dominant weight" 7. (Float.abs res.Hopm.sigma)

let test_matrix_case_is_svd () =
  (* For an order-2 tensor HOPM computes the top singular triplet. *)
  let r = rng () in
  let m = random_mat r 5 4 in
  let t = Tensor.init [| 5; 4 |] (fun idx -> Mat.get m idx.(0) idx.(1)) in
  let res = Hopm.rank1 t in
  let svd = Svd.decompose m in
  check_float ~eps:1e-6 "sigma = sigma_1" svd.Svd.sigma.(0) (Float.abs res.Hopm.sigma)

let test_zero_tensor () =
  let t = Tensor.create [| 3; 3; 3 |] in
  let res = Hopm.rank1 t in
  check_float "zero sigma" 0. res.Hopm.sigma

let test_power_deflation_decomposes () =
  (* Orthogonal ground truth: greedy deflation recovers both weights. *)
  let u = [| [| 1.; 0. |]; [| 1.; 0.; 0. |]; [| 1.; 0.; 0.; 0. |] |] in
  let v = [| [| 0.; 1. |]; [| 0.; 1.; 0. |]; [| 0.; 1.; 0.; 0. |] |] in
  let t = Tensor.add (Tensor.scale 7. (Tensor.outer u)) (Tensor.scale 3. (Tensor.outer v)) in
  let k = Tensor_power.decompose ~rank:2 t in
  let sorted = Array.copy k.Kruskal.weights in
  Array.sort (fun a b -> compare (Float.abs b) (Float.abs a)) sorted;
  check_float ~eps:1e-5 "first" 7. (Float.abs sorted.(0));
  check_float ~eps:1e-5 "second" 3. (Float.abs sorted.(1));
  check_float ~eps:1e-5 "full fit" 1. (Kruskal.fit k t)

let test_power_invalid_rank () =
  Alcotest.check_raises "rank 0" (Invalid_argument "Tensor_power.decompose: rank must be >= 1")
    (fun () -> ignore (Tensor_power.decompose ~rank:0 (Tensor.create [| 2; 2 |])))

let () =
  Alcotest.run "hopm"
    [ ( "rank-1",
        [ Alcotest.test_case "exact" `Quick test_rank1_exact;
          Alcotest.test_case "unit vectors" `Quick test_unit_vectors;
          Alcotest.test_case "sigma consistency" `Quick test_sigma_is_multilinear_form;
          Alcotest.test_case "dominant" `Quick test_dominant_of_two;
          Alcotest.test_case "matrix = svd" `Quick test_matrix_case_is_svd;
          Alcotest.test_case "zero tensor" `Quick test_zero_tensor ] );
      ( "deflation",
        [ Alcotest.test_case "decomposes" `Quick test_power_deflation_decomposes;
          Alcotest.test_case "invalid rank" `Quick test_power_invalid_rank ] ) ]
