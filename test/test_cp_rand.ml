open Test_support

let separated_rank2 () =
  let u1 = Mat.of_cols [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |] |] in
  let u2 = Mat.of_cols [| [| 0.; 1.; 0.; 0. |]; [| 0.; 0.; 1.; 0. |] |] in
  let u3 = Mat.of_cols [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  { Kruskal.weights = [| 5.; 2. |]; factors = [| u1; u2; u3 |] }

let test_exact_recovery () =
  let truth = separated_rank2 () in
  let t = Kruskal.to_tensor truth in
  let k, info = Cp_rand.decompose ~rank:2 t in
  check_true "converged" info.Cp_rand.converged;
  check_float ~eps:1e-4 "true fit" 1. (Kruskal.fit k t);
  check_float ~eps:1e-3 "weights" 5. (Float.abs k.Kruskal.weights.(0))

let test_rank1_recovery () =
  let r = rng () in
  let xs =
    [| Vec.normalize (random_vec r 6);
       Vec.normalize (random_vec r 5);
       Vec.normalize (random_vec r 4) |]
  in
  let t = Tensor.scale 3. (Tensor.outer xs) in
  let k, _ = Cp_rand.decompose ~rank:1 t in
  check_float ~eps:1e-3 "weight" 3. (Float.abs k.Kruskal.weights.(0));
  Array.iteri
    (fun p u ->
      check_true
        (Printf.sprintf "direction %d" p)
        (Float.abs (Vec.dot (Mat.col u 0) xs.(p)) > 0.999))
    k.Kruskal.factors

let test_agrees_with_full_als () =
  (* On a noisy low-rank tensor the sampled solver should land on the same
     dominant component as full ALS. *)
  let r = rng () in
  let truth = separated_rank2 () in
  let noise = Tensor.scale 0.02 (random_tensor r [| 3; 4; 2 |]) in
  let t = Tensor.add (Kruskal.to_tensor truth) noise in
  let k_full, _ = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t) in
  let k_rand, _ = Cp_rand.decompose ~rank:2 t in
  let lead k = Kruskal.component k 0 in
  Array.iteri
    (fun p v ->
      check_true
        (Printf.sprintf "lead component agrees (view %d)" p)
        (Float.abs (Vec.dot v (lead k_full).(p)) > 0.99))
    (lead k_rand)

let test_sampled_fit_reasonable () =
  let truth = separated_rank2 () in
  let t = Kruskal.to_tensor truth in
  let _, info = Cp_rand.decompose ~rank:2 t in
  check_true "sampled fit near 1" (info.Cp_rand.sampled_fit > 0.99)

let test_deterministic () =
  let r = rng () in
  let t = random_tensor r [| 4; 4; 4 |] in
  let a, _ = Cp_rand.decompose ~rank:2 t in
  let b, _ = Cp_rand.decompose ~rank:2 t in
  check_vec ~eps:1e-12 "same seed, same weights" a.Kruskal.weights b.Kruskal.weights

let test_invalid_rank () =
  Alcotest.check_raises "rank 0" (Invalid_argument "Cp_rand.decompose: rank must be >= 1")
    (fun () -> ignore (Cp_rand.decompose ~rank:0 (Tensor.create [| 2; 2 |])))

let test_sample_override () =
  let truth = separated_rank2 () in
  let t = Kruskal.to_tensor truth in
  let options = { Cp_rand.default_options with samples_per_mode = Some 16 } in
  let k, _ = Cp_rand.decompose ~options ~rank:2 t in
  Alcotest.(check int) "rank kept" 2 (Kruskal.rank k)

let () =
  Alcotest.run "cp_rand"
    [ ( "recovery",
        [ Alcotest.test_case "rank-2 exact" `Quick test_exact_recovery;
          Alcotest.test_case "rank-1" `Quick test_rank1_recovery;
          Alcotest.test_case "agrees with ALS" `Quick test_agrees_with_full_als;
          Alcotest.test_case "sampled fit" `Quick test_sampled_fit_reasonable ] );
      ( "interface",
        [ Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "invalid rank" `Quick test_invalid_rank;
          Alcotest.test_case "sample override" `Quick test_sample_override ] ) ]
