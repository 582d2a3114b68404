open Test_support

let test_diagonal () =
  let a = Mat.diag_of_vec [| 3.; 5.; 1. |] in
  let { Svd.sigma; _ } = Svd.decompose a in
  check_vec ~eps:1e-10 "sorted singular values" [| 5.; 3.; 1. |] sigma

let test_reconstruction_tall () =
  let r = rng () in
  for _ = 1 to 8 do
    let a = random_mat r 7 4 in
    check_mat ~eps:1e-7 "UΣVᵀ = A" a (Svd.reconstruct (Svd.decompose a))
  done

let test_reconstruction_wide () =
  let r = rng () in
  let a = random_mat r 3 8 in
  check_mat ~eps:1e-7 "wide reconstruction" a (Svd.reconstruct (Svd.decompose a))

let test_orthonormal_factors () =
  let r = rng () in
  let a = random_mat r 9 5 in
  let { Svd.u; v; _ } = Svd.decompose a in
  check_mat ~eps:1e-8 "UᵀU = I" (Mat.identity 5) (Mat.tgram u);
  check_mat ~eps:1e-8 "VᵀV = I" (Mat.identity 5) (Mat.tgram v)

let test_singular_values_vs_eigen () =
  (* σᵢ² are the eigenvalues of AᵀA. *)
  let r = rng () in
  let a = random_mat r 8 4 in
  let { Svd.sigma; _ } = Svd.decompose a in
  let eig = (Eigen.decompose (Mat.tgram a)).Eigen.values in
  Array.iteri
    (fun i s -> check_float ~eps:1e-6 (Printf.sprintf "σ²=λ (%d)" i) eig.(i) (s *. s))
    sigma

let test_rank_deficient () =
  (* Rank-1 matrix: exactly one non-negligible singular value. *)
  let x = [| 1.; 2.; 3. |] and y = [| 4.; 5. |] in
  let a = Mat.of_arrays (Vec.outer x y) in
  let svd = Svd.decompose a in
  Alcotest.(check int) "numerical rank 1" 1 (Svd.rank svd);
  check_float ~eps:1e-9 "σ₁ = |x||y|" (Vec.norm x *. Vec.norm y) svd.Svd.sigma.(0)

let test_truncated () =
  let r = rng () in
  let a = random_mat r 6 5 in
  let svd = Svd.decompose a in
  let u, s, v = Svd.truncated svd 2 in
  Alcotest.(check (pair int int)) "u shape" (6, 2) (Mat.dims u);
  Alcotest.(check int) "sigma length" 2 (Array.length s);
  Alcotest.(check (pair int int)) "v shape" (5, 2) (Mat.dims v)

let test_truncation_error_optimal () =
  (* Eckart–Young: truncating to rank k leaves error² = Σ_{i>k} σᵢ². *)
  let r = rng () in
  let a = random_mat r 6 6 in
  let svd = Svd.decompose a in
  let u, s, v = Svd.truncated svd 3 in
  let scaled = Mat.init 6 3 (fun i j -> Mat.get u i j *. s.(j)) in
  let approx = Mat.mul_nt scaled v in
  let err2 = Mat.frobenius (Mat.sub a approx) ** 2. in
  let tail2 = ref 0. in
  for i = 3 to 5 do
    tail2 := !tail2 +. (svd.Svd.sigma.(i) ** 2.)
  done;
  check_float ~eps:1e-6 "tail energy" !tail2 err2

let test_zero_matrix () =
  let svd = Svd.decompose (Mat.create 4 3) in
  Alcotest.(check int) "rank 0" 0 (Svd.rank svd);
  check_vec "zero sigma" [| 0.; 0.; 0. |] svd.Svd.sigma

let test_nuclear_norm () =
  let a = Mat.diag_of_vec [| 2.; 3. |] in
  check_float ~eps:1e-10 "nuclear" 5. (Svd.nuclear_norm (Svd.decompose a))

(* --- Tall-matrix QR + eig route (forced with ~method_ so these hold
   whatever shape `Auto would route where). --- *)

let test_tall_reconstruction () =
  let r = rng () in
  for _ = 1 to 5 do
    let a = random_mat r 40 8 in
    check_mat ~eps:1e-7 "UΣVᵀ = A (qr_eig)"
      a
      (Svd.reconstruct (Svd.decompose ~method_:`Qr_eig a))
  done

let test_tall_orthonormal () =
  let r = rng () in
  let a = random_mat r 50 6 in
  let { Svd.u; v; _ } = Svd.decompose ~method_:`Qr_eig a in
  check_mat ~eps:1e-8 "UᵀU = I (qr_eig)" (Mat.identity 6) (Mat.tgram u);
  check_mat ~eps:1e-8 "VᵀV = I (qr_eig)" (Mat.identity 6) (Mat.tgram v)

let test_tall_matches_jacobi () =
  let r = rng () in
  let a = random_mat r 36 7 in
  let sj = (Svd.decompose ~method_:`Jacobi a).Svd.sigma in
  let sq = (Svd.decompose ~method_:`Qr_eig a).Svd.sigma in
  check_vec ~eps:1e-8 "singular values agree across routes" sj sq

let test_wide_qr_eig () =
  (* Wide inputs go through the transpose normalization first; the forced
     route must land on the same spectrum. *)
  let r = rng () in
  let a = random_mat r 5 30 in
  let sj = (Svd.decompose ~method_:`Jacobi a).Svd.sigma in
  let sq = (Svd.decompose ~method_:`Qr_eig a).Svd.sigma in
  check_vec ~eps:1e-8 "wide spectrum agrees" sj sq;
  check_mat ~eps:1e-7 "wide reconstruction (qr_eig)" a
    (Svd.reconstruct (Svd.decompose ~method_:`Qr_eig a))

let test_tall_rank_deficient () =
  (* Rank-2 tall matrix: the route must report rank 2 and keep σ₃.. at ~0
     without manufacturing spurious energy. *)
  let r = rng () in
  let b = random_mat r 30 2 in
  let c = random_mat r 2 5 in
  let a = Mat.mul b c in
  let svd = Svd.decompose ~method_:`Qr_eig a in
  Alcotest.(check int) "numerical rank 2" 2 (Svd.rank svd);
  check_mat ~eps:1e-7 "rank-2 reconstruction" a (Svd.reconstruct svd)

let test_tall_zero () =
  let svd = Svd.decompose ~method_:`Qr_eig (Mat.create 24 3) in
  Alcotest.(check int) "rank 0" 0 (Svd.rank svd);
  check_vec "zero sigma" [| 0.; 0.; 0. |] svd.Svd.sigma

(* --- Randomized range-finder route. --- *)

let test_randomized_exact_on_low_rank () =
  let r = rng () in
  let b = random_mat r 40 4 in
  let c = random_mat r 4 9 in
  let a = Mat.mul b c in
  let rsvd, info = Svd.randomized ~rank:4 a in
  check_true "converged" info.Svd.converged;
  check_mat ~eps:1e-6 "UΣVᵀ = A on exact low rank" a (Svd.reconstruct rsvd);
  let exact = Svd.decompose ~method_:`Qr_eig a in
  for i = 0 to 3 do
    check_float ~eps:1e-6
      (Printf.sprintf "σ%d matches exact route" i)
      exact.Svd.sigma.(i) rsvd.Svd.sigma.(i)
  done

let test_randomized_subspace_angle () =
  (* Principal angles between the randomized and exact top-k left subspaces:
     every singular value of [U_exᵀ U_rand] must be cos(0) = 1. *)
  let r = rng () in
  let b = random_mat r 30 3 in
  let c = random_mat r 3 7 in
  let a = Mat.mul b c in
  let rsvd, _ = Svd.randomized ~rank:3 a in
  let exact = Svd.decompose ~method_:`Qr_eig a in
  let u_ex, _, _ = Svd.truncated exact 3 in
  let overlap = Svd.decompose (Mat.mul_tn u_ex rsvd.Svd.u) in
  Array.iter (fun s -> check_float ~eps:1e-6 "cos(principal angle) = 1" 1. s) overlap.Svd.sigma

let test_randomized_orthonormal () =
  let r = rng () in
  let a = random_mat r 25 10 in
  let rsvd, _ = Svd.randomized ~rank:5 a in
  Alcotest.(check (pair int int)) "u shape" (25, 5) (Mat.dims rsvd.Svd.u);
  Alcotest.(check int) "sigma length" 5 (Array.length rsvd.Svd.sigma);
  check_mat ~eps:1e-8 "UᵀU = I" (Mat.identity 5) (Mat.tgram rsvd.Svd.u);
  check_mat ~eps:1e-8 "VᵀV = I" (Mat.identity 5) (Mat.tgram rsvd.Svd.v)

let test_randomized_sigma_bounds () =
  (* σ̂ᵢ never exceeds the true σᵢ (the sketch is an orthogonal projection),
     and with rank + oversample covering the whole space it matches to
     roundoff. *)
  let r = rng () in
  let a = random_mat r 12 8 in
  let exact = Svd.decompose ~method_:`Qr_eig a in
  let rsvd, _ = Svd.randomized ~rank:4 a in
  Array.iteri
    (fun i s ->
      check_true "σ̂ ≤ σ" (s <= exact.Svd.sigma.(i) +. 1e-8);
      check_float ~eps:1e-7 "σ̂ = σ under a full sketch" exact.Svd.sigma.(i) s)
    rsvd.Svd.sigma

let test_randomized_deterministic () =
  let r = rng () in
  let a = random_mat r 30 6 in
  let s1, _ = Svd.randomized ~rank:3 a in
  let s2, _ = Svd.randomized ~rank:3 a in
  check_mat ~eps:0. "bitwise identical U" s1.Svd.u s2.Svd.u;
  check_vec ~eps:0. "bitwise identical σ" s1.Svd.sigma s2.Svd.sigma;
  (* A different seed draws a different sketch, but here the sketch still
     spans the whole 6-dimensional row space, so the spectrum agrees. *)
  let s3, _ = Svd.randomized ~seed:7 ~rank:3 a in
  check_vec ~eps:1e-6 "seed changes sketch, not spectrum" s1.Svd.sigma s3.Svd.sigma

let prop_randomized_matches_qr_eig =
  qtest ~count:30 "randomized = qr_eig on known-low-rank matrices"
    QCheck2.Gen.(triple (int_range 6 18) (int_range 1 3) (int_range 4 8))
    (fun (m, k, n) ->
      let r = Rng.create ((m * 1000) + (k * 100) + n) in
      let a = Mat.mul (random_mat r m k) (random_mat r k n) in
      let rsvd, _ = Svd.randomized ~rank:k a in
      let exact = Svd.decompose ~method_:`Qr_eig a in
      let ok = ref true in
      for i = 0 to k - 1 do
        let s = exact.Svd.sigma.(i) in
        if Float.abs (rsvd.Svd.sigma.(i) -. s) > 1e-6 *. (1. +. s) then ok := false
      done;
      !ok && Mat.equal ~eps:(1e-6 *. (1. +. Mat.frobenius a)) a (Svd.reconstruct rsvd))

let prop_spectral_bound =
  qtest ~count:50 "‖Ax‖ <= σ₁‖x‖" gen_mat (fun a ->
      let _, n = Mat.dims a in
      let x = Array.init n (fun i -> float_of_int (i + 1)) in
      let svd = Svd.decompose a in
      let s1 = if Array.length svd.Svd.sigma = 0 then 0. else svd.Svd.sigma.(0) in
      Vec.norm (Mat.mul_vec a x) <= (s1 *. Vec.norm x) +. 1e-6)

let prop_frobenius_is_sigma_norm =
  qtest ~count:50 "‖A‖F² = Σσ²" gen_mat (fun a ->
      let svd = Svd.decompose a in
      let s2 = Array.fold_left (fun acc s -> acc +. (s *. s)) 0. svd.Svd.sigma in
      Float.abs (s2 -. (Mat.frobenius a ** 2.)) < 1e-5 *. (1. +. s2))

let () =
  Alcotest.run "svd"
    [ ( "known",
        [ Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "rank deficient" `Quick test_rank_deficient;
          Alcotest.test_case "zero" `Quick test_zero_matrix;
          Alcotest.test_case "nuclear norm" `Quick test_nuclear_norm ] );
      ( "invariants",
        [ Alcotest.test_case "reconstruct tall" `Quick test_reconstruction_tall;
          Alcotest.test_case "reconstruct wide" `Quick test_reconstruction_wide;
          Alcotest.test_case "orthonormal" `Quick test_orthonormal_factors;
          Alcotest.test_case "sigma vs eigen" `Quick test_singular_values_vs_eigen;
          Alcotest.test_case "truncated shapes" `Quick test_truncated;
          Alcotest.test_case "Eckart-Young" `Quick test_truncation_error_optimal ] );
      ( "tall qr+eig",
        [ Alcotest.test_case "reconstruction" `Quick test_tall_reconstruction;
          Alcotest.test_case "orthonormal" `Quick test_tall_orthonormal;
          Alcotest.test_case "matches jacobi" `Quick test_tall_matches_jacobi;
          Alcotest.test_case "wide via transpose" `Quick test_wide_qr_eig;
          Alcotest.test_case "rank deficient" `Quick test_tall_rank_deficient;
          Alcotest.test_case "zero" `Quick test_tall_zero ] );
      ( "randomized",
        [ Alcotest.test_case "exact on low rank" `Quick test_randomized_exact_on_low_rank;
          Alcotest.test_case "subspace angle" `Quick test_randomized_subspace_angle;
          Alcotest.test_case "orthonormal" `Quick test_randomized_orthonormal;
          Alcotest.test_case "sigma bounds" `Quick test_randomized_sigma_bounds;
          Alcotest.test_case "deterministic" `Quick test_randomized_deterministic ] );
      ( "properties",
        [ prop_spectral_bound; prop_frobenius_is_sigma_norm; prop_randomized_matches_qr_eig ]
      ) ]
