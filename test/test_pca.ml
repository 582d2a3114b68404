open Test_support

(* Data stretched along the (1,1,0) direction. *)
let stretched r ~n =
  let x = Mat.create 3 n in
  for j = 0 to n - 1 do
    let t = 5. *. Rng.gaussian r in
    Mat.set x 0 j (t +. (0.1 *. Rng.gaussian r));
    Mat.set x 1 j (t +. (0.1 *. Rng.gaussian r));
    Mat.set x 2 j (0.1 *. Rng.gaussian r)
  done;
  x

let test_principal_direction () =
  let r = rng () in
  let x = stretched r ~n:3000 in
  let pca = Pca.fit ~r:1 x in
  let c = Mat.col (Pca.components pca) 0 in
  (* Dominant direction ≈ (1,1,0)/√2. *)
  check_float ~eps:0.1 "c0 ≈ c1" (Float.abs c.(0)) (Float.abs c.(1));
  check_true "c2 small" (Float.abs c.(2) < 0.1)

let test_orthonormal_components () =
  let r = rng () in
  let x = random_mat r 5 80 in
  let pca = Pca.fit ~r:4 x in
  check_mat ~eps:1e-8 "orthonormal" (Mat.identity 4) (Mat.tgram (Pca.components pca))

let test_variance_sorted () =
  let r = rng () in
  let x = random_mat r 6 100 in
  let v = Pca.explained_variance (Pca.fit ~r:6 x) in
  for i = 1 to 5 do
    check_true "descending" (v.(i) <= v.(i - 1) +. 1e-10)
  done

let test_transform_centers () =
  let r = rng () in
  let x = Mat.map (fun v -> v +. 10.) (random_mat r 4 60) in
  let pca = Pca.fit ~r:2 x in
  let z = Pca.transform pca x in
  Array.iter (fun m -> check_float ~eps:1e-8 "centered scores" 0. m) (Mat.row_means z)

let test_transform_variance_matches () =
  let r = rng () in
  let x = random_mat r 4 500 in
  let pca = Pca.fit ~r:2 x in
  let z = Pca.transform pca x in
  let v = Pca.explained_variance pca in
  for k = 0 to 1 do
    let row = Mat.row z k in
    let var = Vec.dot row row /. 500. in
    check_float ~eps:0.02 "score variance = eigenvalue" v.(k) var
  done

let test_r_clamped () =
  let r = rng () in
  let pca = Pca.fit ~r:10 (random_mat r 3 20) in
  Alcotest.(check (pair int int)) "at most d" (3, 3) (Mat.dims (Pca.components pca))

let test_reconstruction_quality () =
  (* Rank-3 data: 3 components reconstruct almost exactly. *)
  let r = rng () in
  let basis = random_mat r 6 3 in
  let coeffs = random_mat r 3 50 in
  let x = Mat.mul basis coeffs in
  let pca = Pca.fit ~r:3 x in
  let z = Pca.transform pca x in
  (* x̂ = V z + mean. *)
  let vz = Mat.mul (Pca.components pca) z in
  let reconstructed = Mat.sub_col_vec vz (Vec.scale (-1.) (Pca.mean pca)) in
  check_true "low rank recovered"
    (Mat.frobenius (Mat.sub x reconstructed) < 1e-6 *. (1. +. Mat.frobenius x))

(* --- The covariance route, the only one production fits take (DSE and
   SSMVD's per-view reduction, SSMVD's stacked fit with [~center:false]). --- *)

(* Mean and [(1/N) Σ (x − μ)(x − μ)ᵀ] by explicit sums, sharing none of
   Pca's matrix kernels. *)
let explicit_mean x =
  let d, n = Mat.dims x in
  Array.init d (fun i ->
      let acc = ref 0. in
      for k = 0 to n - 1 do
        acc := !acc +. Mat.get x i k
      done;
      !acc /. float_of_int n)

let explicit_second_moment x mean =
  let d, n = Mat.dims x in
  Mat.init d d (fun i j ->
      let acc = ref 0. in
      for k = 0 to n - 1 do
        acc := !acc +. ((Mat.get x i k -. mean.(i)) *. (Mat.get x j k -. mean.(j)))
      done;
      !acc /. float_of_int n)

let shifted r d n = Mat.map (fun v -> v +. 3.) (random_mat r d n)

let test_variances_are_eigenvalues () =
  (* Against the cyclic-Jacobi oracle on an independently summed covariance. *)
  let r = rng () in
  let x = shifted r 5 200 in
  let pca = Pca.fit ~r:5 x in
  let oracle, _ = jacobi_eigen (explicit_second_moment x (explicit_mean x)) in
  check_vec ~eps:1e-9 "variances = covariance spectrum" oracle.Eigen.values
    (Pca.explained_variance pca);
  check_vec ~eps:1e-9 "mean" (explicit_mean x) (Pca.mean pca)

let test_components_solve_eigen_equation () =
  let r = rng () in
  let x = shifted r 6 150 in
  let pca = Pca.fit ~r:3 x in
  let c = explicit_second_moment x (explicit_mean x) in
  let v = Pca.components pca and lambda = Pca.explained_variance pca in
  for k = 0 to 2 do
    let vk = Mat.col v k in
    check_vec ~eps:1e-9 (Printf.sprintf "C v%d = λ%d v%d" k k k) (Vec.scale lambda.(k) vk)
      (Mat.mul_vec c vk)
  done

let test_uncentered () =
  (* [~center:false]: no mean is subtracted, so the components diagonalize
     the raw second moment XXᵀ/N and the scores are plain projections Vᵀx. *)
  let r = rng () in
  let x = shifted r 4 120 in
  let pca = Pca.fit ~center:false ~r:2 x in
  check_vec "zero mean" (Array.make 4 0.) (Pca.mean pca);
  let oracle, _ = jacobi_eigen (explicit_second_moment x (Array.make 4 0.)) in
  check_vec ~eps:1e-9 "variances = raw second-moment spectrum"
    (Array.sub oracle.Eigen.values 0 2) (Pca.explained_variance pca);
  check_mat ~eps:1e-12 "scores = Vᵀx" (Mat.mul_tn (Pca.components pca) x) (Pca.transform pca x)

let test_out_of_sample () =
  (* New data is scored against the training mean: the mean itself scores
     zero, and shifting an instance by s shifts its scores by Vᵀs. *)
  let r = rng () in
  let pca = Pca.fit ~r:3 (shifted r 5 90) in
  let at_mean = Pca.transform pca (Mat.of_cols [| Pca.mean pca |]) in
  check_mat ~eps:1e-12 "mean scores zero" (Mat.create 3 1) at_mean;
  let y = random_mat r 5 7 and s = random_vec r 5 in
  let moved = Mat.sub_col_vec y (Vec.scale (-1.) s) in
  let expected = Pca.transform pca y in
  let vs = Mat.tmul_vec (Pca.components pca) s in
  let expected = Mat.init 3 7 (fun i j -> Mat.get expected i j +. vs.(i)) in
  check_mat ~eps:1e-10 "shift equivariance" expected (Pca.transform pca moved)

let test_deterministic () =
  let r = rng () in
  let x = shifted r 6 80 in
  let a = Pca.fit ~r:4 x and b = Pca.fit ~r:4 x in
  check_true "components bitwise" (bits_equal (Pca.components a) (Pca.components b));
  check_true "variances bitwise"
    (Array.for_all2 same_bits (Pca.explained_variance a) (Pca.explained_variance b))

let test_rank_deficient_tail () =
  (* Rank-2 data in 5 dimensions: three of the five variances vanish. *)
  let r = rng () in
  let x = Mat.mul (random_mat r 5 2) (random_mat r 2 80) in
  let v = Pca.explained_variance (Pca.fit ~r:5 x) in
  check_true "two directions carry variance" (v.(1) > 1e-3 *. v.(0));
  for k = 2 to 4 do
    check_true (Printf.sprintf "variance %d vanishes" k) (Float.abs v.(k) <= 1e-10 *. v.(0))
  done

let test_no_instances () =
  Alcotest.check_raises "no instances" (Invalid_argument "Pca.fit: no instances") (fun () ->
      ignore (Pca.fit ~r:2 (Mat.create 3 0)))

let () =
  Alcotest.run "pca"
    [ ( "fitting",
        [ Alcotest.test_case "principal direction" `Quick test_principal_direction;
          Alcotest.test_case "orthonormal" `Quick test_orthonormal_components;
          Alcotest.test_case "variance sorted" `Quick test_variance_sorted;
          Alcotest.test_case "r clamped" `Quick test_r_clamped ] );
      ( "transform",
        [ Alcotest.test_case "centers" `Quick test_transform_centers;
          Alcotest.test_case "variance" `Quick test_transform_variance_matches;
          Alcotest.test_case "reconstruction" `Quick test_reconstruction_quality ] );
      ( "covariance route",
        [ Alcotest.test_case "variances = covariance eigenvalues" `Quick
            test_variances_are_eigenvalues;
          Alcotest.test_case "eigen equation" `Quick test_components_solve_eigen_equation;
          Alcotest.test_case "uncentered" `Quick test_uncentered;
          Alcotest.test_case "out of sample" `Quick test_out_of_sample;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "rank-deficient tail" `Quick test_rank_deficient_tail;
          Alcotest.test_case "no instances" `Quick test_no_instances ] ) ]
