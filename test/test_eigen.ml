open Test_support

let test_diagonal () =
  let a = Mat.diag_of_vec [| 3.; 1.; 2. |] in
  let { Eigen.values; _ } = Eigen.decompose a in
  check_vec ~eps:1e-12 "sorted eigenvalues" [| 3.; 2.; 1. |] values

let test_known_2x2 () =
  (* [[2,1],[1,2]] has eigenvalues 3 and 1. *)
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 1.; 2. |] |] in
  let { Eigen.values; vectors } = Eigen.decompose a in
  check_vec ~eps:1e-10 "values" [| 3.; 1. |] values;
  (* Eigenvector for 3 is (1,1)/√2 up to sign. *)
  let v0 = Mat.col vectors 0 in
  check_float ~eps:1e-10 "direction" 1. (Float.abs (v0.(0) /. v0.(1)))

let test_reconstruction () =
  let r = rng () in
  for _ = 1 to 10 do
    let a = random_spd r 8 in
    let eig = Eigen.decompose a in
    check_mat ~eps:1e-7 "V Λ Vᵀ = A" a (Eigen.reconstruct eig)
  done

let test_orthonormal_vectors () =
  let r = rng () in
  let a = random_spd r 10 in
  let { Eigen.vectors; _ } = Eigen.decompose a in
  check_mat ~eps:1e-8 "VᵀV = I" (Mat.identity 10) (Mat.tgram vectors)

let test_eigen_equation () =
  let r = rng () in
  let a = random_spd r 7 in
  let { Eigen.values; vectors } = Eigen.decompose a in
  for k = 0 to 6 do
    let v = Mat.col vectors k in
    let av = Mat.mul_vec a v in
    check_true
      (Printf.sprintf "A v = λ v (k=%d)" k)
      (Vec.norm (Vec.sub av (Vec.scale values.(k) v)) < 1e-7 *. (1. +. Float.abs values.(k)))
  done

let test_trace_is_sum () =
  let r = rng () in
  let a = random_spd r 9 in
  let { Eigen.values; _ } = Eigen.decompose a in
  check_float ~eps:1e-7 "trace = Σλ" (Mat.trace a) (Vec.sum values)

let test_indefinite () =
  (* Symmetric but indefinite: eigenvalues ±1. *)
  let a = Mat.of_arrays [| [| 0.; 1. |]; [| 1.; 0. |] |] in
  let { Eigen.values; _ } = Eigen.decompose a in
  check_vec ~eps:1e-10 "±1" [| 1.; -1. |] values

let test_top_k () =
  let r = rng () in
  let a = random_spd r 6 in
  let eig = Eigen.decompose a in
  let top = Eigen.top_k eig 2 in
  Alcotest.(check (pair int int)) "shape" (6, 2) (Mat.dims top);
  check_vec ~eps:1e-12 "first column" (Mat.col eig.Eigen.vectors 0) (Mat.col top 0)

let test_asymmetric_input_symmetrized () =
  (* The contract (see eigen.mli) is that BOTH triangles are read and the
     input is decomposed as its symmetric part (a + aᵀ)/2 — not as the
     upper triangle mirrored.  [[2,1],[0,2]] symmetrizes to [[2,.5],[.5,2]]
     (eigenvalues 2.5, 1.5); an upper-triangle-only read would give 3, 1. *)
  let a = Mat.of_arrays [| [| 2.; 1. |]; [| 0.; 2. |] |] in
  let { Eigen.values; _ } = Eigen.decompose a in
  check_vec ~eps:1e-10 "symmetric-part eigenvalues" [| 2.5; 1.5 |] values;
  let r = rng () in
  let b = random_mat r 6 6 in
  let sym = Mat.init 6 6 (fun i j -> 0.5 *. (Mat.get b i j +. Mat.get b j i)) in
  check_vec ~eps:1e-9 "random: decompose a = decompose sym(a)"
    (Eigen.decompose sym).Eigen.values (Eigen.decompose b).Eigen.values

let test_not_square () =
  Alcotest.check_raises "not square" (Invalid_argument "Eigen.decompose: not square")
    (fun () -> ignore (Eigen.decompose (Mat.create 2 3)))

let test_1x1 () =
  let { Eigen.values; vectors } = Eigen.decompose (Mat.of_arrays [| [| 5. |] |]) in
  check_vec "value" [| 5. |] values;
  check_float "vector" 1. (Float.abs (Mat.get vectors 0 0))

(* --- Reference agreement: the two-stage tridiagonal solver against the
   cyclic-Jacobi oracle in Test_support.  The two share no arithmetic, so
   agreement on eigenvalues plus the solver's own orthogonality and
   eigen-equation residuals is strong evidence it is right. --- *)

let gen_symmetric =
  QCheck2.Gen.(
    gen_square_mat >|= fun a ->
    let n, _ = Mat.dims a in
    Mat.init n n (fun i j -> 0.5 *. (Mat.get a i j +. Mat.get a j i)))

(* Q diag(λ) Qᵀ with eigenvalues drawn from a 3-value menu plus a ±1e-11
   jitter: duplicates are likely, so the spectrum carries the near-degenerate
   clusters that stress shift/deflation logic. *)
let gen_near_degenerate =
  QCheck2.Gen.(
    int_range 2 8 >>= fun n ->
    array_size (return (n * n)) (float_range (-10.) 10.) >>= fun qdata ->
    array_size (return n) (oneofl [ 1.; 2.; 7. ]) >>= fun base ->
    array_size (return n) (oneofl [ 0.; 1e-11; -1e-11 ]) >|= fun jitter ->
    let q = Qr.orthonormalize (Mat.unsafe_of_flat ~rows:n ~cols:n qdata) in
    let lam = Array.mapi (fun i b -> b +. jitter.(i)) base in
    let scaled = Mat.init n n (fun i j -> Mat.get q i j *. lam.(j)) in
    Mat.mul_nt scaled q)

let eigenvalues_agree a =
  let va = (Eigen.decompose a).Eigen.values in
  let vb = (fst (jacobi_eigen a)).Eigen.values in
  let scale = Array.fold_left (fun acc l -> Float.max acc (Float.abs l)) 1. vb in
  Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-8 *. scale) va vb

let prop_methods_agree_spd =
  qtest ~count:80 "tridiagonal = jacobi eigenvalues (SPD)" gen_spd eigenvalues_agree

let prop_methods_agree_symmetric =
  qtest ~count:80 "tridiagonal = jacobi eigenvalues (indefinite symmetric)" gen_symmetric
    eigenvalues_agree

let prop_methods_agree_degenerate =
  qtest ~count:80 "tridiagonal = jacobi eigenvalues (near-degenerate)" gen_near_degenerate
    eigenvalues_agree

let prop_tridiagonal_orthogonal =
  qtest ~count:80 "tridiagonal ‖QᵀQ−I‖ small" gen_symmetric (fun a ->
      let { Eigen.vectors; _ } = Eigen.decompose a in
      let n, _ = Mat.dims a in
      Mat.frobenius (Mat.sub (Mat.tgram vectors) (Mat.identity n)) <= 1e-10 *. float_of_int n)

let prop_tridiagonal_eigen_equation =
  qtest ~count:80 "tridiagonal ‖AQ−QΛ‖ small" gen_symmetric (fun a ->
      let { Eigen.values; vectors } = Eigen.decompose a in
      let n, _ = Mat.dims a in
      let aq = Mat.mul a vectors in
      let ql = Mat.init n n (fun i j -> Mat.get vectors i j *. values.(j)) in
      Mat.frobenius (Mat.sub aq ql) <= 1e-8 *. (1. +. Mat.frobenius a))

(* The iteration cap must surface structurally — a regression here would
   let a non-converged spectrum whiten a view silently.  [Sweep_cap] forces
   a 0-iteration cap. *)
let test_sweep_cap_surfaced () =
  let r = rng () in
  let a = random_spd r 6 in
  Robust.Inject.with_stage Robust.Inject.Sweep_cap (fun () ->
      let _, info = Eigen.decompose_info a in
      check_true "converged=false under cap" (not info.Eigen.converged);
      Alcotest.(check int) "zero iterations" 0 info.Eigen.sweeps;
      check_true "residual positive" (info.Eigen.residual > 0.))

(* Bitwise pool-size determinism: the banded tred2/QL loops own disjoint
   rows/columns and accumulate in a fixed order, so results must be
   identical — not merely close — for any TCCA_DOMAINS.  Cutoff 0 forces
   even these small matrices through the pool. *)
let test_pool_determinism () =
  let r = rng () in
  let a = random_spd r 24 in
  let saved_cutoff = Parallel.sequential_cutoff () in
  let saved_domains = Parallel.num_domains () in
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_sequential_cutoff saved_cutoff;
      Parallel.set_num_domains saved_domains)
    (fun () ->
      Parallel.set_sequential_cutoff 0;
      Parallel.set_num_domains 1;
      let e1 = Eigen.decompose a in
      Parallel.set_num_domains 4;
      let e4 = Eigen.decompose a in
      let bits x = Int64.bits_of_float x in
      check_true "values bitwise equal"
        (Array.for_all2 (fun x y -> bits x = bits y) e1.Eigen.values e4.Eigen.values);
      check_true "vectors bitwise equal"
        (Array.for_all2
           (fun x y -> bits x = bits y)
           e1.Eigen.vectors.Mat.data e4.Eigen.vectors.Mat.data))

let prop_psd_eigenvalues_nonneg =
  qtest ~count:60 "SPD eigenvalues > 0" gen_spd (fun a ->
      Array.for_all (fun l -> l > 0.) (Eigen.decompose a).Eigen.values)

let prop_values_sorted =
  qtest ~count:60 "eigenvalues descending" gen_spd (fun a ->
      let v = (Eigen.decompose a).Eigen.values in
      let ok = ref true in
      for i = 1 to Array.length v - 1 do
        if v.(i) > v.(i - 1) +. 1e-12 then ok := false
      done;
      !ok)

let prop_frobenius_invariant =
  qtest ~count:60 "‖A‖F² = Σλ² for symmetric A" gen_spd (fun a ->
      let v = (Eigen.decompose a).Eigen.values in
      let sum2 = Array.fold_left (fun acc l -> acc +. (l *. l)) 0. v in
      Float.abs (sum2 -. (Mat.frobenius a ** 2.)) < 1e-5 *. (1. +. sum2))

let () =
  Alcotest.run "eigen"
    [ ( "known",
        [ Alcotest.test_case "diagonal" `Quick test_diagonal;
          Alcotest.test_case "2x2" `Quick test_known_2x2;
          Alcotest.test_case "indefinite" `Quick test_indefinite;
          Alcotest.test_case "1x1" `Quick test_1x1 ] );
      ( "invariants",
        [ Alcotest.test_case "reconstruction" `Quick test_reconstruction;
          Alcotest.test_case "orthonormal" `Quick test_orthonormal_vectors;
          Alcotest.test_case "eigen equation" `Quick test_eigen_equation;
          Alcotest.test_case "trace" `Quick test_trace_is_sum;
          Alcotest.test_case "top_k" `Quick test_top_k ] );
      ( "contract",
        [ Alcotest.test_case "asymmetric input symmetrized" `Quick
            test_asymmetric_input_symmetrized ] );
      ("errors", [ Alcotest.test_case "not square" `Quick test_not_square ]);
      ( "properties",
        [ prop_psd_eigenvalues_nonneg; prop_values_sorted; prop_frobenius_invariant ] );
      ( "methods",
        [ Alcotest.test_case "sweep cap surfaced" `Quick test_sweep_cap_surfaced;
          Alcotest.test_case "pool-size determinism" `Quick test_pool_determinism;
          prop_methods_agree_spd;
          prop_methods_agree_symmetric;
          prop_methods_agree_degenerate;
          prop_tridiagonal_orthogonal;
          prop_tridiagonal_eigen_equation ] ) ]
