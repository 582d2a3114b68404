open Test_support

let test_diagonal () =
  let a = Mat.diag_of_vec [| 3.; 5.; 1. |] in
  let { Svd.sigma; _ } = Svd.decompose a in
  check_vec ~eps:1e-10 "sorted singular values" [| 5.; 3.; 1. |] sigma

let test_reconstruction_tall () =
  let r = rng () in
  for _ = 1 to 8 do
    let a = random_mat r 7 4 in
    check_mat ~eps:1e-7 "UΣVᵀ = A" a (svd_reconstruct (Svd.decompose a))
  done

let test_reconstruction_wide () =
  let r = rng () in
  let a = random_mat r 3 8 in
  check_mat ~eps:1e-7 "wide reconstruction" a (svd_reconstruct (Svd.decompose a))

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
  Alcotest.(check int) "numerical rank 1" 1 (svd_rank svd);
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
  Alcotest.(check int) "rank 0" 0 (svd_rank svd);
  check_vec "zero sigma" [| 0.; 0.; 0. |] svd.Svd.sigma

let test_nuclear_norm () =
  let a = Mat.diag_of_vec [| 2.; 3. |] in
  check_float ~eps:1e-10 "nuclear" 5. (svd_nuclear_norm (Svd.decompose a))

(* --- Tall-matrix QR + eig route (forced with ~method_ so these hold
   whatever shape `Auto would route where). --- *)

let test_tall_reconstruction () =
  let r = rng () in
  for _ = 1 to 5 do
    let a = random_mat r 40 8 in
    check_mat ~eps:1e-7 "UΣVᵀ = A (qr_eig)"
      a
      (svd_reconstruct (Svd.decompose ~method_:`Qr_eig a))
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
    (svd_reconstruct (Svd.decompose ~method_:`Qr_eig a))

let test_tall_rank_deficient () =
  (* Rank-2 tall matrix: the route must report rank 2 and keep σ₃.. at ~0
     without manufacturing spurious energy. *)
  let r = rng () in
  let b = random_mat r 30 2 in
  let c = random_mat r 2 5 in
  let a = Mat.mul b c in
  let svd = Svd.decompose ~method_:`Qr_eig a in
  Alcotest.(check int) "numerical rank 2" 2 (svd_rank svd);
  check_mat ~eps:1e-7 "rank-2 reconstruction" a (svd_reconstruct svd)

let test_tall_zero () =
  let svd = Svd.decompose ~method_:`Qr_eig (Mat.create 24 3) in
  Alcotest.(check int) "rank 0" 0 (svd_rank svd);
  check_vec "zero sigma" [| 0.; 0.; 0. |] svd.Svd.sigma

(* --- Route selection and the convergence record: `Auto picks a route from
   the aspect ratio alone, and both routes run in production (Cca and Kcca). --- *)

let svd_bits_equal (a : Svd.t) (b : Svd.t) =
  bits_equal a.u b.u && bits_equal a.v b.v && Array.for_all2 same_bits a.sigma b.sigma

(* [`Auto] on each [rows × cols] shape must be bitwise the forced [route] —
   and differ from the other route, so the comparison can tell them apart. *)
let check_auto_route (route : [ `Jacobi | `Qr_eig ]) shapes =
  let other = match route with `Jacobi -> `Qr_eig | `Qr_eig -> `Jacobi in
  let route = (route :> Svd.method_) in
  let r = rng () in
  List.iter
    (fun (rows, cols) ->
      let a = random_mat r rows cols in
      let auto = Svd.decompose a in
      let label = Printf.sprintf "%d×%d" rows cols in
      check_true (label ^ ": auto = forced route")
        (svd_bits_equal auto (Svd.decompose ~method_:route a));
      check_true (label ^ ": routes distinguishable")
        (not (svd_bits_equal auto (Svd.decompose ~method_:other a))))
    shapes

let test_auto_tall () =
  (* max_dim ≥ 3 · min_dim, at the boundary and past it, either orientation. *)
  check_auto_route `Qr_eig [ (18, 6); (40, 5); (6, 18); (4, 30) ]

let test_auto_near_square () = check_auto_route `Jacobi [ (17, 6); (6, 6); (6, 17); (9, 4) ]

let test_info_converged () =
  let r = rng () in
  let a = random_mat r 12 5 in
  let _, jacobi = Svd.decompose_info ~method_:`Jacobi a in
  check_true "jacobi converged" jacobi.Svd.converged;
  check_true "jacobi swept" (jacobi.Svd.sweeps >= 1);
  check_float "jacobi residual unmeasured" 0. jacobi.Svd.residual;
  let { Svd.sigma = s; _ }, qr_eig = Svd.decompose_info ~method_:`Qr_eig a in
  check_true "qr_eig converged" qr_eig.Svd.converged;
  (* The QL deflation threshold is 1e-12 relative per entry, so what remains
     of the tridiagonal's off-diagonal is tiny next to ‖AᵀA‖ = σ₁². *)
  check_true "qr_eig residual small" (qr_eig.Svd.residual <= 1e-10 *. (s.(0) *. s.(0)))

let test_sweep_cap_reported () =
  (* One Jacobi sweep cannot orthogonalize 8 random columns: the record must
     say so and carry the remaining off-orthogonality. *)
  let r = rng () in
  let a = random_mat r 10 8 in
  let _, info = Svd.decompose_info ~method_:`Jacobi ~max_sweeps:1 a in
  check_true "not converged" (not info.Svd.converged);
  Alcotest.(check int) "one sweep" 1 info.Svd.sweeps;
  check_true "residual measured" (info.Svd.residual > 1e-12 && info.Svd.residual <= 1.)

let test_deterministic () =
  let r = rng () in
  let a = random_mat r 24 6 in
  List.iter
    (fun route ->
      check_true "bitwise repeatable"
        (svd_bits_equal (Svd.decompose ~method_:route a) (Svd.decompose ~method_:route a)))
    [ `Jacobi; `Qr_eig ]

let test_exact_low_rank () =
  (* Rank 3, 20 × 8: both routes leave σ₄.. at roundoff and rebuild A. *)
  let r = rng () in
  let a = Mat.mul (random_mat r 20 3) (random_mat r 3 8) in
  List.iter
    (fun (name, route) ->
      let svd = Svd.decompose ~method_:route a in
      let s = svd.Svd.sigma in
      check_true (name ^ ": three singular values") (s.(2) > 1e-3 *. s.(0));
      for k = 3 to 7 do
        check_true (Printf.sprintf "%s: σ%d at roundoff" name (k + 1)) (s.(k) <= 1e-12 *. s.(0))
      done;
      check_mat ~eps:1e-9 (name ^ ": reconstruction") a (svd_reconstruct svd))
    [ ("jacobi", `Jacobi); ("qr_eig", `Qr_eig) ]

let test_scale_and_transpose () =
  let r = rng () in
  let a = random_mat r 7 5 in
  let s = (Svd.decompose a).Svd.sigma in
  check_vec ~eps:1e-9 "σ(−2.5 A) = 2.5 σ(A)" (Vec.scale 2.5 s)
    (Svd.decompose (Mat.scale (-2.5) a)).Svd.sigma;
  let t = Svd.decompose (Mat.transpose a) in
  check_vec ~eps:1e-9 "σ(Aᵀ) = σ(A)" s t.Svd.sigma;
  Alcotest.(check (pair int int)) "Aᵀ: u is 5 × 5" (5, 5) (Mat.dims t.Svd.u);
  Alcotest.(check (pair int int)) "Aᵀ: v is 7 × 5" (7, 5) (Mat.dims t.Svd.v)

let prop_singular_pairs =
  qtest ~count:50 "A vⱼ = σⱼ uⱼ" gen_mat (fun a ->
      let { Svd.u; sigma; v } = Svd.decompose a in
      let s1 = if Array.length sigma = 0 then 0. else sigma.(0) in
      let ok = ref true in
      Array.iteri
        (fun j sj ->
          let lhs = Mat.mul_vec a (Mat.col v j) and rhs = Vec.scale sj (Mat.col u j) in
          if Vec.norm (Vec.sub lhs rhs) > 1e-8 *. (1. +. s1) then ok := false)
        sigma;
      !ok)

let prop_routes_agree =
  qtest ~count:50 "jacobi σ = qr_eig σ" gen_mat (fun a ->
      let sj = (Svd.decompose ~method_:`Jacobi a).Svd.sigma in
      let sq = (Svd.decompose ~method_:`Qr_eig a).Svd.sigma in
      let s1 = if Array.length sj = 0 then 0. else sj.(0) in
      Array.for_all2 (fun x y -> Float.abs (x -. y) <= 1e-8 *. (1. +. s1)) sj sq)

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
      ( "routes",
        [ Alcotest.test_case "auto: tall takes qr+eig" `Quick test_auto_tall;
          Alcotest.test_case "auto: near-square takes jacobi" `Quick test_auto_near_square;
          Alcotest.test_case "info converged" `Quick test_info_converged;
          Alcotest.test_case "sweep cap reported" `Quick test_sweep_cap_reported;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "exact on low rank" `Quick test_exact_low_rank;
          Alcotest.test_case "scale and transpose" `Quick test_scale_and_transpose ] );
      ( "properties",
        [ prop_spectral_bound;
          prop_frobenius_is_sigma_norm;
          prop_singular_pairs;
          prop_routes_agree ] ) ]
