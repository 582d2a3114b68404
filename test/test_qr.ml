open Test_support

let test_reconstruction () =
  let r = rng () in
  for _ = 1 to 10 do
    let a = random_mat r 8 5 in
    let f = Qr.decompose a in
    check_mat ~eps:1e-8 "Q·R = A" a (Mat.mul (Qr.q_thin f) (Qr.r f))
  done

let test_q_orthonormal () =
  let r = rng () in
  let a = random_mat r 9 4 in
  let q = Qr.q_thin (Qr.decompose a) in
  check_mat ~eps:1e-8 "QᵀQ = I" (Mat.identity 4) (Mat.tgram q)

let test_r_upper_triangular () =
  let rg = rng () in
  let a = random_mat rg 6 6 in
  let r = Qr.r (Qr.decompose a) in
  for i = 0 to 5 do
    for j = 0 to i - 1 do
      check_float "lower zero" 0. (Mat.get r i j)
    done
  done

let test_wide_rejected () =
  Alcotest.check_raises "wide rejected"
    (Invalid_argument "Qr.decompose: requires rows >= cols") (fun () ->
      ignore (Qr.decompose (Mat.create 2 3)))

let test_orthonormalize () =
  let r = rng () in
  let q = Qr.q_thin (Qr.decompose (random_mat r 12 5)) in
  check_mat ~eps:1e-8 "orthonormal" (Mat.identity 5) (Mat.tgram q)

(* RᵀR = AᵀA is what Svd's tall route relies on: it takes the eigenvectors
   of RᵀR as the right singular vectors of A. *)
let test_gram_identity () =
  let r = rng () in
  let a = random_mat r 15 6 in
  let rm = Qr.r (Qr.decompose a) in
  check_mat ~eps:1e-9 "RᵀR = AᵀA" (Mat.tgram a) (Mat.tgram rm)

let test_qt_a_is_r () =
  let r = rng () in
  let a = random_mat r 10 4 in
  let f = Qr.decompose a in
  check_mat ~eps:1e-9 "QᵀA = R" (Qr.r f) (Mat.mul_tn (Qr.q_thin f) a)

let test_single_column () =
  let a = Mat.of_cols [| [| 3.; 4.; 0.; 12. |] |] in
  let f = Qr.decompose a in
  let r00 = Mat.get (Qr.r f) 0 0 in
  check_float ~eps:1e-12 "|r₀₀| = ‖a‖" 13. (Float.abs r00);
  check_mat ~eps:1e-12 "q = a / r₀₀" (Mat.scale (1. /. r00) a) (Qr.q_thin f)

let test_dependent_columns () =
  (* Third column = 2 × first: R's third diagonal vanishes, yet Q stays
     orthonormal and Q·R still rebuilds A. *)
  let r = rng () in
  let b = random_vec r 7 and c = random_vec r 7 in
  let a = Mat.of_cols [| b; c; Vec.scale 2. b |] in
  let f = Qr.decompose a in
  check_true "r₂₂ ≈ 0" (Float.abs (Mat.get (Qr.r f) 2 2) <= 1e-12 *. Vec.norm b);
  check_mat ~eps:1e-10 "QᵀQ = I" (Mat.identity 3) (Mat.tgram (Qr.q_thin f));
  check_mat ~eps:1e-10 "Q·R = A" a (Mat.mul (Qr.q_thin f) (Qr.r f))

let test_square_orthogonal () =
  let r = rng () in
  let a = random_mat r 6 6 in
  let f = Qr.decompose a in
  let q = Qr.q_thin f in
  check_mat ~eps:1e-10 "QᵀQ = I" (Mat.identity 6) (Mat.tgram q);
  check_mat ~eps:1e-10 "QQᵀ = I" (Mat.identity 6) (Mat.gram q);
  check_mat ~eps:1e-9 "Q·R = A" a (Mat.mul q (Qr.r f))

let test_zero_matrix () =
  (* Zero columns take no reflector: R = 0 and Q is the identity's first columns. *)
  let f = Qr.decompose (Mat.create 5 3) in
  check_mat "R = 0" (Mat.create 3 3) (Qr.r f);
  check_mat "Q = I₅ₓ₃" (Mat.init 5 3 (fun i j -> if i = j then 1. else 0.)) (Qr.q_thin f)

let prop_preserves_norms =
  qtest ~count:50 "‖Qx‖ = ‖x‖ for Q columns combinations"
    QCheck2.Gen.(
      pair (int_range 2 8) (int_range 1 4) >>= fun (m, n) ->
      let n = min m n in
      pair
        (array_size (return (m * n)) (float_range (-3.) 3.))
        (array_size (return n) (float_range (-3.) 3.))
      >|= fun (a, x) -> (Mat.unsafe_of_flat ~rows:m ~cols:n a, x))
    (fun (a, x) ->
      let q = Qr.q_thin (Qr.decompose a) in
      (* Orthonormalization can produce fewer effective directions when a is
         rank deficient, but Q is always orthonormal, so norms are preserved. *)
      Float.abs (Vec.norm (Mat.mul_vec q x) -. Vec.norm x) < 1e-6 *. (1. +. Vec.norm x))

let () =
  Alcotest.run "qr"
    [ ( "factorization",
        [ Alcotest.test_case "reconstruction" `Quick test_reconstruction;
          Alcotest.test_case "orthonormal Q" `Quick test_q_orthonormal;
          Alcotest.test_case "triangular R" `Quick test_r_upper_triangular;
          Alcotest.test_case "orthonormalize" `Quick test_orthonormalize;
          Alcotest.test_case "RᵀR = AᵀA" `Quick test_gram_identity;
          Alcotest.test_case "QᵀA = R" `Quick test_qt_a_is_r;
          Alcotest.test_case "single column" `Quick test_single_column;
          Alcotest.test_case "dependent columns" `Quick test_dependent_columns;
          Alcotest.test_case "square orthogonal" `Quick test_square_orthogonal;
          Alcotest.test_case "zero matrix" `Quick test_zero_matrix ] );
      ("errors", [ Alcotest.test_case "wide" `Quick test_wide_rejected ]);
      ("properties", [ prop_preserves_norms ]) ]
