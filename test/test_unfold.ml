open Test_support

let test_unfold_shape () =
  let r = rng () in
  let a = random_tensor r [| 3; 4; 5 |] in
  Alcotest.(check (pair int int)) "mode 0" (3, 20) (Mat.dims (Unfold.unfold a 0));
  Alcotest.(check (pair int int)) "mode 1" (4, 15) (Mat.dims (Unfold.unfold a 1));
  Alcotest.(check (pair int int)) "mode 2" (5, 12) (Mat.dims (Unfold.unfold a 2))

let test_unfold_known () =
  (* Kolda & Bader's running example ordering: lowest remaining mode varies
     fastest along columns. *)
  let a =
    Tensor.init [| 2; 2; 2 |] (fun idx ->
        float_of_int ((idx.(0) * 1) + (idx.(1) * 2) + (idx.(2) * 4)))
  in
  let u0 = Unfold.unfold a 0 in
  (* Columns of mode-0 unfolding enumerate (i1, i2) with i1 fastest:
     (0,0) (1,0) (0,1) (1,1). *)
  check_vec "row 0" [| 0.; 2.; 4.; 6. |] (Mat.row u0 0);
  check_vec "row 1" [| 1.; 3.; 5.; 7. |] (Mat.row u0 1)

let test_refold_roundtrip () =
  let r = rng () in
  for mode = 0 to 2 do
    let a = random_tensor r [| 3; 4; 2 |] in
    let back = refold (Unfold.unfold a mode) [| 3; 4; 2 |] mode in
    check_tensor ~eps:1e-12 (Printf.sprintf "roundtrip mode %d" mode) a back
  done

let test_unfold_preserves_norm () =
  let r = rng () in
  let a = random_tensor r [| 2; 5; 3 |] in
  for mode = 0 to 2 do
    check_float ~eps:1e-9 "frobenius preserved" (Tensor.frobenius a)
      (Mat.frobenius (Unfold.unfold a mode))
  done

let test_rank1_unfolding_structure () =
  (* For a rank-1 tensor x∘y∘z, the mode-0 unfolding is x·(z⊗y)ᵀ — i.e.
     exactly the Khatri-Rao/vec structure CP-ALS relies on. *)
  let x = [| 1.; 2. |] and y = [| 3.; 4.; 5. |] and z = [| 6.; 7. |] in
  let t = Tensor.outer [| x; y; z |] in
  let u0 = Unfold.unfold t 0 in
  let kr = Khatri_rao.chain [ Mat.of_cols [| y |]; Mat.of_cols [| z |] ] in
  let expected = Mat.mul_nt (Mat.of_cols [| x |]) kr in
  check_mat ~eps:1e-10 "X(0) = x (z ⊙ y)ᵀ" expected u0

let test_order2_matches_matrix () =
  (* An order-2 tensor's mode-0 unfolding is the matrix itself. *)
  let r = rng () in
  let m = random_mat r 3 4 in
  let t = Tensor.init [| 3; 4 |] (fun idx -> Mat.get m idx.(0) idx.(1)) in
  check_mat ~eps:1e-12 "mode-0 is matrix" m (Unfold.unfold t 0);
  check_mat ~eps:1e-12 "mode-1 is transpose" (Mat.transpose m) (Unfold.unfold t 1)

let prop_roundtrip =
  qtest ~count:40 "unfold/refold roundtrip" gen_tensor3 (fun a ->
      let dims = Array.init 3 (Tensor.dim a) in
      let ok = ref true in
      for mode = 0 to 2 do
        if not (Tensor.equal ~eps:1e-10 a (refold (Unfold.unfold a mode) dims mode))
        then ok := false
      done;
      !ok)

let () =
  Alcotest.run "unfold"
    [ ( "unfold",
        [ Alcotest.test_case "shapes" `Quick test_unfold_shape;
          Alcotest.test_case "known ordering" `Quick test_unfold_known;
          Alcotest.test_case "norm preserved" `Quick test_unfold_preserves_norm;
          Alcotest.test_case "order 2" `Quick test_order2_matches_matrix ] );
      ( "refold",
        [ Alcotest.test_case "roundtrip" `Quick test_refold_roundtrip;
          Alcotest.test_case "rank-1 structure" `Quick test_rank1_unfolding_structure ] );
      ("properties", [ prop_roundtrip ]) ]
