open Test_support

let test_create_get_set () =
  let t = Tensor.create [| 2; 3 |] in
  check_float "zero init" 0. (Tensor.get t [| 1; 2 |]);
  Tensor.set t [| 1; 2 |] 5.;
  check_float "set/get" 5. (Tensor.get t [| 1; 2 |]);
  Alcotest.(check int) "order" 2 (Tensor.order t);
  Alcotest.(check int) "size" 6 (Tensor.size t);
  Alcotest.(check int) "dim" 3 (Tensor.dim t 1)

let test_init_indexing () =
  let t =
    Tensor.init [| 2; 3; 4 |] (fun idx ->
        float_of_int ((idx.(0) * 100) + (idx.(1) * 10) + idx.(2)))
  in
  check_float "element" 123. (Tensor.get t [| 1; 2; 3 |]);
  check_float "first" 0. (Tensor.get t [| 0; 0; 0 |])

let test_bounds () =
  let t = Tensor.create [| 2; 2 |] in
  Alcotest.check_raises "oob" (Invalid_argument "Tensor: index out of bounds") (fun () ->
      ignore (Tensor.get t [| 0; 2 |]));
  Alcotest.check_raises "arity" (Invalid_argument "Tensor: index arity mismatch") (fun () ->
      ignore (Tensor.get t [| 0 |]))

let test_outer_known () =
  let t = Tensor.outer [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5. |] |] in
  check_float "entry (0,0,0)" 15. (Tensor.get t [| 0; 0; 0 |]);
  check_float "entry (1,1,0)" 40. (Tensor.get t [| 1; 1; 0 |]);
  check_float "entry (0,1,0)" 20. (Tensor.get t [| 0; 1; 0 |])

let test_add_outer_accumulates () =
  let t = Tensor.create [| 2; 2 |] in
  Tensor.add_outer_in_place t 2. [| [| 1.; 0. |]; [| 0.; 1. |] |];
  Tensor.add_outer_in_place t 3. [| [| 0.; 1. |]; [| 1.; 0. |] |];
  check_float "(0,1)" 2. (Tensor.get t [| 0; 1 |]);
  check_float "(1,0)" 3. (Tensor.get t [| 1; 0 |]);
  check_float "(0,0)" 0. (Tensor.get t [| 0; 0 |])

let test_algebra () =
  let r = rng () in
  let a = random_tensor r [| 3; 2; 2 |] and b = random_tensor r [| 3; 2; 2 |] in
  check_tensor ~eps:1e-12 "a+b-b = a" a (Tensor.sub (Tensor.add a b) b);
  check_tensor ~eps:1e-12 "2a = a+a" (Tensor.add a a) (Tensor.scale 2. a);
  let c = Tensor.copy a in
  Tensor.scale_in_place 3. c;
  check_tensor ~eps:1e-12 "scale_in_place" (Tensor.scale 3. a) c

let test_inner_frobenius () =
  let r = rng () in
  let a = random_tensor r [| 2; 3; 2 |] in
  check_float ~eps:1e-10 "‖a‖² = <a,a>" (Tensor.inner a a) (Tensor.frobenius a ** 2.)

let test_mode_product_identity () =
  let r = rng () in
  let a = random_tensor r [| 3; 4; 2 |] in
  check_tensor ~eps:1e-12 "I along mode 1" a (Tensor.mode_product a 1 (Mat.identity 4))

let test_mode_product_vs_unfold () =
  (* Cross-check the direct implementation against the unfold-based one
     (paper Eq. 4.3). *)
  let r = rng () in
  for mode = 0 to 2 do
    let a = random_tensor r [| 3; 4; 5 |] in
    let u = random_mat r 6 (Tensor.dim a mode) in
    check_tensor ~eps:1e-9
      (Printf.sprintf "mode %d" mode)
      (Unfold.mode_product_via_unfold a mode u)
      (Tensor.mode_product a mode u)
  done

let test_mode_products_chain () =
  let r = rng () in
  let a = random_tensor r [| 2; 3; 4 |] in
  let us = [| random_mat r 2 2; random_mat r 5 3; random_mat r 3 4 |] in
  let direct = Tensor.mode_products a us in
  let manual =
    Tensor.mode_product
      (Tensor.mode_product (Tensor.mode_product a 0 us.(0)) 1 us.(1))
      2 us.(2)
  in
  check_tensor ~eps:1e-9 "chain = sequential" manual direct

let test_mode_products_commute () =
  let r = rng () in
  let a = random_tensor r [| 3; 4; 2 |] in
  let u0 = random_mat r 2 3 and u2 = random_mat r 5 2 in
  let ab = Tensor.mode_product (Tensor.mode_product a 0 u0) 2 u2 in
  let ba = Tensor.mode_product (Tensor.mode_product a 2 u2) 0 u0 in
  check_tensor ~eps:1e-9 "commute" ab ba

let test_contract_vec () =
  let r = rng () in
  let a = random_tensor r [| 3; 4; 2 |] in
  let h = random_vec r 4 in
  let c = Tensor.contract_vec a 1 h in
  Alcotest.(check int) "order drops" 2 (Tensor.order c);
  let expected = ref 0. in
  for j = 0 to 3 do
    expected := !expected +. (Tensor.get a [| 2; j; 1 |] *. h.(j))
  done;
  check_float ~eps:1e-10 "entry" !expected (Tensor.get c [| 2; 1 |])

let test_multilinear_form_theorem1 () =
  (* Theorem 1: Σₙ Πₚ zₚ(n) = C ×₁h₁ᵀ …×ₘhₘᵀ for C = Σₙ x₁ₙ∘x₂ₙ∘x₃ₙ. *)
  let r = rng () in
  let n = 12 in
  let views = Array.init 3 (fun _ -> random_mat r 4 n) in
  let hs = Array.init 3 (fun _ -> random_vec r 4) in
  let c = Tensor.create [| 4; 4; 4 |] in
  for i = 0 to n - 1 do
    Tensor.add_outer_in_place c 1. (Array.map (fun v -> Mat.col v i) views)
  done;
  let lhs = ref 0. in
  for i = 0 to n - 1 do
    let prod = ref 1. in
    for p = 0 to 2 do
      prod := !prod *. Vec.dot (Mat.col views.(p) i) hs.(p)
    done;
    lhs := !lhs +. !prod
  done;
  check_float ~eps:1e-8 "Theorem 1" !lhs (Tensor.multilinear_form c hs)

let test_multilinear_form_rank1 () =
  let r = rng () in
  let x = random_vec r 3 and y = random_vec r 4 and z = random_vec r 2 in
  let h1 = random_vec r 3 and h2 = random_vec r 4 and h3 = random_vec r 2 in
  let t = Tensor.outer [| x; y; z |] in
  check_float ~eps:1e-10 "factorizes"
    (Vec.dot x h1 *. Vec.dot y h2 *. Vec.dot z h3)
    (Tensor.multilinear_form t [| h1; h2; h3 |])

let prop_outer_frobenius =
  qtest ~count:50 "‖x∘y∘z‖ = ‖x‖‖y‖‖z‖"
    QCheck2.Gen.(triple gen_vec gen_vec gen_vec)
    (fun (x, y, z) ->
      QCheck2.assume (Array.length x > 0 && Array.length y > 0 && Array.length z > 0);
      let t = Tensor.outer [| x; y; z |] in
      Float.abs (Tensor.frobenius t -. (Vec.norm x *. Vec.norm y *. Vec.norm z)) < 1e-5)

let prop_mode_product_linear =
  qtest ~count:40 "mode product linear in tensor" gen_tensor3 (fun a ->
      let d0 = Tensor.dim a 0 in
      let u = Mat.init 2 d0 (fun i j -> float_of_int (i + j)) in
      let lhs = Tensor.mode_product (Tensor.scale 2. a) 0 u in
      let rhs = Tensor.scale 2. (Tensor.mode_product a 0 u) in
      Tensor.equal ~eps:1e-7 lhs rhs)

(* [a ×ₖ u] cell by cell: Σᵢ u[r,i]·a[…,i,…] in ascending i from 0., skipping
   zero coefficients.  [mode_product] promises this sum on every mode — the
   contiguous dot products of the last mode included — bit for bit. *)
let reference_mode_product a k u =
  let j, dk = Mat.dims u in
  let out_dims = Array.copy a.Tensor.dims in
  out_dims.(k) <- j;
  Tensor.init out_dims (fun idx ->
      let src = Array.copy idx in
      let acc = ref 0. in
      for i = 0 to dk - 1 do
        let coeff = Mat.get u idx.(k) i in
        if coeff <> 0. then begin
          src.(k) <- i;
          acc := !acc +. (coeff *. Tensor.get a src)
        end
      done;
      !acc)

let prop_mode_product_reference =
  qtest ~count:60 "mode product ≡ ascending-sum reference (bitwise, every mode)"
    QCheck2.Gen.(triple (int_range 1 4) (int_range 1 4) nat)
    (fun (m, j, seed) ->
      let r = Rng.create (seed + 1) in
      let a = random_tensor r (Array.init m (fun _ -> 1 + Rng.int r 5)) in
      List.for_all
        (fun k ->
          (* A third of the coefficients are exact zeros. *)
          let u =
            Mat.init j (Tensor.dim a k) (fun _ _ ->
                if Rng.int r 3 = 0 then 0. else Rng.gaussian r)
          in
          tensor_bits_equal (reference_mode_product a k u) (Tensor.mode_product a k u))
        (List.init m Fun.id))

let () =
  Alcotest.run "tensor"
    [ ( "basics",
        [ Alcotest.test_case "create/get/set" `Quick test_create_get_set;
          Alcotest.test_case "init indexing" `Quick test_init_indexing;
          Alcotest.test_case "bounds" `Quick test_bounds;
          Alcotest.test_case "algebra" `Quick test_algebra;
          Alcotest.test_case "inner/frobenius" `Quick test_inner_frobenius ] );
      ( "outer products",
        [ Alcotest.test_case "outer known" `Quick test_outer_known;
          Alcotest.test_case "accumulate" `Quick test_add_outer_accumulates ] );
      ( "mode products",
        [ Alcotest.test_case "identity" `Quick test_mode_product_identity;
          Alcotest.test_case "vs unfold" `Quick test_mode_product_vs_unfold;
          Alcotest.test_case "chain" `Quick test_mode_products_chain;
          Alcotest.test_case "commute" `Quick test_mode_products_commute;
          Alcotest.test_case "contract" `Quick test_contract_vec ] );
      ( "multilinear forms",
        [ Alcotest.test_case "Theorem 1" `Quick test_multilinear_form_theorem1;
          Alcotest.test_case "rank-1" `Quick test_multilinear_form_rank1 ] );
      ( "properties",
        [ prop_outer_frobenius; prop_mode_product_linear; prop_mode_product_reference ] ) ]
