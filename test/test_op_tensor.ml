open Test_support

(* Equivalence suite for the factored tensor operator: every Op_tensor
   primitive on a Factored operator must agree with the dense computation on
   its materialization, across random shapes, ranks and view counts.  This is
   the contract that lets Tcca/Ktcca swap representations freely. *)

(* (dims, n, rank, weight, seed) — matrices are derived deterministically
   from the seed so the generator stays a flat tuple. *)
let gen_shape =
  QCheck2.Gen.(
    int_range 2 4 >>= fun m ->
    list_repeat m (int_range 1 5) >>= fun dims ->
    int_range 1 6 >>= fun n ->
    int_range 1 3 >>= fun rank ->
    float_range (-1.5) 1.5 >>= fun weight ->
    int_bound 1_000_000 >|= fun seed ->
    (Array.of_list dims, n, rank, weight, seed))

let build (dims, n, rank, weight, seed) =
  let r = Rng.create seed in
  let fill rows cols = Mat.init rows cols (fun _ _ -> (2. *. Rng.uniform r) -. 1.) in
  let zs = Array.map (fun d -> fill d n) dims in
  let us = Array.map (fun d -> fill d rank) dims in
  let lambda = Array.init rank (fun _ -> (2. *. Rng.uniform r) -. 1.) in
  let op = Op_tensor.factored ~weight zs in
  (op, Op_tensor.to_tensor op, us, lambda)

let prop_mttkrp =
  qtest ~count:120 "factored mttkrp = dense mttkrp (all modes)" gen_shape (fun shape ->
      let op, x, us, _ = build shape in
      let ok = ref true in
      for k = 0 to Tensor.order x - 1 do
        if
          not
            (Mat.equal ~eps:1e-10
               (Op_tensor.mttkrp (Op_tensor.Dense x) us k)
               (Op_tensor.mttkrp op us k))
        then ok := false
      done;
      !ok)

let prop_norm2 =
  qtest ~count:120 "factored norm2 = ⟨X, X⟩" gen_shape (fun shape ->
      let op, x, _, _ = build shape in
      Float.abs (Op_tensor.norm2 op -. Tensor.inner x x)
      < 1e-10 *. (1. +. Tensor.inner x x))

let prop_inner_kruskal =
  qtest ~count:120 "inner_kruskal agrees dense/factored/explicit" gen_shape (fun shape ->
      let op, x, us, lambda = build shape in
      let explicit =
        Tensor.inner x (Kruskal.to_tensor { Kruskal.weights = lambda; factors = us })
      in
      let scale = 1. +. Float.abs explicit in
      Float.abs (Op_tensor.inner_kruskal op lambda us -. explicit) < 1e-10 *. scale
      && Float.abs (Op_tensor.inner_kruskal (Op_tensor.Dense x) lambda us -. explicit)
         < 1e-10 *. scale)

let prop_mode_gram =
  qtest ~count:120 "factored mode_gram = unfolding gram (all modes)" gen_shape
    (fun shape ->
      let op, x, _, _ = build shape in
      let ok = ref true in
      for k = 0 to Tensor.order x - 1 do
        if
          not
            (Mat.equal ~eps:1e-9
               (Mat.gram (Unfold.unfold x k))
               (Op_tensor.mode_gram op k))
        then ok := false
      done;
      !ok)

let prop_shape_accessors =
  qtest ~count:60 "dims/order/size agree with the materialization" gen_shape (fun shape ->
      let op, x, _, _ = build shape in
      Op_tensor.order op = Tensor.order x
      && Op_tensor.dims op = x.Tensor.dims
      && Op_tensor.size op = Tensor.size x
      && Op_tensor.n_components op <> None)

(* ------------------------------------------------------------------ *)
(* The streamed Gram pass against the N×N formulas, bit for bit: norm2,
   mode_gram and the joint call, with component counts around the pass's
   block height, at pools 1 and 4.  The mode Grams are w²·(X + Xᵀ) with
   X = Zₖ·(H′ₖ·Zₖᵀ), H′ₖ the upper half of the Hadamard-of-tgram chain
   (diagonal halved), and stay within rounding of the historical product
   w²·Zₖ·Hₖ·Zₖᵀ; the norm is the upper-triangle sum the pass takes, and
   stays within rounding of the historical row-major sum.  N = 3b + 5 is
   four blocks with a narrow last one, so each Xₖ accumulates across
   several blocks' products. *)

(* (dims, n, weight, seed) with m ∈ 2..5 and n at the block edges. *)
let gen_pass_case =
  let b = Op_tensor.gram_block_rows in
  QCheck2.Gen.(
    int_range 2 5 >>= fun m ->
    list_repeat m (int_range 1 4) >>= fun dims ->
    oneofl [ 1; b - 1; b; b + 1; (2 * b) + 3; (3 * b) + 5 ] >>= fun n ->
    float_range (-1.5) 1.5 >>= fun weight ->
    int_bound 1_000_000 >|= fun seed -> (Array.of_list dims, n, weight, seed))

(* The factored operator of a pass case: exact zeros mixed in, as the
   GEMM contract suites do. *)
let pass_factors (dims, n, _, seed) =
  let r = Rng.create seed in
  let entry _ _ = if Rng.uniform r < 0.2 then 0. else (2. *. Rng.uniform r) -. 1. in
  Array.map (fun d -> Mat.init d n entry) dims

let prop_gram_pass_bitwise =
  qtest ~count:40 "streamed norm2/mode_gram/joint ≡ N×N oracle (bitwise, pools 1 and 4)"
    gen_pass_case (fun ((_, _, weight, _) as case) ->
      let zs = pass_factors case in
      let op = Op_tensor.factored ~weight zs in
      let modes = List.init (Array.length zs) Fun.id in
      let norm = oracle_norm2 ~weight zs in
      let row_major = row_major_norm2 ~weight zs in
      let grams = List.map (oracle_mode_gram ~weight zs) modes in
      Float.abs (norm -. row_major) <= 1e-12 *. (1. +. Float.abs row_major)
      && List.for_all2
           (fun k g ->
             let historical = historical_mode_gram ~weight zs k in
             Mat.max_abs (Mat.sub g historical) <= 1e-12 *. (1. +. Mat.max_abs historical))
           modes grams
      && List.for_all
        (fun size ->
          with_pool size (fun () ->
              let joint_norm, joint_grams = Op_tensor.norm2_and_mode_grams op in
              same_bits norm (Op_tensor.norm2 op)
              && same_bits norm joint_norm
              && List.for_all2 bits_equal grams (Array.to_list joint_grams)
              && List.for_all2
                   (fun k g -> bits_equal g (Op_tensor.mode_gram op k))
                   modes grams))
        [ 1; 4 ])

(* The joint pass holds O(m·b·N) at once, never an N×N matrix: at N = 4096
   one such matrix is 128 MiB; the whole pass allocates about 20 MB. *)
let test_gram_pass_allocation () =
  let n = 4096 in
  let r = Rng.create 0x9A55 in
  let zs = Array.init 3 (fun _ -> Mat.init 4 n (fun _ _ -> Rng.gaussian r)) in
  let op = Op_tensor.factored ~weight:(1. /. float_of_int n) zs in
  let before = Gc.allocated_bytes () in
  ignore (Op_tensor.norm2_and_mode_grams op);
  let allocated = Gc.allocated_bytes () -. before in
  let nxn = 8. *. float_of_int (n * n) in
  check_true
    (Printf.sprintf "allocated %.0f bytes < one N×N matrix (%.0f)" allocated nxn)
    (allocated < nxn)

(* Each mode Gram of the pass is w²·(X + Xᵀ), so cell (a, c) and cell
   (c, a) add the same two numbers: bitwise symmetric. *)
let prop_gram_pass_symmetric =
  qtest ~count:40 "streamed mode Grams are bitwise symmetric" gen_pass_case
    (fun ((_, _, weight, _) as case) ->
      let op = Op_tensor.factored ~weight (pass_factors case) in
      Array.for_all
        (fun g -> bits_equal g (Mat.transpose g))
        (snd (Op_tensor.norm2_and_mode_grams op)))

(* trace(M₍ₖ₎M₍ₖ₎ᵀ) = ‖M‖² for every mode k, to within 1e−12 of the
   scale of their terms: the norm of the same operator on the factors'
   magnitudes, w²·1ᵀ(⊛ₚ|Zₚ|ᵀ|Zₚ|)1, which bounds every term either sum
   adds.  (Relative to ‖M‖² itself the check would be flaky: the terms
   can cancel to a norm far below them.)  A pass that took all of Hₖ's
   diagonal into X instead of half would add each diagonal term of the
   norm a second time to every trace. *)
let prop_gram_pass_trace =
  qtest ~count:40 "trace of every streamed mode Gram = norm2 (1e-12 relative)" gen_pass_case
    (fun ((_, _, weight, _) as case) ->
      let zs = pass_factors case in
      let norm, grams = Op_tensor.norm2_and_mode_grams (Op_tensor.factored ~weight zs) in
      let magnitudes = Op_tensor.factored ~weight (Array.map (Mat.map Float.abs) zs) in
      let scale = Op_tensor.norm2 magnitudes in
      Array.for_all (fun g -> Float.abs (Mat.trace g -. norm) <= 1e-12 *. scale) grams)

(* ------------------------------------------------------------------ *)
(* The blocked Khatri–Rao × GEMM materialization against the historical
   rank-1 slab loop, bit for bit: m ∈ 1..5, dims that include 1, last modes
   below the 4-wide register tile, component counts whose block height
   leaves a tail block, exact zeros, pools 1 and 4, and every setting of
   the small-product cutoff (plain loops on every shape, microkernel
   forced on every shape, the default).  The materialization calls the
   accumulating microkernel directly, so the cutoff must not matter. *)

let gemm_routes =
  let default_cutoff = Gemm.small_cutoff () in
  [ (fun f -> with_impl `Naive f);
    (fun f -> with_impl `Microkernel f);
    (fun f -> with_impl ~small_cutoff:default_cutoff `Microkernel f) ]

(* [compute ()] is bitwise [expected] at pools 1 and 4 on every GEMM route. *)
let materializes_as expected compute =
  List.for_all
    (fun size ->
      with_pool size (fun () ->
          List.for_all (fun route -> tensor_bits_equal expected (route compute)) gemm_routes))
    [ 1; 4 ]

(* Finite factors, a fifth of them exact zeros. *)
let zero_mixed_factors dims n seed =
  let r = Rng.create seed in
  let entry _ _ = if Rng.uniform r < 0.2 then 0. else (2. *. Rng.uniform r) -. 1. in
  Array.map (fun d -> Mat.init d n entry) dims

let to_tensor_matches_oracle (dims, n, weight, seed) =
  let zs = zero_mixed_factors dims n seed in
  materializes_as (oracle_to_tensor ~weight zs) (fun () ->
      Op_tensor.to_tensor (Op_tensor.factored ~weight zs))

(* (dims, n, weight, seed).  The leading-mode caps keep ∏dₚ near a few
   hundred rows; the large n put the block height at 349, 201 and 127 rows,
   so those rows usually split into full blocks and a tail. *)
let gen_materialize_case =
  QCheck2.Gen.(
    int_range 1 5 >>= fun m ->
    let cap = [| 1; 1; 300; 20; 8; 5 |].(m) in
    list_repeat (m - 1) (frequency [ (1, return 1); (3, int_range 1 cap) ]) >>= fun lead ->
    frequency [ (3, int_range 1 3); (1, int_range 4 9) ] >>= fun last ->
    oneofl [ 1; 2; 5; 17; 64; 1500; 2600; 4100 ] >>= fun n ->
    float_range (-1.5) 1.5 >>= fun weight ->
    int_bound 1_000_000 >|= fun seed -> (Array.of_list (lead @ [ last ]), n, weight, seed))

let prop_to_tensor_bitwise =
  qtest ~count:60 "to_tensor ≡ rank-1 slab oracle (bitwise, pools 1 and 4, all GEMM routes)"
    gen_materialize_case to_tensor_matches_oracle

(* The accumulate form: [add_into] over consecutive column ranges of the
   same factors, onto one tensor, is bitwise one [to_tensor] over all the
   columns — how [Tcca.Builder] folds batch after batch.  Each call draws
   a fresh random split, ranges of one column included. *)
let prop_add_into_column_split =
  qtest ~count:40 "add_into over a column split ≡ to_tensor (bitwise, pools 1 and 4)"
    gen_materialize_case (fun (dims, n, weight, seed) ->
      let zs = zero_mixed_factors dims n seed in
      let r = Rng.create (seed + 1) in
      materializes_as
        (Op_tensor.to_tensor (Op_tensor.factored ~weight zs))
        (fun () ->
          let x = Tensor.create dims in
          let lo = ref 0 in
          while !lo < n do
            let len = min (n - !lo) (if Rng.int r 3 = 0 then 1 else 1 + Rng.int r n) in
            Op_tensor.add_into x
              (Op_tensor.factored ~weight (Array.map (fun z -> Mat.sub_cols z !lo len) zs));
            lo := !lo + len
          done;
          x))

(* Shapes pinned to leave a tail block at every order (at pool 1, where one
   chunk walks all rows). *)
let test_to_tensor_tail_blocks () =
  List.iter
    (fun (dims, n) ->
      let rows = Array.fold_left ( * ) 1 dims / dims.(Array.length dims - 1) in
      let b = Op_tensor.to_tensor_block_rows n in
      check_true
        (Printf.sprintf "%d rows at block height %d leave a tail" rows b)
        (rows > b && rows mod b <> 0);
      check_true "bitwise = oracle" (to_tensor_matches_oracle (dims, n, 0.7, rows + n)))
    [ ([| 300; 3 |], 2600); ([| 15; 13; 2 |], 3000); ([| 6; 1; 6; 6; 1 |], 4100);
      ([| 4; 4; 4; 4; 2 |], 4100) ]

let prop_covariance_tensor_bitwise =
  qtest ~count:30 "Tcca.covariance_tensor ≡ rank-1 slab oracle (bitwise)"
    QCheck2.Gen.(
      gen_materialize_case >|= fun (dims, n, _, seed) ->
      ((if Array.length dims = 1 then [| 3; dims.(0) |] else dims), n, seed))
    (fun (dims, n, seed) ->
      let views = zero_mixed_factors dims n seed in
      materializes_as
        (oracle_to_tensor ~weight:(1. /. float_of_int n) views)
        (fun () -> Tcca.covariance_tensor views))

(* A non-finite factor entry is never hidden: every cell whose index in its
   mode matches the entry's row comes out non-finite, also when a zero
   column in another mode masks it from the slab loop (whose output then
   stays finite).  Case: (dims, n, mode, row, column, value, masking mode
   or −1, seed). *)
let gen_non_finite_case =
  QCheck2.Gen.(
    int_range 1 4 >>= fun m ->
    list_repeat m (int_range 1 4) >>= fun dims ->
    int_range 1 6 >>= fun n ->
    int_bound (m - 1) >>= fun p ->
    int_bound (List.nth dims p - 1) >>= fun row ->
    int_bound (n - 1) >>= fun col ->
    oneofl [ Float.infinity; Float.neg_infinity; Float.nan ] >>= fun value ->
    (* The slab loop skips only under a zero in a mode before the last. *)
    oneofl (-1 :: List.filter (( <> ) p) (List.init (m - 1) Fun.id)) >>= fun mask ->
    int_bound 1_000_000 >|= fun seed ->
    (Array.of_list dims, n, p, row, col, value, mask, seed))

let prop_to_tensor_non_finite =
  qtest ~count:100 "a non-finite factor entry materializes non-finite (masked or not)"
    gen_non_finite_case (fun (dims, n, p, row, col, value, mask, seed) ->
      let zs = zero_mixed_factors dims n seed in
      if mask >= 0 then
        for a = 0 to dims.(mask) - 1 do
          Mat.set zs.(mask) a col 0.
        done;
      Mat.set zs.(p) row col value;
      let op = Op_tensor.factored ~weight:0.5 zs in
      let x = Op_tensor.to_tensor op in
      let stride = x.Tensor.strides.(p) in
      (not (Op_tensor.all_finite op))
      && (mask < 0 || Tensor.all_finite (oracle_to_tensor ~weight:0.5 zs))
      && Array.for_all Fun.id
           (Array.mapi
              (fun flat v -> flat / stride mod dims.(p) <> row || not (Float.is_finite v))
              x.Tensor.data))

let test_to_tensor_non_finite_weight () =
  let zs = zero_mixed_factors [| 2; 3; 2 |] 4 7 in
  List.iter
    (fun weight ->
      check_true "every cell non-finite"
        (Array.for_all
           (fun v -> not (Float.is_finite v))
           (Op_tensor.to_tensor (Op_tensor.factored ~weight zs)).Tensor.data))
    [ Float.infinity; Float.nan ]

(* decompose_op on the factored operator must recover the same well-separated
   structure the dense solver recovers exactly. *)
let test_decompose_op_recovery () =
  let u2 = Mat.of_cols [| [| 0.; 1.; 0.; 0. |]; [| 0.; 0.; 1.; 0. |] |] in
  let u3 = Mat.of_cols [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  (* weight 1 with columns pre-scaled: z₁ carries the component scales 5, 2. *)
  let z1 = Mat.of_cols [| [| 5.; 0.; 0. |]; [| 0.; 2.; 0. |] |] in
  let op = Op_tensor.factored ~weight:1. [| z1; u2; u3 |] in
  let dense = Op_tensor.to_tensor op in
  let kf, inf_f = Cp_als.decompose_op ~rank:2 op in
  let kd, inf_d = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense dense) in
  check_true "factored converged" inf_f.Cp_als.converged;
  check_true "dense converged" inf_d.Cp_als.converged;
  check_float ~eps:1e-6 "weight 5" 5. (Float.abs kf.Kruskal.weights.(0));
  check_float ~eps:1e-6 "weight 2" 2. (Float.abs kf.Kruskal.weights.(1));
  check_float ~eps:1e-8 "same fit both paths" inf_d.Cp_als.fit inf_f.Cp_als.fit;
  check_float ~eps:1e-6 "dense recovers weight 5" 5. (Float.abs kd.Kruskal.weights.(0))

let test_factored_validation () =
  Alcotest.check_raises "no modes" (Invalid_argument "Op_tensor.factored: no modes")
    (fun () -> ignore (Op_tensor.factored ~weight:1. [||]));
  Alcotest.check_raises "component mismatch"
    (Invalid_argument "Op_tensor.factored: component count mismatch") (fun () ->
      ignore (Op_tensor.factored ~weight:1. [| Mat.create 2 3; Mat.create 2 4 |]))

let test_add_into_validation () =
  let mismatch = Invalid_argument "Op_tensor.add_into: shape mismatch" in
  let zs = zero_mixed_factors [| 2; 3 |] 4 5 in
  Alcotest.check_raises "factored onto other dims" mismatch (fun () ->
      Op_tensor.add_into (Tensor.create [| 3; 2 |]) (Op_tensor.factored ~weight:1. zs));
  Alcotest.check_raises "dense onto other order" mismatch (fun () ->
      Op_tensor.add_into (Tensor.create [| 2; 3; 1 |]) (Op_tensor.Dense (Tensor.create [| 2; 3 |])));
  (* A dense operator is added entrywise. *)
  let r = rng () in
  let a = random_tensor r [| 2; 3 |] and b = random_tensor r [| 2; 3 |] in
  let x = Tensor.copy a in
  Op_tensor.add_into x (Op_tensor.Dense b);
  check_true "dense: entrywise sum" (tensor_bits_equal (Tensor.add a b) x)

let test_mttkrp_arity () =
  let op = Op_tensor.factored ~weight:1. [| Mat.create 2 3; Mat.create 2 3 |] in
  Alcotest.check_raises "arity" (Invalid_argument "Op_tensor.mttkrp: arity mismatch")
    (fun () -> ignore (Op_tensor.mttkrp op [| Mat.create 2 1 |] 0))

(* Tcca end-to-end: the factored pipeline must match the dense pipeline on a
   dense-feasible shape (acceptance: projections within 1e-8). *)
let shared_views r ~n ~noise =
  let views = Array.init 3 (fun _ -> Mat.create 4 n) in
  for j = 0 to n - 1 do
    let s = -.log (Float.max 1e-12 (Rng.uniform r)) -. 1. in
    Array.iter
      (fun v ->
        Mat.set v 0 j (s +. (noise *. Rng.gaussian r));
        for i = 1 to 3 do
          Mat.set v i j (Rng.gaussian r)
        done)
      views
  done;
  views

let tight_als =
  (* Both paths are run to a tight fixed point so the comparison measures
     representation error, not early-stopping jitter. *)
  Tcca.Als { Cp_als.default_options with tol = 1e-13; max_iter = 400 }

let test_tcca_factored_matches_dense () =
  let r = rng () in
  let views = shared_views r ~n:500 ~noise:0.4 in
  let pd = with_route `Dense (fun () -> Tcca.prepare ~eps:1e-2 views) in
  let pf = with_route `Factored (fun () -> Tcca.prepare ~eps:1e-2 views) in
  check_true "dense path is dense" (Tcca.materialized pd);
  check_true "factored path is factored" (not (Tcca.materialized pf));
  let md = Tcca.fit_prepared ~solver:tight_als ~r:2 pd in
  let mf = Tcca.fit_prepared ~solver:tight_als ~r:2 pf in
  check_vec ~eps:1e-8 "correlations match" (Tcca.correlations md) (Tcca.correlations mf);
  let prd = Tcca.projections md and prf = Tcca.projections mf in
  Array.iteri
    (fun p ud ->
      for c = 0 to 1 do
        let cd = Mat.col ud c and cf = Mat.col prf.(p) c in
        let sign = if Vec.dot cd cf >= 0. then 1. else -1. in
        check_vec ~eps:1e-8
          (Printf.sprintf "projection view %d col %d" p c)
          cd (Vec.scale sign cf)
      done)
    prd;
  check_mat ~eps:1e-7 "embeddings match"
    (Mat.map Float.abs (Tcca.transform md views))
    (Mat.map Float.abs (Tcca.transform mf views))

(* The route function on named shapes: the paper's SecStr views (3 × 105)
   flip from factored to dense between N = 3 000 and 8 000, SecStr quick
   (3 × 60) between N = 1 200 and 2 000; the ℓ-space Nyström operator of
   fit-nystrom (64³, N = 10 000) is dense; 5 × 40 is above the cap.  On
   every SecStr row the measured fits (DESIGN.md §4) pick the same route
   by 20 % or more.  SecStr paper at N = 4 000 has no row: it sits on the
   model's crossover (N ≈ 4 000), where the two routes' fits tie, so
   either answer is right there. *)
let route_table =
  let secstr = [| 105; 105; 105 |] in
  [ ("SecStr paper, N = 1 000", secstr, 1000, false);
    ("SecStr paper, N = 2 000", secstr, 2000, false);
    ("SecStr paper, N = 2 500", secstr, 2500, false);
    ("SecStr paper, N = 3 000", secstr, 3000, false);
    ("SecStr paper, N = 8 000", secstr, 8000, true);
    ("Nyström ℓ-space 64³, N = 10 000", [| 64; 64; 64 |], 10_000, true);
    ("SecStr quick, N = 1 200", [| 60; 60; 60 |], 1200, false);
    ("SecStr quick, N = 2 000", [| 60; 60; 60 |], 2000, true);
    (* The model alone would materialize this one. *)
    ("5 views at d = 40, N = 10⁶ (above the cap)", Array.make 5 40, 1_000_000, false) ]

let test_route_table () =
  List.iter
    (fun (name, dims, n, dense) ->
      Alcotest.(check bool) name dense (Op_tensor.materializes ~dims ~n))
    route_table;
  (* The hook pins the model's choice, never past the cap. *)
  let secstr = [| 105; 105; 105 |] in
  with_route `Dense (fun () ->
      check_true "pinned dense" (Op_tensor.materializes ~dims:secstr ~n:1000);
      check_true "cap holds when pinned"
        (not (Op_tensor.materializes ~dims:(Array.make 5 40) ~n:50)));
  with_route `Factored (fun () ->
      check_true "pinned factored" (not (Op_tensor.materializes ~dims:secstr ~n:8000)));
  (* A fit at the paper's SecStr shape and N = 2 000 stays factored. *)
  let r = rng () in
  let views = Array.init 3 (fun _ -> random_mat r 105 2000) in
  check_true "Tcca at 3 × 105, N = 2 000 is factored"
    (not (Tcca.materialized (Tcca.prepare views)))

(* The finite check comes first, on either pin: a non-finite factor entry,
   weight or dense entry is [Non_finite] with the caller's stage and
   location, and a finite operator takes the pinned route. *)
let test_route_non_finite () =
  let zs = zero_mixed_factors [| 3; 2; 4 |] 5 11 in
  let finite = Op_tensor.factored ~weight:0.5 zs in
  let poisoned = Array.map Mat.copy zs in
  Mat.set poisoned.(1) 1 2 Float.nan;
  let dense_inf = Tensor.create [| 3; 2; 4 |] in
  Tensor.set dense_inf [| 2; 0; 3 |] Float.infinity;
  let route = Op_tensor.route ~stage:"test.route" ~where:"operator" in
  let refused op =
    match route op with
    | Error (Robust.Non_finite { stage = "test.route"; where = "operator" }) -> true
    | _ -> false
  in
  List.iter
    (fun pin ->
      with_route pin (fun () ->
          check_true "NaN factor refused" (refused (Op_tensor.factored ~weight:0.5 poisoned));
          check_true "NaN weight refused" (refused (Op_tensor.factored ~weight:Float.nan zs));
          check_true "Inf dense entry refused" (refused (Op_tensor.Dense dense_inf));
          match (route finite, pin) with
          | Ok (Op_tensor.Dense x), `Dense ->
            check_true "materialized = to_tensor"
              (tensor_bits_equal (Op_tensor.to_tensor finite) x)
          | Ok (Op_tensor.Factored _), `Factored -> ()
          | _ -> Alcotest.fail "finite operator refused or routed against its pin"))
    [ `Dense; `Factored ]

let test_route_hook_restored () =
  (try with_route `Dense (fun () -> raise Exit) with Exit -> ());
  check_true "pin restored after a raise" (Op_tensor.pinned_route () = None)

let qsuite name tests = (name, tests)

let () =
  Alcotest.run "op_tensor"
    [ qsuite "equivalence"
        [ prop_mttkrp; prop_norm2; prop_inner_kruskal; prop_mode_gram;
          prop_shape_accessors ];
      qsuite "gram-pass"
        [ prop_gram_pass_bitwise;
          Alcotest.test_case "no N×N allocation" `Quick test_gram_pass_allocation;
          prop_gram_pass_symmetric;
          prop_gram_pass_trace ];
      qsuite "materialize"
        [ prop_to_tensor_bitwise;
          Alcotest.test_case "tail blocks" `Quick test_to_tensor_tail_blocks;
          prop_covariance_tensor_bitwise;
          prop_to_tensor_non_finite;
          Alcotest.test_case "non-finite weight" `Quick test_to_tensor_non_finite_weight;
          prop_add_into_column_split ];
      qsuite "decompose"
        [ Alcotest.test_case "factored recovery = dense" `Quick test_decompose_op_recovery ];
      qsuite "tcca"
        [ Alcotest.test_case "fit factored = fit dense" `Quick
            test_tcca_factored_matches_dense ];
      qsuite "route"
        [ Alcotest.test_case "route table" `Quick test_route_table;
          Alcotest.test_case "hook restored on raise" `Quick test_route_hook_restored;
          Alcotest.test_case "non-finite refused on either pin" `Quick test_route_non_finite ];
      qsuite "errors"
        [ Alcotest.test_case "validation" `Quick test_factored_validation;
          Alcotest.test_case "mttkrp arity" `Quick test_mttkrp_arity;
          Alcotest.test_case "add_into shape" `Quick test_add_into_validation ] ]
