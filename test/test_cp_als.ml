open Test_support

(* A well-separated rank-2 tensor with orthogonal factors: ALS must recover
   it essentially exactly. *)
let separated_rank2 () =
  let u1 = Mat.of_cols [| [| 1.; 0.; 0. |]; [| 0.; 1.; 0. |] |] in
  let u2 = Mat.of_cols [| [| 0.; 1.; 0.; 0. |]; [| 0.; 0.; 1.; 0. |] |] in
  let u3 = Mat.of_cols [| [| 1.; 0. |]; [| 0.; 1. |] |] in
  { Kruskal.weights = [| 5.; 2. |]; factors = [| u1; u2; u3 |] }

let test_exact_recovery_rank1 () =
  let r = rng () in
  let xs = [| Vec.normalize (random_vec r 4); Vec.normalize (random_vec r 3); Vec.normalize (random_vec r 5) |] in
  let t = Tensor.scale 3. (Tensor.outer xs) in
  let k, info = Cp_als.decompose_op ~rank:1 (Op_tensor.Dense t) in
  check_float ~eps:1e-6 "fit = 1" 1. info.Cp_als.fit;
  check_float ~eps:1e-6 "weight = 3" 3. (Float.abs k.Kruskal.weights.(0))

let test_exact_recovery_rank2 () =
  let truth = separated_rank2 () in
  let t = Kruskal.to_tensor truth in
  let k, info = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t) in
  check_true "converged" info.Cp_als.converged;
  check_float ~eps:1e-6 "fit = 1" 1. (Kruskal.fit k t);
  check_float ~eps:1e-5 "weights recovered" 5. (Float.abs k.Kruskal.weights.(0));
  check_float ~eps:1e-5 "second weight" 2. (Float.abs k.Kruskal.weights.(1))

let test_mttkrp_matches_reference () =
  (* MTTKRP must equal the textbook X₍ₖ₎ · (⊙_{q≠k} U_q). *)
  let r = rng () in
  let t = random_tensor r [| 3; 4; 5 |] in
  let us = [| random_mat r 3 2; random_mat r 4 2; random_mat r 5 2 |] in
  for k = 0 to 2 do
    let reference = Mat.mul (Unfold.unfold t k) (Khatri_rao.chain_excluding us k) in
    check_mat ~eps:1e-8
      (Printf.sprintf "mode %d" k)
      reference (Op_tensor.mttkrp (Op_tensor.Dense t) us k)
  done

let test_fit_monotone_nondecreasing () =
  (* The reported fit history should be (weakly) improving after the first
     couple of sweeps — ALS is a monotone algorithm on the residual. *)
  let r = rng () in
  let t = random_tensor r [| 5; 4; 3 |] in
  let _, info =
    Cp_als.decompose_op ~options:{ Cp_als.default_options with max_iter = 30 } ~rank:2
      (Op_tensor.Dense t)
  in
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
      check_true "non-decreasing fit" (b >= a -. 1e-8);
      check_monotone rest
    | _ -> ()
  in
  check_monotone info.Cp_als.fit_history

let test_random_init () =
  let r = rng () in
  let t = random_tensor r [| 4; 4; 4 |] in
  let options = { Cp_als.default_options with init = Cp_als.Random 5 } in
  let k, _ = Cp_als.decompose_op ~options ~rank:2 (Op_tensor.Dense t) in
  Alcotest.(check int) "rank" 2 (Kruskal.rank k)

let test_noisy_recovery () =
  (* Dominant structure must survive mild noise. *)
  let r = rng () in
  let truth = separated_rank2 () in
  let noise = Tensor.scale 0.05 (random_tensor r [| 3; 4; 2 |]) in
  let t = Tensor.add (Kruskal.to_tensor truth) noise in
  let k, _ = Cp_als.decompose_op ~rank:2 (Op_tensor.Dense t) in
  (* Leading component should align with the weight-5 factor columns. *)
  let recovered = Kruskal.component k 0 in
  let truth0 = Kruskal.component truth 0 in
  Array.iteri
    (fun p v ->
      check_true
        (Printf.sprintf "alignment view %d" p)
        (Float.abs (Vec.dot v truth0.(p)) > 0.95))
    recovered

let test_rank_greater_than_dim () =
  (* Rank above a mode's dimension: random-padded HOSVD init must still work. *)
  let r = rng () in
  let t = random_tensor r [| 2; 5; 4 |] in
  let k, _ =
    Cp_als.decompose_op ~options:{ Cp_als.default_options with max_iter = 20 } ~rank:4
      (Op_tensor.Dense t)
  in
  Alcotest.(check int) "rank kept" 4 (Kruskal.rank k)

let test_pool_size_determinism () =
  (* Same seed and options must give bit-for-bit identical factors whether
     the MTTKRP (and the GEMMs it feeds) run on 1, 2, or 4 domains. *)
  let t = random_tensor (rng ()) [| 6; 5; 4 |] in
  let options = { Cp_als.default_options with init = Cp_als.Random 7; max_iter = 25 } in
  let run size =
    Parallel.set_num_domains size;
    Parallel.set_sequential_cutoff 0;
    Fun.protect
      ~finally:(fun () ->
        Parallel.set_num_domains 1;
        Parallel.set_sequential_cutoff Parallel.default_cutoff)
      (fun () -> Cp_als.decompose_op ~options ~rank:3 (Op_tensor.Dense t))
  in
  let bits v = Array.map Int64.bits_of_float v in
  let k1, info1 = run 1 in
  List.iter
    (fun size ->
      let k, info = run size in
      Alcotest.(check int)
        (Printf.sprintf "iterations at pool %d" size)
        info1.Cp_als.iterations info.Cp_als.iterations;
      Alcotest.(check (array int64))
        (Printf.sprintf "weights at pool %d" size)
        (bits k1.Kruskal.weights) (bits k.Kruskal.weights);
      Array.iteri
        (fun p u ->
          Alcotest.(check (array int64))
            (Printf.sprintf "factor %d at pool %d" p size)
            (bits k1.Kruskal.factors.(p).Mat.data)
            (bits u.Mat.data))
        k.Kruskal.factors)
    [ 2; 4 ]

let test_degenerate_columns_zeroed () =
  (* Subnormal-scale tensor: every ALS column norm underflows (≤ 1e-300), so
     normalization must zero the column along with its λ — a stale
     un-normalized column would survive into the returned factors (and be
     blown up to unit norm by Kruskal.normalize) otherwise. *)
  let r = rng () in
  let t = Tensor.scale 1e-305 (random_tensor r [| 3; 4; 2 |]) in
  let options = { Cp_als.default_options with init = Cp_als.Random 11; max_iter = 3 } in
  let k, _ = Cp_als.decompose_op ~options ~rank:2 (Op_tensor.Dense t) in
  Array.iter (fun w -> check_float "zero weight" 0. w) k.Kruskal.weights;
  Array.iter
    (fun u -> Array.iter (fun v -> check_float "zeroed factor entry" 0. v) u.Mat.data)
    k.Kruskal.factors

let test_invalid_rank () =
  let t = Tensor.create [| 2; 2 |] in
  Alcotest.check_raises "rank 0" (Invalid_argument "Cp_als.decompose_op: rank must be >= 1")
    (fun () -> ignore (Cp_als.decompose_op ~rank:0 (Op_tensor.Dense t)))

let test_higher_rank_fits_better () =
  let r = rng () in
  let t = random_tensor r [| 4; 4; 4 |] in
  let fit rank =
    (snd
       (Cp_als.decompose_op ~options:{ Cp_als.default_options with max_iter = 60 } ~rank
          (Op_tensor.Dense t)))
      .Cp_als.fit
  in
  check_true "rank 4 >= rank 1" (fit 4 >= fit 1 -. 0.02)

(* --- Global optimum on 2 × 2 × 2 tensors.  Alternating methods can stop
   at a local optimum (Nie, Wang & Zheng, arXiv:2201.11949, built a global
   solver for that reason).  With u = (cos a, sin a) and v = (cos b, sin b)
   the best third factor is w ∝ T(u, v, ·), so the best rank-1 weight is the
   maximum over two angles of σ(a, b) = ‖T(u, v, ·)‖.  σ is π-periodic in
   each angle (u and −u give the same σ), so the reference searches a grid
   over the torus [0, π)², refines every grid-local maximum by compass
   search, and keeps the largest. --- *)

let sigma_of_angles t a b =
  let u = [| cos a; sin a |] and v = [| cos b; sin b |] in
  let w k =
    let acc = ref 0. in
    for i = 0 to 1 do
      for j = 0 to 1 do
        acc := !acc +. (u.(i) *. v.(j) *. Tensor.get t [| i; j; k |])
      done
    done;
    !acc
  in
  Float.hypot (w 0) (w 1)

(* Compass search from (a, b) with initial step h: move along ±a or ±b
   while that raises σ, halve the step when no move does. *)
let refine_angles t a b h =
  let a = ref a and b = ref b and best = ref (sigma_of_angles t a b) and h = ref h in
  while !h > 1e-13 do
    let try_move (da, db) =
      let s = sigma_of_angles t (!a +. da) (!b +. db) in
      s > !best
      && begin
           a := !a +. da;
           b := !b +. db;
           best := s;
           true
         end
    in
    if not (List.exists try_move [ (!h, 0.); (-. !h, 0.); (0., !h); (0., -. !h) ]) then
      h := !h /. 2.
  done;
  !best

let global_rank1_weight t =
  let n = 48 in
  let step = Float.pi /. float_of_int n in
  let grid =
    Array.init n (fun i ->
        Array.init n (fun j -> sigma_of_angles t (float_of_int i *. step) (float_of_int j *. step)))
  in
  let at i j = grid.((i + n) mod n).((j + n) mod n) in
  let best = ref 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let s = grid.(i).(j) in
      let local_max = ref true in
      for di = -1 to 1 do
        for dj = -1 to 1 do
          if at (i + di) (j + dj) > s then local_max := false
        done
      done;
      if !local_max then
        best :=
          Float.max !best
            (refine_angles t (float_of_int i *. step) (float_of_int j *. step) step)
    done
  done;
  !best

(* 400 seeded 2 × 2 × 2 Gaussian tensors, each with its global σ*. *)
let global_cases =
  lazy
    (let r = Rng.create 0x2B2 in
     List.init 400 (fun _ ->
         let t = random_tensor r [| 2; 2; 2 |] in
         (t, global_rank1_weight t)))

(* Stop on a fit change of 1e-13: far below the 1e-8 this measures, and the
   fit of a random 2 × 2 × 2 tensor (≈ 0.3–0.8) carries roundoff near 1e-16,
   so the rule can fire.  Every run here converges, in at most 353 sweeps. *)
let global_options init =
  { Cp_als.default_options with init; tol = 1e-13; max_iter = 2000 }

let rank1_weight init t =
  let k, _ = Cp_als.decompose_op ~options:(global_options init) ~rank:1 (Op_tensor.Dense t) in
  Float.abs k.Kruskal.weights.(0)

(* How many cases [weight t] brings within 1e-8 relative of σ*.  A weight
   above σ* beyond roundoff fails at once: the reference would have missed
   the global maximum. *)
let count_reaching weight =
  List.fold_left
    (fun hits (t, sigma_star) ->
      let w = weight t in
      if w > sigma_star *. (1. +. 1e-12) then
        Alcotest.failf "ALS weight %.17g above the reference σ* = %.17g" w sigma_star;
      if Float.abs (w -. sigma_star) <= 1e-8 *. sigma_star then hits + 1 else hits)
    0 (Lazy.force global_cases)

(* Measured: 400 of 400.  Restarts fire only after a failed run, and none
   fails here, so this is the HOSVD start alone. *)
let test_global_from_hosvd () =
  let hits = count_reaching (rank1_weight Cp_als.Hosvd) in
  check_true (Printf.sprintf "HOSVD init reaches σ* in %d of 400 (pinned ≥ 400)" hits)
    (hits >= 400)

(* Measured: 397 of 400.  In the other three, all three starts stop at the
   same local maximum, 12–31 % below σ*. *)
let test_global_best_of_random () =
  let best_of_seeds t =
    List.fold_left (fun acc seed -> Float.max acc (rank1_weight (Cp_als.Random seed) t)) 0.
      [ 1; 2; 3 ]
  in
  let hits = count_reaching best_of_seeds in
  check_true (Printf.sprintf "best of 3 random inits reaches σ* in %d of 400 (pinned ≥ 397)" hits)
    (hits >= 397)

let () =
  Alcotest.run "cp_als"
    [ ( "recovery",
        [ Alcotest.test_case "rank-1 exact" `Quick test_exact_recovery_rank1;
          Alcotest.test_case "rank-2 exact" `Quick test_exact_recovery_rank2;
          Alcotest.test_case "noisy" `Quick test_noisy_recovery;
          Alcotest.test_case "rank > dim" `Quick test_rank_greater_than_dim;
          Alcotest.test_case "rank monotone" `Quick test_higher_rank_fits_better ] );
      ( "internals",
        [ Alcotest.test_case "mttkrp reference" `Quick test_mttkrp_matches_reference;
          Alcotest.test_case "fit monotone" `Quick test_fit_monotone_nondecreasing;
          Alcotest.test_case "random init" `Quick test_random_init;
          Alcotest.test_case "pool-size determinism" `Quick test_pool_size_determinism;
          Alcotest.test_case "degenerate columns zeroed" `Quick
            test_degenerate_columns_zeroed ] );
      ( "global optimum",
        [ Alcotest.test_case "2x2x2 from HOSVD init" `Quick test_global_from_hosvd;
          Alcotest.test_case "2x2x2 best of random inits" `Quick test_global_best_of_random ] );
      ("errors", [ Alcotest.test_case "invalid rank" `Quick test_invalid_rank ]) ]
