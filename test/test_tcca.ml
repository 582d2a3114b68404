open Test_support

(* Three views sharing a skewed latent signal in their first coordinate. *)
let shared_views r ~n ~noise =
  let views = Array.init 3 (fun _ -> Mat.create 4 n) in
  for j = 0 to n - 1 do
    (* Skewed (exponential-ish) latent: third moments are non-zero, so the
       covariance tensor actually carries the signal. *)
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

let test_covariance_tensor_definition () =
  (* C = (1/N) Σ x₁ₙ∘x₂ₙ∘x₃ₙ, checked entry-wise against the definition. *)
  let r = rng () in
  let views = [| random_mat r 2 7; random_mat r 3 7; random_mat r 2 7 |] in
  let c = Tcca.covariance_tensor views in
  let expected i j k =
    let acc = ref 0. in
    for n = 0 to 6 do
      acc := !acc +. (Mat.get views.(0) i n *. Mat.get views.(1) j n *. Mat.get views.(2) k n)
    done;
    !acc /. 7.
  in
  for i = 0 to 1 do
    for j = 0 to 2 do
      for k = 0 to 1 do
        check_float ~eps:1e-10 "entry" (expected i j k) (Tensor.get c [| i; j; k |])
      done
    done
  done

let test_finds_shared_signal () =
  let r = rng () in
  let views = shared_views r ~n:4000 ~noise:0.3 in
  let model = Tcca.fit ~eps:1e-2 ~r:1 views in
  let z0 = Mat.row (Tcca.transform_view model 0 views.(0)) 0 in
  let z1 = Mat.row (Tcca.transform_view model 1 views.(1)) 0 in
  let z2 = Mat.row (Tcca.transform_view model 2 views.(2)) 0 in
  check_true "views 0,1 agree" (Float.abs (Stats.pearson z0 z1) > 0.85);
  check_true "views 0,2 agree" (Float.abs (Stats.pearson z0 z2) > 0.85)

let test_constraint_satisfied () =
  (* Canonical vectors satisfy hᵀ C̃pp h = 1 (Eq. 4.8). *)
  let r = rng () in
  let views = shared_views r ~n:1000 ~noise:0.5 in
  let eps = 1e-2 in
  let model = Tcca.fit ~eps ~r:2 views in
  let hs = Tcca.canonical_vectors model in
  let centered = fst (Preprocess.center_views views) in
  Array.iteri
    (fun p h ->
      let cpp =
        Mat.add_scaled_identity eps (Mat.scale (1. /. 1000.) (Mat.gram centered.(p)))
      in
      for k = 0 to 1 do
        let hk = Mat.col h k in
        check_float ~eps:1e-6
          (Printf.sprintf "constraint view %d comp %d" p k)
          1.
          (Vec.dot hk (Mat.mul_vec cpp hk))
      done)
    hs

let test_correlation_is_multilinear_form () =
  (* λ₀ must equal M ×₁u₁ᵀ×₂u₂ᵀ×₃u₃ᵀ at the fitted (whitened) directions —
     i.e. the high-order canonical correlation of Theorem 1/2. *)
  let r = rng () in
  let views = shared_views r ~n:800 ~noise:0.4 in
  let eps = 1e-2 in
  let model = Tcca.fit ~eps ~r:1 views in
  let hs = Tcca.canonical_vectors model in
  (* ρ = C ×ₚ hₚᵀ on the *unwhitened* centered covariance tensor. *)
  let centered = fst (Preprocess.center_views views) in
  let c = Tcca.covariance_tensor centered in
  let rho = Tensor.multilinear_form c (Array.map (fun h -> Mat.col h 0) hs) in
  check_float ~eps:1e-6 "lambda = canonical correlation"
    (Float.abs (Tcca.correlations model).(0))
    (Float.abs rho)

let test_two_views_matches_cca () =
  (* For m = 2 the best rank-1 of the whitened covariance matrix is the top
     canonical pair: TCCA and CCA must agree. *)
  let r = rng () in
  let views3 = shared_views r ~n:3000 ~noise:0.3 in
  let views = [| views3.(0); views3.(1) |] in
  let tcca = Tcca.fit ~eps:1e-3 ~r:1 views in
  let cca = Cca.fit ~eps:1e-3 ~r:1 views.(0) views.(1) in
  let zt = Mat.row (Tcca.transform_view tcca 0 views.(0)) 0 in
  let zc = Mat.row (Cca.transform1 cca views.(0)) 0 in
  check_true "TCCA(m=2) = CCA" (Float.abs (Stats.pearson zt zc) > 0.999);
  check_float ~eps:0.01 "correlation value matches"
    (Cca.correlations cca).(0)
    (Float.abs (Tcca.correlations tcca).(0))

let test_prepare_fit_consistency () =
  let r = rng () in
  let views = shared_views r ~n:500 ~noise:0.5 in
  let direct = Tcca.fit ~eps:1e-2 ~r:2 views in
  let prepared = Tcca.fit_prepared ~r:2 (Tcca.prepare ~eps:1e-2 views) in
  check_vec ~eps:1e-12 "same correlations" (Tcca.correlations direct)
    (Tcca.correlations prepared);
  check_mat ~eps:1e-12 "same transform" (Tcca.transform direct views)
    (Tcca.transform prepared views)

let test_transform_shapes () =
  let r = rng () in
  let views = shared_views r ~n:60 ~noise:0.5 in
  let model = Tcca.fit ~r:2 views in
  Alcotest.(check int) "r" 2 (Tcca.r model);
  Alcotest.(check int) "views" 3 (Tcca.n_views model);
  Alcotest.(check (pair int int)) "m·r × N" (6, 60) (Mat.dims (Tcca.transform model views));
  Alcotest.(check (pair int int)) "view block" (2, 60)
    (Mat.dims (Tcca.transform_view model 1 views.(1)))

let test_r_clamped () =
  let r = rng () in
  let views = shared_views r ~n:50 ~noise:0.5 in
  Alcotest.(check int) "clamped to min dim" 4 (Tcca.r (Tcca.fit ~r:100 views))

(* The ablation solvers run on [Tcca.whitened_tensor], where a fit's
   factors uₚ live: each view's leading factor of [k] must match the rank-1
   fit's uₚ up to sign, |cos| > [min_cos]. *)
let check_same_component ~min_cos name model (k : Kruskal.t) =
  Array.iteri
    (fun p u ->
      check_true
        (Printf.sprintf "%s (view %d)" name p)
        (Float.abs (Vec.dot (Mat.col u 0) (Mat.col k.Kruskal.factors.(p) 0)) > min_cos))
    (Tcca.to_parts model).Tcca.pt_factors

let test_solver_power_deflation () =
  let r = rng () in
  let views = shared_views r ~n:2000 ~noise:0.3 in
  let power = Tensor_power.decompose ~rank:1 (Tcca.whitened_tensor views) in
  check_same_component ~min_cos:0.99 "solvers agree on rank-1" (Tcca.fit ~r:1 views) power

let test_correlations_sorted () =
  let r = rng () in
  let views = shared_views r ~n:800 ~noise:0.5 in
  let c = Tcca.correlations (Tcca.fit ~r:3 views) in
  for i = 1 to 2 do
    check_true "descending magnitude" (Float.abs c.(i) <= Float.abs c.(i - 1) +. 1e-9)
  done

let test_builder_matches_batch_fit () =
  (* Streaming accumulation over batches must reproduce the one-shot fit on
     the concatenated data exactly. *)
  let r = rng () in
  let views = shared_views r ~n:400 ~noise:0.4 in
  let slice lo len = Array.map (fun v -> Mat.sub_cols v lo len) views in
  let builder = Tcca.Builder.create ~dims:(Array.map (fun v -> fst (Mat.dims v)) views) in
  Tcca.Builder.add_batch builder (slice 0 150);
  Tcca.Builder.add_batch builder (slice 150 100);
  Tcca.Builder.add_batch builder (slice 250 150);
  Alcotest.(check int) "count" 400 (Tcca.Builder.count builder);
  let streamed =
    Tcca.fit_prepared ~r:2 (Tcca.prepare_of_raw ~eps:1e-2 (Tcca.Builder.finalize builder))
  in
  let direct = Tcca.fit ~eps:1e-2 ~r:2 views in
  check_vec ~eps:1e-8 "same correlations" (Tcca.correlations direct)
    (Tcca.correlations streamed);
  check_mat ~eps:1e-6 "same embedding" (Tcca.transform direct views)
    (Tcca.transform streamed views)

let test_builder_four_views () =
  (* Centering inside the whitening products is generic in the number of
     views. *)
  let r = rng () in
  let n = 120 in
  let views = Array.init 4 (fun _ -> Mat.create 3 n) in
  for j = 0 to n - 1 do
    let s = Float.abs (Rng.gaussian r) in
    Array.iter
      (fun v ->
        Mat.set v 0 j (s +. (0.3 *. Rng.gaussian r));
        Mat.set v 1 j (1. +. Rng.gaussian r);
        Mat.set v 2 j (Rng.gaussian r))
      views
  done;
  let builder = Tcca.Builder.create ~dims:[| 3; 3; 3; 3 |] in
  Tcca.Builder.add_batch builder (Array.map (fun v -> Mat.sub_cols v 0 50) views);
  Tcca.Builder.add_batch builder (Array.map (fun v -> Mat.sub_cols v 50 70) views);
  let streamed =
    Tcca.fit_prepared ~r:1 (Tcca.prepare_of_raw ~eps:1e-2 (Tcca.Builder.finalize builder))
  in
  let direct = Tcca.fit ~eps:1e-2 ~r:1 views in
  check_float ~eps:1e-8 "4-view correlation matches"
    (Float.abs (Tcca.correlations direct).(0))
    (Float.abs (Tcca.correlations streamed).(0))

(* Streamed fits over random shapes: m ∈ 2..5 views of 1–6 dims with
   non-zero means and a shared skewed signal, split at random into batches
   that include single columns.  The streamed fit matches the batch fit on
   the concatenation, and is bitwise the same at pools 1 and 4. *)
let gen_stream_case = QCheck2.Gen.(triple (int_range 2 5) (int_range 40 120) nat)

let stream_views (m, n, seed) =
  let r = Rng.create (seed + 1) in
  let dims = Array.init m (fun _ -> 1 + Rng.int r 6) in
  let means = Array.map (fun d -> Array.init d (fun _ -> (4. *. Rng.uniform r) -. 2.)) dims in
  let views = Array.map (fun d -> Mat.create d n) dims in
  for j = 0 to n - 1 do
    let s = -.log (Float.max 1e-12 (Rng.uniform r)) -. 1. in
    Array.iteri
      (fun p v ->
        for i = 0 to dims.(p) - 1 do
          let signal = if i = 0 then s else 0. in
          Mat.set v i j (means.(p).(i) +. signal +. (0.4 *. Rng.gaussian r))
        done)
      views
  done;
  (* The first batch is one column; after it, a third of the batches. *)
  let rec split lo acc =
    if lo >= n then List.rev acc
    else
      let len = if lo = 0 || Rng.int r 3 = 0 then 1 else 1 + Rng.int r (max 1 (n / 4)) in
      let len = min len (n - lo) in
      split (lo + len) (Array.map (fun v -> Mat.sub_cols v lo len) views :: acc)
  in
  (dims, views, split 0 [])

let streamed_fit dims batches =
  let b = Tcca.Builder.create ~dims in
  List.iter (Tcca.Builder.add_batch b) batches;
  Tcca.fit_prepared ~r:1 (Tcca.prepare_of_raw ~eps:1e-2 (Tcca.Builder.finalize b))

let prop_builder_streams_any_split =
  qtest ~count:40 "streamed = batch fit (1e-8), bitwise at pools 1 and 4" gen_stream_case
    (fun case ->
      let dims, views, batches = stream_views case in
      let at size = with_pool size (fun () -> streamed_fit dims batches) in
      let s1 = at 1 and s4 = at 4 in
      let direct = Tcca.fit ~eps:1e-2 ~r:1 views in
      let lambda m = Float.abs (Tcca.correlations m).(0) in
      Float.abs (lambda direct -. lambda s1) <= 1e-8
      && Array.for_all2 same_bits (Tcca.correlations s1) (Tcca.correlations s4)
      && Array.for_all2 bits_equal (Tcca.projections s1) (Tcca.projections s4))

(* One batch is folded in place: 4 views at d = 40, batch 8, allocate far
   less than T̃'s 41⁴ floats (≈ 22.6 MB) — the 4 MiB Khatri–Rao block and
   the augmented batch, never a second moment tensor. *)
let test_builder_add_batch_allocation () =
  let d = 40 and batch = 8 in
  let r = rng () in
  let views = Array.init 4 (fun _ -> random_mat r d batch) in
  let b = Tcca.Builder.create ~dims:(Array.make 4 d) in
  with_pool 1 (fun () ->
      let before = Gc.allocated_bytes () in
      Tcca.Builder.add_batch b views;
      let allocated = Gc.allocated_bytes () -. before in
      let moment = 8. *. (float_of_int (d + 1) ** 4.) in
      check_true
        (Printf.sprintf "allocated %.0f bytes < T̃ (%.0f)" allocated moment)
        (allocated < moment))

(* [finalize] reads T̃ without consuming it: a raw taken mid-stream is not
   moved by later batches and serves several ε, and the builder keeps
   folding as if it had not been finalized. *)
let test_builder_finalize_mid_stream () =
  let r = rng () in
  let views = shared_views r ~n:200 ~noise:0.4 in
  let dims = Array.map (fun v -> fst (Mat.dims v)) views in
  let first = Array.map (fun v -> Mat.sub_cols v 0 80) views
  and rest = Array.map (fun v -> Mat.sub_cols v 80 120) views in
  let builder batches =
    let b = Tcca.Builder.create ~dims in
    List.iter (Tcca.Builder.add_batch b) batches;
    b
  in
  let fit ?(eps = 1e-2) raw =
    Tcca.projections (Tcca.fit_prepared ~r:2 (Tcca.prepare_of_raw ~eps raw))
  in
  let same = Array.for_all2 bits_equal in
  let b = builder [ first ] in
  let early = Tcca.Builder.finalize b in
  Tcca.Builder.add_batch b rest;
  Alcotest.(check int) "count" 200 (Tcca.Builder.count b);
  let late = Tcca.Builder.finalize b in
  let early_fit = fit early in
  check_true "early raw = the first batch alone (bitwise)"
    (same early_fit (fit (Tcca.Builder.finalize (builder [ first ]))));
  ignore (fit ~eps:1e-1 early);
  check_true "a raw serves several ε (bitwise)" (same early_fit (fit early));
  check_true "late raw = no intermediate finalize (bitwise)"
    (same (fit late) (fit (Tcca.Builder.finalize (builder [ first; rest ]))))

(* --- The solve stage shared with KTCCA. --- *)

(* Every message [Tcca.solve] raises or logs names the caller it is given. *)
let test_solve_names_caller () =
  let r = rng () in
  let op = Op_tensor.Dense (random_tensor r [| 3; 4; 2 |]) in
  Alcotest.check_raises "rank" (Invalid_argument "Ktcca.fit_prepared: r must be >= 1")
    (fun () -> ignore (Tcca.solve ~caller:"Ktcca" ~r:0 op));
  let warned needle = List.exists (fun w -> contains w needle) (Robust.recent_warnings ()) in
  (* A budget expiry returns the model, the diagnostic in its note. *)
  Robust.clear_warnings ();
  (match Tcca.solve ~caller:"Ktcca" ~budget:(Budget.create ~sweeps:0 ()) ~r:5 op with
  | Ok (k, note) ->
    Alcotest.(check int) "r clamped to the smallest mode" 2 (Kruskal.rank k);
    check_true "note reports the deadline" (contains note "deadline exceeded");
    check_true "best-so-far warning, named" (warned "Ktcca.fit: deadline exceeded")
  | Error e -> Alcotest.failf "a deadline is not an error: %s" (Robust.failure_to_string e));
  Robust.clear_warnings ()

let test_solver_sampled_als () =
  let r = rng () in
  let views = shared_views r ~n:2000 ~noise:0.3 in
  let sampled, _ = Cp_rand.decompose ~rank:1 (Tcca.whitened_tensor ~eps:1e-2 views) in
  check_same_component ~min_cos:0.95 "sampled ALS finds the ALS component"
    (Tcca.fit ~eps:1e-2 ~r:1 views) sampled

(* --- What [correlations] returns, on both routes at pools 1 and 4. --- *)

(* Per-component correlation of the projected training views,
   cₖ = (1/N) Σₙ ∏ₚ zₚₖₙ. *)
let component_correlations model views =
  let zs = Array.mapi (Tcca.transform_view model) views in
  let r, n = Mat.dims zs.(0) in
  Array.init r (fun k ->
      let acc = ref 0. in
      for i = 0 to n - 1 do
        acc := !acc +. Array.fold_left (fun prod z -> prod *. Mat.get z k i) 1. zs
      done;
      !acc /. float_of_int n)

(* (⊛ₚ UₚᵀUₚ) λ over the whitened-space factors. *)
let gram_weighted_correlations model =
  let parts = Tcca.to_parts model in
  let r = Array.length parts.Tcca.pt_correlations in
  let gram =
    Array.fold_left
      (fun acc u -> Mat.map2 ( *. ) acc (Mat.tgram u))
      (Mat.make r r 1.) parts.Tcca.pt_factors
  in
  Mat.mul_vec gram parts.Tcca.pt_correlations

(* Worst |hᵀC̃ₚₚh − 1| over the canonical vectors, C̃ₚₚ = (1/N) X̄ₚX̄ₚᵀ + εI. *)
let normalization_error ~eps model views =
  let centered = fst (Preprocess.center_views views) in
  let worst = ref 0. in
  Array.iteri
    (fun p h ->
      let x = centered.(p) in
      let cov =
        Mat.add_scaled_identity eps (Mat.scale (1. /. float_of_int (snd (Mat.dims x))) (Mat.gram x))
      in
      let g = Mat.mul_tn h (Mat.mul cov h) in
      for k = 0 to snd (Mat.dims h) - 1 do
        worst := Float.max !worst (Float.abs (Mat.get g k k -. 1.))
      done)
    (Tcca.canonical_vectors model);
  !worst

let max_abs_diff a b =
  Array.fold_left Float.max 0. (Array.map2 (fun x y -> Float.abs (x -. y)) a b)

(* [check ()] on both pinned routes at pools 1 and 4. *)
let every_route_and_pool check =
  List.for_all
    (fun route ->
      List.for_all (fun size -> with_pool size (fun () -> with_route route check)) [ 1; 4 ])
    [ `Dense; `Factored ]

(* [check model] on a fit of both routes at pools 1 and 4. *)
let on_every_route ~r views check =
  every_route_and_pool (fun () -> check (Tcca.fit ~eps:1e-2 ~r views))

let gen_fit_case = QCheck2.Gen.(triple (int_range 1 4) (int_range 100 200) (int_bound 1_000_000))

let prop_rank1_weight_is_correlation =
  qtest ~count:4 "r = 1: λ is the projected views' correlation (both routes, pools 1 and 4)"
    gen_fit_case (fun (_, n, seed) ->
      let views = shared_views (Rng.create seed) ~n ~noise:0.5 in
      on_every_route ~r:1 views (fun model ->
          max_abs_diff (component_correlations model views) (Tcca.correlations model)
          <= 1e-12))

let prop_correlations_normal_equation =
  qtest ~count:6 "c = (⊛ₚ UₚᵀUₚ) λ at every r (both routes, pools 1 and 4)" gen_fit_case
    (fun (r, n, seed) ->
      let views = shared_views (Rng.create seed) ~n ~noise:0.5 in
      on_every_route ~r views (fun model ->
          let c = component_correlations model views in
          let scale = Array.fold_left (fun acc l -> Float.max acc (Float.abs l)) 1. c in
          max_abs_diff c (gram_weighted_correlations model) <= 1e-12 *. scale))

let prop_canonical_vectors_normalized =
  qtest ~count:4 "hₚᵀC̃ₚₚhₚ = 1 (both routes, pools 1 and 4)" gen_fit_case
    (fun (r, n, seed) ->
      let views = shared_views (Rng.create seed) ~n ~noise:0.5 in
      on_every_route ~r views (fun model -> normalization_error ~eps:1e-2 model views <= 1e-9))

(* --- The fit, replayed: the staged entry points and the operator rebuilt
   from public calls reproduce [Tcca.fit] bit for bit. --- *)

let same_model a b =
  let pa = Tcca.to_parts a and pb = Tcca.to_parts b in
  Array.for_all2 (Array.for_all2 same_bits) pa.Tcca.pt_means pb.Tcca.pt_means
  && Array.for_all2 bits_equal pa.Tcca.pt_projections pb.Tcca.pt_projections
  && Array.for_all2 bits_equal pa.Tcca.pt_factors pb.Tcca.pt_factors
  && Array.for_all2 same_bits pa.Tcca.pt_correlations pb.Tcca.pt_correlations
  && String.equal pa.Tcca.pt_note pb.Tcca.pt_note

(* M rebuilt from public calls: the centered views, their whiteners
   (Cₚₚ + εI)^{−1/2}, the factored operator over the whitened views, and the
   route it takes. *)
let replayed_operator ~eps views =
  let xs = Array.map (fun v -> Mat.sub_col_vec v (Mat.row_means v)) views in
  let n = snd (Mat.dims xs.(0)) in
  let whiten x =
    Matfun.inv_sqrt_psd
      (Mat.add_scaled_identity eps (Mat.scale (1. /. float_of_int n) (Mat.gram x)))
  in
  let zs = Array.map (fun x -> Mat.mul (whiten x) x) xs in
  match
    Op_tensor.route ~stage:"test" ~where:"replay"
      (Op_tensor.factored ~weight:(1. /. float_of_int n) zs)
  with
  | Ok op -> op
  | Error e -> Alcotest.failf "replayed route: %s" (Robust.failure_to_string e)

let prop_staged_equals_fit =
  qtest ~count:4 "staged = fit, bitwise (both routes, pools 1 and 4)" gen_fit_case
    (fun (r, n, seed) ->
      let views = shared_views (Rng.create seed) ~n ~noise:0.5 in
      every_route_and_pool (fun () ->
          let staged =
            Tcca.fit_prepared ~r (Tcca.prepare_of_raw ~eps:1e-2 (Tcca.prepare_raw views))
          in
          same_model staged (Tcca.fit ~eps:1e-2 ~r views)))

let prop_replay_equals_fit =
  qtest ~count:4 "replay = fit: Cp_als on the rebuilt M, bitwise (both routes, pools 1 and 4)"
    gen_fit_case (fun (r, n, seed) ->
      let views = shared_views (Rng.create seed) ~n ~noise:0.5 in
      every_route_and_pool (fun () ->
          let k, _ = Cp_als.decompose_op ~rank:r (replayed_operator ~eps:1e-2 views) in
          let fit = Tcca.fit ~eps:1e-2 ~r views in
          Array.for_all2 bits_equal k.Kruskal.factors (Tcca.to_parts fit).Tcca.pt_factors))

(* --- The paper's theory, checked on fits. --- *)

(* Worst ‖M(·, u_q≠k) − λuₖ‖ over the modes k of a rank-1 model. *)
let stationarity_residual op model =
  let parts = Tcca.to_parts model in
  let lambda = parts.Tcca.pt_correlations.(0) in
  let us = parts.Tcca.pt_factors in
  let worst = ref 0. in
  Array.iteri
    (fun k u ->
      let v = Mat.col (Op_tensor.mttkrp op us k) 0 in
      worst := Float.max !worst (Vec.norm (Vec.sub v (Vec.scale lambda (Mat.col u 0)))))
    us;
  !worst

let test_rank1_stationarity () =
  let r = rng () in
  let views = shared_views r ~n:1500 ~noise:0.4 in
  let tol = Cp_als.default_options.Cp_als.tol in
  check_true "both routes"
    (every_route_and_pool (fun () ->
         let model = Tcca.fit ~eps:1e-2 ~r:1 views in
         let res = stationarity_residual (replayed_operator ~eps:1e-2 views) model in
         contains (Tcca.solver_info model) "converged true" && res <= 10. *. tol))

let sin_angle h a =
  let c = Vec.dot h a /. (Vec.norm h *. Vec.norm a) in
  sqrt (Float.max 0. (1. -. (c *. c)))

let test_statistical_rate () =
  let loadings =
    [| [| 1.; 0.5; -0.5; 0. |]; [| 0.; 1.; 1.; 0.5 |]; [| -0.5; 0.; 1.; 1. |] |]
  in
  let ns = [| 1_000; 4_000; 16_000; 64_000 |] in
  let error n =
    Stats.median
      (Array.init 5 (fun rep ->
           let views = planted_views (Rng.create ((1000 * rep) + n)) ~loadings ~noise:1. ~n in
           let hs = Tcca.canonical_vectors (Tcca.fit ~eps:1e-2 ~r:1 views) in
           Stats.mean (Array.mapi (fun p h -> sin_angle (Mat.col h 0) loadings.(p)) hs)))
  in
  (* The least-squares slope of log error on log N. *)
  let xs = Array.map (fun n -> log (float_of_int n)) ns in
  let ys = Array.map (fun n -> log (error n)) ns in
  let slope = Stats.pearson xs ys *. Stats.std ys /. Stats.std xs in
  check_true
    (Printf.sprintf "log-log slope %.3f in [-0.7, -0.3]" slope)
    (slope >= -0.7 && slope <= -0.3)

(* Near a perfect fit the ALS fit jitters by ≈ 1e-8 between sweeps while the
   model stays put.  With two views, one of dimension 1, M is exactly rank
   1; at a tol far below that jitter the solver may run to max_iter, but it
   must not read the jitter as a swamp.  These eight cases of the streaming
   generator were refused as [Not_converged] after 30 sweeps while the
   floor sat at 1e-12. *)
let test_perfect_fit_is_no_swamp () =
  let solver = Tcca.Als { Cp_als.default_options with tol = 1e-13; max_iter = 400 } in
  List.iter
    (fun (n, seed) ->
      let _, views, _ = stream_views (2, n, seed) in
      match Tcca.fit_checked ~solver ~r:1 views with
      | Ok model -> check_true "fit ≈ 1" (contains (Tcca.solver_info model) "fit 1.000000")
      | Error e ->
        Alcotest.failf "n %d seed %d: exactly rank-1 M refused: %s" n seed
          (Robust.failure_to_string e))
    [ (40, 65); (40, 233); (80, 209); (80, 357); (120, 8); (120, 183); (120, 207); (120, 428) ]

(* A tall view is whitened exactly: dₚ = 600 with a covariance of rank
   299, above the 256 directions a sketched whitener would keep. *)
let test_tall_view_whitened_exactly () =
  let r = rng () in
  let n = 300 in
  let views = [| random_mat r 600 n; random_mat r 3 n; random_mat r 3 n |] in
  let model = Tcca.fit ~eps:1e-2 ~r:2 views in
  let e = normalization_error ~eps:1e-2 model views in
  check_true (Printf.sprintf "worst |hᵀC̃h − 1| = %.3g ≤ 1e-9" e) (e <= 1e-9)

let test_builder_errors () =
  Alcotest.check_raises "one view" (Invalid_argument "Tcca.Builder.create: need at least two views")
    (fun () -> ignore (Tcca.Builder.create ~dims:[| 3 |]));
  let b = Tcca.Builder.create ~dims:[| 2; 2 |] in
  Alcotest.check_raises "empty finalize" (Invalid_argument "Tcca.Builder.finalize: no instances")
    (fun () -> ignore (Tcca.Builder.finalize b))

(* Checked before anything is folded: a refused batch, like an empty one,
   leaves the builder as it was. *)
let test_builder_add_batch_errors () =
  let r = rng () in
  let b = Tcca.Builder.create ~dims:[| 2; 3 |] in
  Alcotest.check_raises "view count" (Invalid_argument "Tcca.Builder.add_batch: view count mismatch")
    (fun () -> Tcca.Builder.add_batch b [| random_mat r 2 4 |]);
  Alcotest.check_raises "dimension" (Invalid_argument "Tcca.Builder.add_batch: dimension mismatch")
    (fun () -> Tcca.Builder.add_batch b [| random_mat r 2 4; random_mat r 2 4 |]);
  Alcotest.check_raises "instance count"
    (Invalid_argument "Tcca.Builder.add_batch: instance count mismatch") (fun () ->
      Tcca.Builder.add_batch b [| random_mat r 2 4; random_mat r 3 5 |]);
  Tcca.Builder.add_batch b [| Mat.create 2 0; Mat.create 3 0 |];
  Alcotest.(check int) "nothing absorbed" 0 (Tcca.Builder.count b);
  let batch = [| random_mat r 2 6; random_mat r 3 6 |] in
  Tcca.Builder.add_batch b batch;
  let fresh = Tcca.Builder.create ~dims:[| 2; 3 |] in
  Tcca.Builder.add_batch fresh batch;
  let fit b =
    Tcca.projections
      (Tcca.fit_prepared ~r:1 (Tcca.prepare_of_raw ~eps:1e-2 (Tcca.Builder.finalize b)))
  in
  check_true "state untouched (bitwise)" (Array.for_all2 bits_equal (fit fresh) (fit b))

let test_errors () =
  let r = rng () in
  Alcotest.check_raises "one view" (Invalid_argument "Tcca.prepare: need at least two views")
    (fun () -> ignore (Tcca.fit ~r:1 [| random_mat r 3 5 |]));
  Alcotest.check_raises "instance mismatch"
    (Invalid_argument "Tcca.prepare: instance count mismatch") (fun () ->
      ignore (Tcca.fit ~r:1 [| random_mat r 3 5; random_mat r 3 6 |]))

let () =
  Alcotest.run "tcca"
    [ ( "theory",
        [ Alcotest.test_case "covariance tensor" `Quick test_covariance_tensor_definition;
          Alcotest.test_case "constraint (Eq 4.8)" `Quick test_constraint_satisfied;
          Alcotest.test_case "correlation = multilinear form" `Quick
            test_correlation_is_multilinear_form;
          Alcotest.test_case "m=2 reduces to CCA" `Quick test_two_views_matches_cca;
          Alcotest.test_case "rank-1 stationarity (both routes)" `Quick test_rank1_stationarity;
          Alcotest.test_case "statistical rate N^-1/2" `Quick test_statistical_rate ] );
      ( "behaviour",
        [ Alcotest.test_case "shared signal" `Quick test_finds_shared_signal;
          Alcotest.test_case "solver agreement" `Quick test_solver_power_deflation;
          Alcotest.test_case "sorted correlations" `Quick test_correlations_sorted ] );
      ( "interface",
        [ Alcotest.test_case "prepare/fit" `Quick test_prepare_fit_consistency;
          Alcotest.test_case "shapes" `Quick test_transform_shapes;
          Alcotest.test_case "clamping" `Quick test_r_clamped;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "tall view whitened exactly" `Quick test_tall_view_whitened_exactly;
          Alcotest.test_case "perfect fit is no swamp" `Quick test_perfect_fit_is_no_swamp ] );
      ( "streaming",
        [ Alcotest.test_case "builder = batch fit" `Quick test_builder_matches_batch_fit;
          Alcotest.test_case "four views" `Quick test_builder_four_views;
          Alcotest.test_case "builder errors" `Quick test_builder_errors;
          prop_builder_streams_any_split;
          Alcotest.test_case "add_batch allocates less than T̃" `Quick
            test_builder_add_batch_allocation;
          Alcotest.test_case "finalize mid-stream" `Quick test_builder_finalize_mid_stream;
          Alcotest.test_case "add_batch errors" `Quick test_builder_add_batch_errors ] );
      ( "solve",
        [ Alcotest.test_case "messages name the caller" `Quick test_solve_names_caller ] );
      ( "sketched",
        [ Alcotest.test_case "sampled ALS solver" `Quick test_solver_sampled_als ] );
      ( "replay",
        [ prop_staged_equals_fit; prop_replay_equals_fit ] );
      ( "correlations",
        [ prop_rank1_weight_is_correlation;
          prop_correlations_normal_equation;
          prop_canonical_vectors_normalized ] ) ]
