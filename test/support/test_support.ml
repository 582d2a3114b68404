(* Shared helpers for the alcotest/qcheck suites. *)

(* Test-only oracles, one file each in this directory. *)
module Lu = Lu
module Cca_maxvar = Cca_maxvar

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_true msg condition = Alcotest.(check bool) msg true condition

(* Whether [needle] occurs in [hay] — for warnings and solver notes. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check_mat ?(eps = 1e-9) msg expected actual =
  if not (Mat.equal ~eps expected actual) then
    Alcotest.failf "%s:@ expected@ %a@ got@ %a" msg Mat.pp expected Mat.pp actual

let check_vec ?(eps = 1e-9) msg expected actual =
  if not (Vec.equal ~eps expected actual) then
    Alcotest.failf "%s: vectors differ beyond %g" msg eps

let check_tensor ?(eps = 1e-9) msg expected actual =
  if not (Tensor.equal ~eps expected actual) then Alcotest.failf "%s: tensors differ" msg

(* Deterministic random inputs for tests. *)
let rng () = Rng.create 0xC0FFEE

let random_vec rng n = Array.init n (fun _ -> Rng.gaussian rng)
let random_mat rng rows cols = Mat.init rows cols (fun _ _ -> Rng.gaussian rng)

let random_spd rng n =
  (* AᵀA + I is comfortably positive definite. *)
  let a = random_mat rng n n in
  Mat.add_scaled_identity 1. (Mat.tgram a)

let random_tensor rng dims = Tensor.init dims (fun _ -> Rng.gaussian rng)

let random_orthonormal rng n k = Qr.q_thin (Qr.decompose (random_mat rng n k))

(* qcheck generators; sizes kept small so property tests stay fast. *)
let small_dim = QCheck2.Gen.int_range 1 8

let gen_vec =
  QCheck2.Gen.(small_dim >>= fun n -> array_size (return n) (float_range (-10.) 10.))

let gen_mat =
  QCheck2.Gen.(
    pair (int_range 1 8) (int_range 1 8) >>= fun (r, c) ->
    array_size (return (r * c)) (float_range (-10.) 10.) >|= fun data ->
    Mat.unsafe_of_flat ~rows:r ~cols:c data)

let gen_square_mat =
  QCheck2.Gen.(
    int_range 1 8 >>= fun n ->
    array_size (return (n * n)) (float_range (-10.) 10.) >|= fun data ->
    Mat.unsafe_of_flat ~rows:n ~cols:n data)

let gen_spd =
  QCheck2.Gen.(gen_square_mat >|= fun a -> Mat.add_scaled_identity 1. (Mat.tgram a))

let gen_tensor3 =
  QCheck2.Gen.(
    triple (int_range 1 5) (int_range 1 5) (int_range 1 5) >>= fun (a, b, c) ->
    array_size (return (a * b * c)) (float_range (-5.) 5.) >|= fun data ->
    Tensor.of_flat [| a; b; c |] data)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* Bitwise equality, for the kernels' bitwise contracts. *)
let same_bits x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
let bits_equal x y = Mat.dims x = Mat.dims y && Array.for_all2 same_bits x.Mat.data y.Mat.data

(* Run [f] on a pool of [size] domains with the sequential cutoff at 0, so
   even tiny inputs take the parallel paths; the previous settings are
   restored afterwards. *)
let with_pool size f =
  let d0 = Parallel.num_domains () and c0 = Parallel.sequential_cutoff () in
  Parallel.set_num_domains size;
  Parallel.set_sequential_cutoff 0;
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_num_domains d0;
      Parallel.set_sequential_cutoff c0)
    f

(* Run [f] with every dense product pinned to one route through the
   small-product cutoff: [`Naive] sets it to [max_int], so [Mat]'s plain
   loops run on every shape; [`Microkernel] sets it to [small_cutoff]
   (default 0, so the packed microkernel runs even on tiny shapes).  The
   previous cutoff is restored afterwards. *)
let with_impl ?(small_cutoff = 0) impl f =
  let cutoff = Gemm.small_cutoff () in
  Gemm.set_small_cutoff
    (match impl with `Naive -> max_int | `Microkernel -> small_cutoff);
  Fun.protect ~finally:(fun () -> Gemm.set_small_cutoff cutoff) f

(* Run [f] with every whitened operator pinned to one representation
   ([`Dense] or [`Factored]) through [Op_tensor.pin_route]; the previous pin
   is restored afterwards, also when [f] raises. *)
let with_route route f =
  let saved = Op_tensor.pinned_route () in
  Op_tensor.pin_route (Some route);
  Fun.protect ~finally:(fun () -> Op_tensor.pin_route saved) f

(* ------------------------------------------------------------------ *)
(* Reference products and matrix functions, built on the public
   factorizations: the tests check the library's routes against them. *)

(* V diag(f λᵢ) Vᵀ from an eigendecomposition. *)
let of_spectrum f { Eigen.values; vectors } =
  let n, k = Mat.dims vectors in
  Mat.mul_nt (Mat.init n k (fun i j -> Mat.get vectors i j *. f values.(j))) vectors

let eigen_reconstruct eig = of_spectrum Fun.id eig

(* V diag(f λᵢ) Vᵀ for symmetric [a]. *)
let apply_spectral f a = of_spectrum f (Eigen.decompose a)

(* U diag(σ) Vᵀ. *)
let svd_reconstruct { Svd.u; sigma; v } =
  let m, k = Mat.dims u in
  let scaled = Mat.init m k (fun i j -> Mat.get u i j *. sigma.(j)) in
  Mat.mul_nt scaled v

let svd_nuclear_norm { Svd.sigma; _ } = Vec.sum sigma

(* Numerical rank: the count of σᵢ > 1e-10·σ₀. *)
let svd_rank { Svd.sigma; _ } =
  if Array.length sigma = 0 || sigma.(0) = 0. then 0
  else Array.fold_left (fun acc s -> if s > 1e-10 *. sigma.(0) then acc + 1 else acc) 0 sigma

(* [Error Non_finite] on a NaN/Inf input, [Error Not_converged] on a sweep
   cap hit. *)
let svd_decompose_checked a =
  let stage = "svd" in
  if not (Mat.all_finite a) then Error (Robust.Non_finite { stage; where = "input matrix" })
  else begin
    let svd, info = Svd.decompose_info a in
    if info.Svd.converged then Ok svd
    else
      Error
        (Robust.Not_converged { stage; sweeps = info.Svd.sweeps; residual = info.Svd.residual })
  end

(* Symmetric square root; negative eigenvalues from roundoff clamp to 0. *)
let sqrt_psd a = apply_spectral (fun l -> sqrt (Float.max l 0.)) a

(* Moore–Penrose pseudo-inverse through the SVD; singular values below
   1e-12·σ₀ are dropped. *)
let pinv a =
  let { Svd.u; sigma; v } = Svd.decompose a in
  let s0 = if Array.length sigma = 0 then 0. else sigma.(0) in
  let n, k = Mat.dims v in
  let scaled =
    Mat.init n k (fun i j ->
        if sigma.(j) > 1e-12 *. s0 && sigma.(j) > 0. then Mat.get v i j /. sigma.(j) else 0.)
  in
  Mat.mul_nt scaled u

let cholesky_inverse f =
  let n, _ = Mat.dims (Cholesky.lower f) in
  Cholesky.solve f (Mat.identity n)

(* log det A = 2·Σ log gᵢᵢ for A = G Gᵀ. *)
let cholesky_log_det f =
  let g = Cholesky.lower f in
  let acc = ref 0. in
  for i = 0 to fst (Mat.dims g) - 1 do
    acc := !acc +. log (Mat.get g i i)
  done;
  2. *. !acc

(* The inverse of [Unfold.unfold]: the entry (i_0, …, i_{m-1}) sits in
   column Σ_{q≠k} i_q·J_q with J_q = Π_{p<q, p≠k} dims.(p). *)
let refold mat dims k =
  let m = Array.length dims in
  if k < 0 || k >= m then invalid_arg "refold: bad mode";
  let rows, cols = Mat.dims mat in
  if rows <> dims.(k) || cols * rows <> Array.fold_left ( * ) 1 dims then
    invalid_arg "refold: shape mismatch";
  let jstr = Array.make m 0 in
  let acc = ref 1 in
  for q = 0 to m - 1 do
    if q <> k then begin
      jstr.(q) <- !acc;
      acc := !acc * dims.(q)
    end
  done;
  Tensor.init dims (fun idx ->
      let col = ref 0 in
      for q = 0 to m - 1 do
        if q <> k then col := !col + (idx.(q) * jstr.(q))
      done;
      Mat.get mat idx.(k) !col)

(* The k-mode product as [refold (U · unfold)] (paper Eq. 4.3): the
   reference for [Tensor.mode_product]. *)
let mode_product_via_unfold a k u =
  let dims = Array.copy a.Tensor.dims in
  dims.(k) <- fst (Mat.dims u);
  refold (Mat.mul u (Unfold.unfold a k)) dims k

(* ------------------------------------------------------------------ *)
(* Reference eigensolver: cyclic Jacobi.  O(d³) per sweep × 6–10 sweeps,
   but unconditionally stable and rotation-exact, and it shares no
   arithmetic with [Eigen.decompose]'s tridiagonal QL — the oracle that
   solver is property-tested against.  [info.sweeps] counts Jacobi sweeps
   and [info.residual] is the off-diagonal Frobenius norm of the full
   rotated matrix. *)

let off_diagonal_norm a =
  let n, _ = Mat.dims a in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let v = Mat.get a i j in
      acc := !acc +. (2. *. v *. v)
    done
  done;
  sqrt !acc

let jacobi_eigen ?(max_sweeps = 64) ?(eps = 1e-12) a0 =
  let n, _ = Mat.dims a0 in
  (* Work on a symmetrized copy so tiny asymmetries from accumulation don't
     bias the rotations. *)
  let a = Mat.init n n (fun i j -> 0.5 *. (Mat.get a0 i j +. Mat.get a0 j i)) in
  let v = Mat.identity n in
  let scale = Float.max (Mat.max_abs a) 1e-300 in
  let threshold = eps *. scale *. float_of_int n in
  let sweep = ref 0 in
  let residual = ref (off_diagonal_norm a) in
  while !residual > threshold && !sweep < max_sweeps do
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        let apq = Mat.get a p q in
        if Float.abs apq > eps *. scale /. 1e3 then begin
          let app = Mat.get a p p and aqq = Mat.get a q q in
          (* Stable rotation computation (Golub & Van Loan §8.4). *)
          let theta = (aqq -. app) /. (2. *. apq) in
          let t =
            let sign = if theta >= 0. then 1. else -1. in
            sign /. (Float.abs theta +. sqrt ((theta *. theta) +. 1.))
          in
          let c = 1. /. sqrt ((t *. t) +. 1.) in
          let s = t *. c in
          (* A <- Jᵀ A J on rows/cols p,q. *)
          for k = 0 to n - 1 do
            let akp = Mat.get a k p and akq = Mat.get a k q in
            Mat.set a k p ((c *. akp) -. (s *. akq));
            Mat.set a k q ((s *. akp) +. (c *. akq))
          done;
          for k = 0 to n - 1 do
            let apk = Mat.get a p k and aqk = Mat.get a q k in
            Mat.set a p k ((c *. apk) -. (s *. aqk));
            Mat.set a q k ((s *. apk) +. (c *. aqk))
          done;
          for k = 0 to n - 1 do
            let vkp = Mat.get v k p and vkq = Mat.get v k q in
            Mat.set v k p ((c *. vkp) -. (s *. vkq));
            Mat.set v k q ((s *. vkp) +. (c *. vkq))
          done
        end
      done
    done;
    residual := off_diagonal_norm a
  done;
  (* Sort descending by eigenvalue, permuting eigenvector columns along. *)
  let diag = Mat.diag a in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare diag.(j) diag.(i)) order;
  (* [<=] (not [<]) so a NaN residual — non-finite input — reads as not
     converged rather than silently fine. *)
  ( { Eigen.values = Array.map (fun i -> diag.(i)) order;
      vectors = Mat.select_cols v order },
    { Eigen.sweeps = !sweep; residual = !residual; converged = !residual <= threshold } )

(* The factored Op_tensor formulas as N×N Hadamards of tgrams: the
   bitwise oracle for the streamed Gram pass. *)
let hadamard_of_tgrams factors ~skip =
  let n = snd (Mat.dims factors.(0)) in
  let acc = ref (Mat.make n n 1.) in
  Array.iteri (fun q z -> if q <> skip then acc := Mat.map2 ( *. ) !acc (Mat.tgram z)) factors;
  !acc

(* w² · 1ᵀ(⊛ₚ ZₚᵀZₚ)1 over the upper triangle of the symmetric
   c = ⊛ₚ ZₚᵀZₚ, in the streamed pass's order: one accumulation from +0.
   over the rows in ascending order, row i adding c[i,i] and then 2·c[i,j]
   for j = i+1 … N−1 ascending. *)
let oracle_norm2 ~weight factors =
  let g = hadamard_of_tgrams factors ~skip:(-1) in
  let n = g.Mat.rows in
  let total = ref 0. in
  for i = 0 to n - 1 do
    total := !total +. Mat.get g i i;
    for j = i + 1 to n - 1 do
      total := !total +. (2. *. Mat.get g i j)
    done
  done;
  weight *. weight *. !total

(* The same norm summed row-major over all N² cells: equal to
   [oracle_norm2] in exact arithmetic, within rounding in floating point. *)
let row_major_norm2 ~weight factors =
  let g = hadamard_of_tgrams factors ~skip:(-1) in
  let total = ref 0. in
  Array.iter (fun v -> total := !total +. v) g.Mat.data;
  weight *. weight *. !total

(* w²·(X + Xᵀ) with X = Zₖ·(H′·Zₖᵀ), where H′ is the strict upper triangle
   of H = ⊛_{q≠k} ZqᵀZq plus half its diagonal, +0. below it: the order
   of the streamed pass, whose blocks leave out only +0. cells of H′. *)
let oracle_mode_gram ~weight factors k =
  let h = hadamard_of_tgrams factors ~skip:k in
  let n = h.Mat.rows in
  let upper =
    Mat.init n n (fun i j ->
        if j > i then Mat.get h i j else if j = i then 0.5 *. Mat.get h i i else 0.)
  in
  let x = Mat.mul factors.(k) (Mat.mul_nt upper factors.(k)) in
  let w2 = weight *. weight in
  Mat.init x.Mat.rows x.Mat.rows (fun a c -> w2 *. (Mat.get x a c +. Mat.get x c a))

(* The historical product w²·Zₖ(⊛_{q≠k} ZqᵀZq)Zₖᵀ over the whole of H:
   equal to [oracle_mode_gram] in exact arithmetic, within rounding in
   floating point. *)
let historical_mode_gram ~weight factors k =
  let h = hadamard_of_tgrams factors ~skip:k in
  Mat.scale (weight *. weight) (Mat.mul_nt (Mat.mul factors.(k) h) factors.(k))

(* The historical materialization of a factored operator
   [weight · Σᵢ ∘ₚ factors.(p).col(i)]: one rank-1 update per component,
   recursing over the modes and skipping the subtree under a zero entry
   (p < m−1).  The bitwise oracle for [Op_tensor.to_tensor] and
   [Tcca.covariance_tensor].  Its zero skips can hide a non-finite entry,
   so it is an oracle for finite factors only.  With [~onto] the terms are
   added onto a copy of that tensor instead of zeros. *)
let oracle_to_tensor ?onto ~weight factors =
  let m = Array.length factors and n = snd (Mat.dims factors.(0)) in
  let t =
    match onto with
    | Some x -> Tensor.copy x
    | None -> Tensor.create (Array.map (fun z -> fst (Mat.dims z)) factors)
  in
  let dims = t.Tensor.dims and strides = t.Tensor.strides and data = t.Tensor.data in
  let add_outer xs =
    let rec go k base coeff =
      if k = m - 1 then begin
        let x = xs.(k) in
        for i = 0 to dims.(k) - 1 do
          data.(base + i) <- data.(base + i) +. (coeff *. Array.unsafe_get x i)
        done
      end
      else begin
        let x = xs.(k) in
        let stride = strides.(k) in
        for i = 0 to dims.(k) - 1 do
          let xi = Array.unsafe_get x i in
          if xi <> 0. then go (k + 1) (base + (i * stride)) (coeff *. xi)
        done
      end
    in
    if m = 1 then begin
      let x = xs.(0) in
      for i = 0 to dims.(0) - 1 do
        data.(i) <- data.(i) +. (weight *. Array.unsafe_get x i)
      done
    end
    else begin
      let x = xs.(0) in
      let stride = strides.(0) in
      for i = 0 to dims.(0) - 1 do
        let xi = Array.unsafe_get x i in
        if xi <> 0. then go 1 (i * stride) (weight *. xi)
      done
    end
  in
  for i = 0 to n - 1 do
    add_outer (Array.map (fun z -> Mat.col z i) factors)
  done;
  t

let tensor_bits_equal (x : Tensor.t) (y : Tensor.t) =
  x.Tensor.dims = y.Tensor.dims && Array.for_all2 same_bits x.Tensor.data y.Tensor.data

(* Planted multi-view data with a known answer: view p is xₚ = aₚs + εₚ
   over [n] instances (columns), for the loadings aₚ in [loadings], one
   latent s = E − 1 shared by every view (E exponential, so s is skewed
   with mean 0 and variance 1) and independent noise εₚ ~ N(0, noise²·I).
   The population covariance tensor is E[s³] ∘ₚ aₚ = 2 ∘ₚ aₚ, so the
   whitened tensor M is rank 1 with canonical vectors hₚ ∝ C̃ₚₚ⁻¹aₚ, which
   is ∝ aₚ for this isotropic noise. *)
let planted_views rng ~loadings ~noise ~n =
  let views = Array.map (fun a -> Mat.create (Array.length a) n) loadings in
  for j = 0 to n - 1 do
    let s = -.log (Float.max 1e-12 (Rng.uniform rng)) -. 1. in
    Array.iteri
      (fun p a ->
        Array.iteri (fun i ai -> Mat.set views.(p) i j ((ai *. s) +. (noise *. Rng.gaussian rng))) a)
      loadings
  done;
  views

(* Crafted request bodies that once escaped the wire decoder as exceptions
   — through the reactor, a crash of the whole daemon — or decoded as a
   phantom matrix: each must be refused as a typed error.  [probe_body]
   encodes one from its integer and float fields. *)
let probe_body fields =
  let b = Buffer.create 64 in
  List.iter
    (function
      | `I v -> Checkpoint.Wire.add_int b v
      | `F v -> Checkpoint.Wire.add_f64 b v)
    fields;
  Buffer.contents b

let decoder_probes =
  [ ("Model_health string length max_int-2", [ `I 9; `I (max_int - 2) ]);
    ("Transform f-array length 2^60", [ `I 2; `I (-1); `I 1; `I 1; `I 1; `I (1 lsl 60) ]);
    ( "view count 2^40 before one valid 1x1 matrix",
      [ `I 2; `I (-1); `I (1 lsl 40); `I 1; `I 1; `I 1; `F 1. ] );
    ( "2^32 x 2^31 matrix with no data",
      [ `I 2; `I (-1); `I 1; `I (1 lsl 32); `I (1 lsl 31); `I 0 ] ) ]
