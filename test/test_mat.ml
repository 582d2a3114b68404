open Test_support

let a22 = Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |] |]
let b22 = Mat.of_arrays [| [| 5.; 6. |]; [| 7.; 8. |] |]

let test_construction () =
  let m = Mat.init 2 3 (fun i j -> float_of_int ((i * 10) + j)) in
  check_float "get" 12. (Mat.get m 1 2);
  Alcotest.(check (pair int int)) "dims" (2, 3) (Mat.dims m);
  check_mat "identity"
    (Mat.of_arrays [| [| 1.; 0. |]; [| 0.; 1. |] |])
    (Mat.identity 2);
  check_mat "diag"
    (Mat.of_arrays [| [| 2.; 0. |]; [| 0.; 3. |] |])
    (Mat.diag_of_vec [| 2.; 3. |])

let test_of_cols () =
  let m = Mat.of_cols [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  check_mat "columns laid out" (Mat.of_arrays [| [| 1.; 3. |]; [| 2.; 4. |] |]) m

let test_ragged () =
  Alcotest.check_raises "ragged rejected" (Invalid_argument "Mat.of_arrays: ragged rows")
    (fun () -> ignore (Mat.of_arrays [| [| 1. |]; [| 1.; 2. |] |]))

let test_mul_known () =
  check_mat "2x2 product"
    (Mat.of_arrays [| [| 19.; 22. |]; [| 43.; 50. |] |])
    (Mat.mul a22 b22)

let test_mul_identity () =
  let r = rng () in
  let m = random_mat r 4 6 in
  check_mat "I·m = m" m (Mat.mul (Mat.identity 4) m);
  check_mat "m·I = m" m (Mat.mul m (Mat.identity 6))

let test_mul_mismatch () =
  Alcotest.check_raises "inner mismatch" (Invalid_argument "Mat.mul: inner dimension mismatch")
    (fun () -> ignore (Mat.mul (Mat.create 2 3) (Mat.create 2 3)))

let test_transpose () =
  let r = rng () in
  let m = random_mat r 3 5 in
  check_mat "double transpose" m (Mat.transpose (Mat.transpose m));
  check_float "entry" (Mat.get m 1 4) (Mat.get (Mat.transpose m) 4 1)

let test_mul_vec () =
  check_vec "A x" [| 5.; 11. |] (Mat.mul_vec a22 [| 1.; 2. |]);
  check_vec "Aᵀ x" [| 7.; 10. |] (Mat.tmul_vec a22 [| 1.; 2. |])

let test_gram_variants () =
  let r = rng () in
  let m = random_mat r 4 7 in
  check_mat ~eps:1e-9 "gram = m mᵀ" (Mat.mul m (Mat.transpose m)) (Mat.gram m);
  check_mat ~eps:1e-9 "tgram = mᵀ m" (Mat.mul (Mat.transpose m) m) (Mat.tgram m);
  let b = random_mat r 4 3 in
  check_mat ~eps:1e-9 "mul_tn" (Mat.mul (Mat.transpose m) b) (Mat.mul_tn m b);
  let c = random_mat r 5 7 in
  check_mat ~eps:1e-9 "mul_nt" (Mat.mul m (Mat.transpose c)) (Mat.mul_nt m c)

let test_rows_cols () =
  let m = Mat.of_arrays [| [| 1.; 2.; 3. |]; [| 4.; 5.; 6. |] |] in
  check_vec "row" [| 4.; 5.; 6. |] (Mat.row m 1);
  check_vec "col" [| 2.; 5. |] (Mat.col m 1);
  let m2 = Mat.copy m in
  Mat.set_row m2 0 [| 9.; 9.; 9. |];
  check_vec "set_row" [| 9.; 9.; 9. |] (Mat.row m2 0);
  Mat.set_col m2 2 [| 1.; 1. |];
  check_vec "set_col" [| 1.; 1. |] (Mat.col m2 2)

let test_slices () =
  let m = Mat.init 3 4 (fun i j -> float_of_int ((i * 4) + j)) in
  check_mat "sub_cols"
    (Mat.of_arrays [| [| 1.; 2. |]; [| 5.; 6. |]; [| 9.; 10. |] |])
    (Mat.sub_cols m 1 2);
  check_mat "sub_rows"
    (Mat.of_arrays [| [| 4.; 5.; 6.; 7. |] |])
    (Mat.sub_rows m 1 1);
  check_mat "select_cols"
    (Mat.of_arrays [| [| 3.; 0. |]; [| 7.; 4. |]; [| 11.; 8. |] |])
    (Mat.select_cols m [| 3; 0 |])

let test_cat () =
  check_mat "hcat"
    (Mat.of_arrays [| [| 1.; 2.; 5.; 6. |]; [| 3.; 4.; 7.; 8. |] |])
    (Mat.hcat a22 b22);
  check_mat "vcat"
    (Mat.of_arrays [| [| 1.; 2. |]; [| 3.; 4. |]; [| 5.; 6. |]; [| 7.; 8. |] |])
    (Mat.vcat a22 b22)

let test_reductions () =
  check_float "trace" 5. (Mat.trace a22);
  check_float "frobenius" (sqrt 30.) (Mat.frobenius a22);
  check_float "max_abs" 4. (Mat.max_abs a22)

let test_center_rows () =
  let m = Mat.of_arrays [| [| 1.; 3. |]; [| 10.; 20. |] |] in
  let centered, means = Mat.center_rows m in
  check_vec "means" [| 2.; 15. |] means;
  check_mat "centered" (Mat.of_arrays [| [| -1.; 1. |]; [| -5.; 5. |] |]) centered

let test_add_scaled_identity () =
  check_mat "a + 2I"
    (Mat.of_arrays [| [| 3.; 2. |]; [| 3.; 6. |] |])
    (Mat.add_scaled_identity 2. a22)

let test_is_symmetric () =
  check_true "gram symmetric" (Mat.is_symmetric (Mat.gram a22));
  check_true "a22 not symmetric" (not (Mat.is_symmetric a22))

let prop_mul_associative =
  qtest ~count:50 "associativity (A·B)·C = A·(B·C)"
    QCheck2.Gen.(
      quad (int_range 1 5) (int_range 1 5) (int_range 1 5) (int_range 1 5)
      >>= fun (a, b, c, d) ->
      triple
        (array_size (return (a * b)) (float_range (-3.) 3.))
        (array_size (return (b * c)) (float_range (-3.) 3.))
        (array_size (return (c * d)) (float_range (-3.) 3.))
      >|= fun (x, y, z) ->
      ( Mat.unsafe_of_flat ~rows:a ~cols:b x,
        Mat.unsafe_of_flat ~rows:b ~cols:c y,
        Mat.unsafe_of_flat ~rows:c ~cols:d z ))
    (fun (x, y, z) ->
      Mat.equal ~eps:1e-6 (Mat.mul (Mat.mul x y) z) (Mat.mul x (Mat.mul y z)))

let prop_transpose_product =
  qtest ~count:50 "(AB)ᵀ = BᵀAᵀ"
    QCheck2.Gen.(
      triple (int_range 1 6) (int_range 1 6) (int_range 1 6) >>= fun (a, b, c) ->
      pair
        (array_size (return (a * b)) (float_range (-3.) 3.))
        (array_size (return (b * c)) (float_range (-3.) 3.))
      >|= fun (x, y) ->
      (Mat.unsafe_of_flat ~rows:a ~cols:b x, Mat.unsafe_of_flat ~rows:b ~cols:c y))
    (fun (x, y) ->
      Mat.equal ~eps:1e-7 (Mat.transpose (Mat.mul x y))
        (Mat.mul (Mat.transpose y) (Mat.transpose x)))

let prop_trace_cyclic =
  qtest ~count:50 "tr(AB) = tr(BA)"
    QCheck2.Gen.(
      pair (int_range 1 6) (int_range 1 6) >>= fun (a, b) ->
      pair
        (array_size (return (a * b)) (float_range (-3.) 3.))
        (array_size (return (b * a)) (float_range (-3.) 3.))
      >|= fun (x, y) ->
      (Mat.unsafe_of_flat ~rows:a ~cols:b x, Mat.unsafe_of_flat ~rows:b ~cols:a y))
    (fun (x, y) ->
      Float.abs (Mat.trace (Mat.mul x y) -. Mat.trace (Mat.mul y x)) < 1e-6)

let prop_gram_psd_diag =
  qtest "gram diagonal non-negative" gen_mat (fun m ->
      Array.for_all (fun v -> v >= -1e-9) (Mat.diag (Mat.gram m)))

(* ------------------------------------------------------------------ *)
(* Parallel kernels vs. bit-exact sequential references.

   Each reference below replays the kernels' documented per-cell
   floating-point accumulation contract — every cell is the sum of its k
   products taken in ascending inner index, from +0., with no zero skips —
   so [Mat]'s pool-partitioned implementations must agree *bitwise* — not
   approximately — at every pool size, including the TCCA_DOMAINS=1
   sequential fallback, and on both GEMM routes.  Shapes
   include empty (0×n) and degenerate (1×n) matrices. *)

let ref_mul a b =
  let m = a.Mat.rows and n = b.Mat.cols and k = a.Mat.cols in
  let c = Array.make (m * n) 0. in
  for i = 0 to m - 1 do
    for l = 0 to k - 1 do
      let av = a.Mat.data.((i * k) + l) in
      for j = 0 to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (av *. b.Mat.data.((l * n) + j))
      done
    done
  done;
  Mat.unsafe_of_flat ~rows:m ~cols:n c

let ref_mul_tn a b =
  let m = a.Mat.cols and n = b.Mat.cols in
  let c = Array.make (m * n) 0. in
  for l = 0 to a.Mat.rows - 1 do
    for i = 0 to m - 1 do
      let av = a.Mat.data.((l * m) + i) in
      for j = 0 to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (av *. b.Mat.data.((l * n) + j))
      done
    done
  done;
  Mat.unsafe_of_flat ~rows:m ~cols:n c

let ref_mul_nt a b =
  let m = a.Mat.rows and n = b.Mat.rows and k = a.Mat.cols in
  Mat.init m n (fun i j ->
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (a.Mat.data.((i * k) + l) *. b.Mat.data.((j * k) + l))
      done;
      !acc)

let ref_gram a =
  let m = a.Mat.rows and k = a.Mat.cols in
  let c = Array.make (m * m) 0. in
  for i = 0 to m - 1 do
    for j = i to m - 1 do
      let acc = ref 0. in
      for l = 0 to k - 1 do
        acc := !acc +. (a.Mat.data.((i * k) + l) *. a.Mat.data.((j * k) + l))
      done;
      c.((i * m) + j) <- !acc;
      c.((j * m) + i) <- !acc
    done
  done;
  Mat.unsafe_of_flat ~rows:m ~cols:m c

let ref_tgram a =
  let n = a.Mat.cols in
  let c = Array.make (n * n) 0. in
  for l = 0 to a.Mat.rows - 1 do
    for i = 0 to n - 1 do
      let ai = a.Mat.data.((l * n) + i) in
      for j = i to n - 1 do
        c.((i * n) + j) <- c.((i * n) + j) +. (ai *. a.Mat.data.((l * n) + j))
      done
    done
  done;
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      c.((i * n) + j) <- c.((j * n) + i)
    done
  done;
  Mat.unsafe_of_flat ~rows:n ~cols:n c

(* Entries mix exact zeros in so the kernels' zero-skip branches are hit. *)
let gen_entry = QCheck2.Gen.(frequency [ (1, pure 0.); (4, float_range (-10.) 10.) ])

let gen_mat_dims lo hi =
  QCheck2.Gen.(
    pair (int_range lo hi) (int_range lo hi) >>= fun (r, c) ->
    array_size (return (r * c)) gen_entry >|= fun data ->
    Mat.unsafe_of_flat ~rows:r ~cols:c data)

let gen_parallel_case =
  (* (a, b) with a : m×k and b : k×n; m, n, k range down to 0 so empty and
     1×n edge shapes are generated. *)
  QCheck2.Gen.(
    triple (int_range 0 9) (int_range 0 9) (int_range 0 9) >>= fun (m, k, n) ->
    pair (array_size (return (m * k)) gen_entry) (array_size (return (k * n)) gen_entry)
    >|= fun (x, y) ->
    (Mat.unsafe_of_flat ~rows:m ~cols:k x, Mat.unsafe_of_flat ~rows:k ~cols:n y))

let agree_at_all_pool_sizes reference compute =
  let expected = reference () in
  List.for_all (fun size -> with_pool size (fun () -> bits_equal expected (compute ()))) [ 1; 2; 4 ]

let prop_parallel_mul_bitwise =
  qtest ~count:75 "parallel mul bitwise = sequential reference" gen_parallel_case
    (fun (a, b) -> agree_at_all_pool_sizes (fun () -> ref_mul a b) (fun () -> Mat.mul a b))

let prop_parallel_mul_tn_bitwise =
  qtest ~count:75 "parallel mul_tn/mul_nt bitwise = sequential reference" gen_parallel_case
    (fun (a, b) ->
      (* mul_tn wants its first operand stored transposed: aᵀ is k×m. *)
      let at = Mat.transpose a in
      agree_at_all_pool_sizes (fun () -> ref_mul_tn at b) (fun () -> Mat.mul_tn at b)
      && agree_at_all_pool_sizes
           (fun () -> ref_mul_nt a (Mat.transpose b))
           (fun () -> Mat.mul_nt a (Mat.transpose b)))

let prop_parallel_gram_bitwise =
  qtest ~count:75 "parallel gram/tgram bitwise = sequential reference" (gen_mat_dims 0 9)
    (fun m ->
      agree_at_all_pool_sizes (fun () -> ref_gram m) (fun () -> Mat.gram m)
      && agree_at_all_pool_sizes (fun () -> ref_tgram m) (fun () -> Mat.tgram m))

(* ------------------------------------------------------------------ *)
(* Microkernel vs. the small-product loops.

   The packed microkernel must agree bitwise with [Mat]'s plain loops on
   every shape — the accumulation contract says blocking only reorders
   which cells are in flight, never the terms within a cell.  [with_impl]
   pins the route through the small-product cutoff: [`Naive] runs the
   loops on every shape, [`Microkernel] forces the cutoff to 0 so the
   microkernel genuinely runs even on shapes far below the dispatch
   threshold (a 1×k×1 product would otherwise always take the loops).
   Dimensions are chosen adversarially for the 4×2 register tile and its
   depth loop unrolled by two: degenerate (0, 1×k×1), below one tile,
   exactly one tile, straddling tile and panel boundaries, odd and even
   depths, and primes that never divide evenly.

   One case in five instead puts a single dimension at or just past a
   cache-block edge, with the others small so the plain-loop oracle stays
   cheap: k crosses kc = 256 (a second depth slab, which reloads C, and a
   one-step odd tail), m crosses mc = 128 (a second row block) and n
   crosses nc = 1024 (a second column block).  Gram and tgram get the
   same edges as output sizes, so a second row or column block starts
   with a tile that straddles the diagonal, and as depths. *)

let gen_adversarial_dim =
  QCheck2.Gen.(
    frequency
      [ (3, int_range 0 9);
        (2, oneofl [ 1; 2; 3; 4; 5 ]);
        (2, oneofl [ 7; 11; 13; 17 ]);
        (1, oneofl [ 16; 31; 33 ]) ])

let gen_small_dim = QCheck2.Gen.int_range 1 9
let gen_block_depth = QCheck2.Gen.oneofl [ 255; 256; 257; 513 ]

let gen_block_case_dims =
  QCheck2.Gen.(
    oneof
      [ triple gen_small_dim gen_block_depth gen_small_dim;
        triple (oneofl [ 127; 128; 129 ]) gen_small_dim gen_small_dim;
        triple gen_small_dim gen_small_dim (oneofl [ 1023; 1025 ]) ])

let gen_adversarial_case =
  QCheck2.Gen.(
    frequency
      [ (4, triple gen_adversarial_dim gen_adversarial_dim gen_adversarial_dim);
        (1, gen_block_case_dims) ]
    >>= fun (m, k, n) ->
    pair (array_size (return (m * k)) gen_entry) (array_size (return (k * n)) gen_entry)
    >|= fun (x, y) ->
    (Mat.unsafe_of_flat ~rows:m ~cols:k x, Mat.unsafe_of_flat ~rows:k ~cols:n y))

(* r×c: gram is r×r over depth c, tgram c×c over depth r. *)
let gen_adversarial_mat =
  QCheck2.Gen.(
    frequency
      [ (4, pair gen_adversarial_dim gen_adversarial_dim);
        ( 1,
          oneof
            [ pair (oneofl [ 127; 128; 129; 1023; 1025 ]) gen_small_dim;
              pair gen_small_dim gen_block_depth ] ) ]
    >>= fun (r, c) ->
    array_size (return (r * c)) gen_entry >|= fun data ->
    Mat.unsafe_of_flat ~rows:r ~cols:c data)

(* The loops once, then the microkernel at pool sizes 1 and 4. *)
let micro_matches_naive compute =
  let expected = with_impl `Naive compute in
  List.for_all
    (fun size ->
      with_pool size (fun () -> bits_equal expected (with_impl `Microkernel compute)))
    [ 1; 4 ]

let prop_microkernel_vs_naive_mul =
  qtest ~count:100 "microkernel bitwise = naive oracle (mul/mul_tn/mul_nt)"
    gen_adversarial_case (fun (a, b) ->
      micro_matches_naive (fun () -> Mat.mul a b)
      && micro_matches_naive (fun () -> Mat.mul_tn (Mat.transpose a) b)
      && micro_matches_naive (fun () -> Mat.mul_nt a (Mat.transpose b)))

let prop_microkernel_vs_naive_gram =
  qtest ~count:100 "microkernel bitwise = naive oracle (gram/tgram)" gen_adversarial_mat
    (fun m ->
      micro_matches_naive (fun () -> Mat.gram m)
      && micro_matches_naive (fun () -> Mat.tgram m))

(* Transposed-operand entry points vs. an explicit transpose: IEEE
   multiplication commutes bitwise, and both routes accumulate the same
   terms ascending in k, so the packed-walk variants must equal
   mul-with-materialized-transpose exactly — under the microkernel, at
   pool sizes 1 and 4. *)
let transpose_consistent a b =
  List.for_all
    (fun size ->
      with_pool size (fun () ->
          with_impl `Microkernel (fun () ->
              let at = Mat.transpose a and bt = Mat.transpose b in
              bits_equal (Mat.mul_tn at b) (Mat.mul (Mat.transpose at) b)
              && bits_equal (Mat.mul_nt a bt) (Mat.mul a (Mat.transpose bt))
              && bits_equal (Mat.gram a) (Mat.mul a (Mat.transpose a))
              && bits_equal (Mat.tgram a) (Mat.mul (Mat.transpose a) a))))
    [ 1; 4 ]

let prop_transpose_consistency =
  qtest ~count:100 "mul_tn/mul_nt/gram/tgram ≡ mul with explicit transpose (bitwise)"
    gen_adversarial_case (fun (a, b) -> transpose_consistent a b)

(* An overwriting [Gemm.gemm] never reads C: into a buffer of NaN
   sentinels it gives the bits of the same product into a fresh +0.
   buffer, for all four ta/tb, at pools 1 and 4 — the contract that lets
   streamed passes reuse their block buffers dirty.  With k = 0 it writes
   nothing, so the sentinels stay. *)
let prop_gemm_overwrites =
  qtest ~count:100 "overwriting gemm on a dirty buffer ≡ gemm on a fresh one (bitwise)"
    gen_adversarial_case (fun (a, b) ->
      let m, k = Mat.dims a and _, n = Mat.dims b in
      (* op(A) stored row-major, or its transpose when [t]. *)
      let stored t x = if t then (Mat.transpose x).Mat.data else x.Mat.data in
      List.for_all
        (fun (ta, tb) ->
          let a = stored ta a and b = stored tb b in
          let product c = Gemm.gemm ~ta ~tb ~m ~n ~k ~a ~b c in
          let fresh = Array.make (m * n) 0. in
          product fresh;
          List.for_all
            (fun size ->
              with_pool size (fun () ->
                  let dirty = Array.make (m * n) Float.nan in
                  product dirty;
                  if k = 0 then Array.for_all Float.is_nan dirty
                  else Array.for_all2 same_bits fresh dirty))
            [ 1; 4 ])
        [ (false, false); (true, false); (false, true); (true, true) ])

(* ------------------------------------------------------------------ *)
(* The accumulating sub-block product.  A depth k split into ascending
   pieces k₁ + k₂ (+ k₃), each accumulated with [~accumulate:true] onto a
   C block that starts at +0., must equal one overwriting product over the
   whole depth bit for bit.  Every operand is a block of a larger array:
   A and B at an offset with a row stride wider than the block, C at an
   offset in an array whose other cells hold a sentinel that must survive.
   m and n sit off the 4×2 tile (1–9, and 127–129 across the mc = 128 row
   block), k across the kc = 256 depth slab, at pool sizes 1 and 4. *)

(* ((ta, tb), (m, n, k), (cut₁, cut₂), seed) — operands come from the seed. *)
let gen_accumulate_case =
  QCheck2.Gen.(
    let side = frequency [ (4, int_range 1 9); (1, int_range 127 129) ] in
    let depth = frequency [ (3, int_range 0 9); (1, int_range 255 257) ] in
    pair bool bool >>= fun flags ->
    triple side side depth >>= fun (m, n, k) ->
    pair (int_range 0 k) (int_range 0 k) >>= fun (c1, c2) ->
    int_bound 1_000_000 >|= fun seed -> (flags, (m, n, k), (min c1 c2, max c1 c2), seed))

(* A [rows × cols] block with row stride [cols + pad] at offset [off] in a
   larger array, its padding and the cells around it NaN. *)
let embed r ~rows ~cols ~off ~pad =
  let ld = cols + pad in
  let v = Array.make (off + (rows * ld) + 3) Float.nan in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      v.(off + (i * ld) + j) <- (if Rng.uniform r < 0.2 then 0. else Rng.gaussian r)
    done
  done;
  (v, ld)

let prop_accumulate_split =
  qtest ~count:100 "accumulated depth pieces ≡ one product (bitwise, sub-blocks, pools 1 and 4)"
    gen_accumulate_case (fun ((ta, tb), (m, n, k), (c1, c2), seed) ->
      let r = Rng.create seed in
      let a_rows, a_cols = if ta then (k, m) else (m, k) in
      let b_rows, b_cols = if tb then (n, k) else (k, n) in
      let a, lda = embed r ~rows:a_rows ~cols:a_cols ~off:5 ~pad:3 in
      let b, ldb = embed r ~rows:b_rows ~cols:b_cols ~off:2 ~pad:1 in
      let c_off = 7 and ldc = n + 4 in
      let sentinel = -1234.5 in
      (* Offsets of depth index l in A and B. *)
      let a_at l = 5 + if ta then l * lda else l in
      let b_at l = 2 + if tb then l else l * ldb in
      let check () =
        (* An overwriting product with k = 0 writes nothing: the empty sum
           is the +0. the pieces start from. *)
        let whole = Array.make (m * n) (if k = 0 then 0. else Float.nan) in
        Gemm.gemm ~ta ~tb ~m ~n ~k ~a ~a_off:5 ~lda ~b ~b_off:2 ~ldb whole;
        let c = Array.make (c_off + (m * ldc) + 5) sentinel in
        for i = 0 to m - 1 do
          Array.fill c (c_off + (i * ldc)) n 0.
        done;
        List.iter
          (fun (lo, hi) ->
            Gemm.gemm ~accumulate:true ~ta ~tb ~m ~n ~k:(hi - lo) ~a ~a_off:(a_at lo) ~lda ~b
              ~b_off:(b_at lo) ~ldb ~c_off ~ldc c)
          [ (0, c1); (c1, c2); (c2, k) ];
        let ok = ref true in
        Array.iteri
          (fun t v ->
            let i = (t - c_off) / ldc and j = (t - c_off) mod ldc in
            let inside = t >= c_off && i < m && j < n in
            let expected = if inside then whole.((i * n) + j) else sentinel in
            if not (same_bits expected v) then ok := false)
          c;
        !ok
      in
      List.for_all (fun size -> with_pool size check) [ 1; 4 ])

(* Every operand is checked against the last cell the product touches
   before any unchecked access: short operands, offsets past the end,
   negative offsets and strides narrower than their block raise
   [Invalid_argument] and leave C as it was. *)
let test_gemm_bounds () =
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: no exception" name
    | exception Invalid_argument _ -> ()
  in
  let full = Array.make (64 * 64) 1. and short = Array.make 10 1. in
  let c = Array.make (64 * 64) 7. in
  let gemm ?a_off ?lda ?b_off ?ldb ?c_off ?ldc ?(ta = false) ?(tb = false) ?(a = full)
      ?(b = full) ?(c = c) () =
    Gemm.gemm ?a_off ?lda ?b_off ?ldb ?c_off ?ldc ~ta ~tb ~m:64 ~n:64 ~k:64 ~a ~b c
  in
  List.iter
    (fun (ta, tb) ->
      raises "short a" (gemm ~ta ~tb ~a:short);
      raises "short b" (gemm ~ta ~tb ~b:short))
    [ (false, false); (true, false); (false, true); (true, true) ];
  raises "short c" (gemm ~c:short);
  raises "a offset past the end" (gemm ~a_off:1);
  raises "b offset past the end" (gemm ~b_off:1);
  raises "c offset past the end" (gemm ~c_off:1);
  raises "negative offset" (gemm ~a_off:(-1));
  raises "stride past the end" (gemm ~ldb:65);
  raises "stride narrower than the block" (gemm ~lda:63);
  raises "c stride narrower than the block" (gemm ~ldc:63);
  raises "negative dimension" (fun () ->
      Gemm.gemm ~ta:false ~tb:false ~m:(-1) ~n:(-1) ~k:1 ~a:full ~b:full [||]);
  raises "short syrk" (fun () -> Gemm.syrk ~ta:false ~n:64 ~k:64 ~a:short c);
  raises "short syrk (ta)" (fun () -> Gemm.syrk ~ta:true ~n:64 ~k:64 ~a:short c);
  raises "syrk output" (fun () -> Gemm.syrk ~ta:false ~n:64 ~k:64 ~a:full short);
  check_true "c untouched by the refused calls" (Array.for_all (fun v -> v = 7.) c);
  (* A block that ends exactly at the end of its array is in range. *)
  let big = Array.make ((64 * 66) + 2) 1. in
  gemm ~a:big ~a_off:2 ~lda:66 ();
  check_true "edge block accepted" (c.(0) = 64.)

(* Packed products from several systhreads of one domain — how the serving
   daemon's compute workers call them.  A thread can be preempted in the
   middle of a product; the packing scratch it was using must not be
   repacked by another thread meanwhile.  Each thread multiplies its own
   operands for about a second and checks every result against the
   sequential one. *)
let test_threads_share_no_scratch () =
  with_impl `Microkernel (fun () ->
      let r = rng () in
      let inputs = Array.init 3 (fun _ -> (random_mat r 96 120, random_mat r 120 112)) in
      let expected = Array.map (fun (a, b) -> Mat.mul a b) inputs in
      let stop = Unix.gettimeofday () +. 1. in
      let wrong = Atomic.make 0 and products = Atomic.make 0 in
      let worker (a, b, want) =
        while Unix.gettimeofday () < stop do
          if not (bits_equal want (Mat.mul a b)) then Atomic.incr wrong;
          Atomic.incr products
        done
      in
      let threads =
        Array.mapi (fun i (a, b) -> Thread.create worker (a, b, expected.(i))) inputs
      in
      Array.iter Thread.join threads;
      check_true "products ran" (Atomic.get products > 0);
      Alcotest.(check int)
        (Printf.sprintf "wrong products of %d" (Atomic.get products))
        0 (Atomic.get wrong))

let () =
  Alcotest.run "mat"
    [ ( "construction",
        [ Alcotest.test_case "basic" `Quick test_construction;
          Alcotest.test_case "of_cols" `Quick test_of_cols;
          Alcotest.test_case "ragged" `Quick test_ragged ] );
      ( "products",
        [ Alcotest.test_case "known" `Quick test_mul_known;
          Alcotest.test_case "identity" `Quick test_mul_identity;
          Alcotest.test_case "mismatch" `Quick test_mul_mismatch;
          Alcotest.test_case "transpose" `Quick test_transpose;
          Alcotest.test_case "matvec" `Quick test_mul_vec;
          Alcotest.test_case "gram variants" `Quick test_gram_variants ] );
      ( "access",
        [ Alcotest.test_case "rows/cols" `Quick test_rows_cols;
          Alcotest.test_case "slices" `Quick test_slices;
          Alcotest.test_case "cat" `Quick test_cat ] );
      ( "reductions",
        [ Alcotest.test_case "trace/frobenius" `Quick test_reductions;
          Alcotest.test_case "center rows" `Quick test_center_rows;
          Alcotest.test_case "ridge" `Quick test_add_scaled_identity;
          Alcotest.test_case "symmetry" `Quick test_is_symmetric ] );
      ( "properties",
        [ prop_mul_associative; prop_transpose_product; prop_trace_cyclic;
          prop_gram_psd_diag ] );
      ( "parallel-bitwise",
        [ prop_parallel_mul_bitwise; prop_parallel_mul_tn_bitwise;
          prop_parallel_gram_bitwise ] );
      ( "gemm-equivalence",
        [ prop_microkernel_vs_naive_mul; prop_microkernel_vs_naive_gram;
          prop_transpose_consistency; prop_gemm_overwrites ] );
      ( "gemm-blocks",
        [ prop_accumulate_split;
          Alcotest.test_case "operand bounds" `Quick test_gemm_bounds ] );
      ( "gemm-threads",
        [ Alcotest.test_case "systhreads share no scratch" `Quick
            test_threads_share_no_scratch ] ) ]
