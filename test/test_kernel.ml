open Test_support

let sample_data () =
  let r = rng () in
  Mat.map Float.abs (random_mat r 6 20)

let test_linear_gram () =
  let x = sample_data () in
  let f = Kernel.fit Kernel.Linear x in
  check_mat ~eps:1e-10 "gram = XᵀX" (Mat.tgram x) (Kernel.gram f)

let test_exp_kernel_range () =
  let x = sample_data () in
  let f = Kernel.fit (Kernel.Exp_distance Distance.L2) x in
  let k = Kernel.gram f in
  let n, _ = Mat.dims k in
  for i = 0 to n - 1 do
    check_float ~eps:1e-12 "self similarity 1" 1. (Mat.get k i i);
    for j = 0 to n - 1 do
      let v = Mat.get k i j in
      check_true "in (0,1]" (v > 0. && v <= 1. +. 1e-12)
    done
  done;
  (* Bandwidth = max distance means the smallest entry is exp(-1). *)
  let mn = ref infinity in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      mn := Float.min !mn (Mat.get k i j)
    done
  done;
  check_float ~eps:1e-9 "min entry = e^-1" (exp (-1.)) !mn

let test_bandwidth_frozen () =
  let x = sample_data () in
  let f = Kernel.fit (Kernel.Exp_distance Distance.L2) x in
  match Kernel.bandwidth f with
  | None -> Alcotest.fail "expected a bandwidth"
  | Some lam ->
    check_float ~eps:1e-9 "lambda is max distance"
      (Distance.max_entry (Distance.pairwise Distance.L2 x))
      lam

let test_cross_consistent_with_gram () =
  let x = sample_data () in
  let f = Kernel.fit (Kernel.Exp_distance Distance.Chi2) x in
  check_mat ~eps:1e-10 "cross on train = gram" (Kernel.gram f) (Kernel.cross f x)

let test_gram_psd () =
  let x = sample_data () in
  List.iter
    (fun kind -> check_true "psd" (Kernel.is_psd (Kernel.gram (Kernel.fit kind x))))
    [ Kernel.Linear; Kernel.Rbf 0.5 ]

let test_center () =
  let x = sample_data () in
  let k = Kernel.gram (Kernel.fit Kernel.Linear x) in
  let c = Kernel.center k in
  let n, _ = Mat.dims c in
  (* Row sums of a double-centered matrix vanish. *)
  for i = 0 to n - 1 do
    check_float ~eps:1e-8 "row sum 0" 0. (Vec.sum (Mat.row c i))
  done;
  check_true "still symmetric" (Mat.is_symmetric ~eps:1e-8 c)

let test_center_matches_feature_centering () =
  (* Double-centering the linear Gram equals the Gram of centered features. *)
  let x = sample_data () in
  let k = Kernel.gram (Kernel.fit Kernel.Linear x) in
  let xc = fst (Mat.center_rows x) in
  check_mat ~eps:1e-8 "HKH = Gram(centered)" (Mat.tgram xc) (Kernel.center k)

let test_normalize_unit_diag () =
  let x = sample_data () in
  let k = Kernel.gram (Kernel.fit Kernel.Linear x) in
  let nk = Kernel.normalize_unit_diag k in
  let n, _ = Mat.dims nk in
  for i = 0 to n - 1 do
    check_float ~eps:1e-9 "unit diagonal" 1. (Mat.get nk i i)
  done

let test_average () =
  let a = Mat.identity 3 and b = Mat.make 3 3 1. in
  let avg = Kernel.average [ a; b ] in
  check_float "diag" 1. (Mat.get avg 0 0);
  check_float "offdiag" 0.5 (Mat.get avg 0 1)

let test_fit_gram_single_pass () =
  (* Regression: [fit] keeps the fitted distance matrix, so [fit] + [gram]
     (+ any number of further [gram] calls) is ONE O(N²·d) pairwise pass. *)
  let x = sample_data () in
  let before = Distance.pairwise_count () in
  let f = Kernel.fit (Kernel.Exp_distance Distance.L2) x in
  let k1 = Kernel.gram f in
  let k2 = Kernel.gram f in
  Alcotest.(check int) "one pairwise sweep" (before + 1) (Distance.pairwise_count ());
  check_mat ~eps:0. "grams identical" k1 k2

let test_streaming_fit_matches_precomputed () =
  let x = sample_data () in
  let before = Distance.pairwise_count () in
  let fs = Kernel.fit ~precompute:false (Kernel.Exp_distance Distance.L2) x in
  (* The streaming bandwidth pass never materializes (or counts as) a
     pairwise sweep... *)
  Alcotest.(check int) "no pairwise sweep" before (Distance.pairwise_count ());
  let fp = Kernel.fit (Kernel.Exp_distance Distance.L2) x in
  (* ...yet freezes the identical λ and produces the identical Gram. *)
  check_float "same bandwidth"
    (Option.get (Kernel.bandwidth fp))
    (Option.get (Kernel.bandwidth fs));
  check_mat ~eps:0. "same gram" (Kernel.gram fp) (Kernel.gram fs)

let test_oracle_matches_gram () =
  let x = sample_data () in
  let f = Kernel.fit ~precompute:false (Kernel.Exp_distance Distance.Chi2) x in
  let o = Kernel.oracle f in
  let k = Kernel.gram f in
  let n = fst (Mat.dims k) in
  Alcotest.(check int) "oracle dim" n o.Pchol.o_dim;
  let diag = o.Pchol.o_diag () in
  for i = 0 to n - 1 do
    check_float ~eps:1e-12 "diag entry" (Mat.get k i i) diag.(i)
  done;
  let j = 3 in
  let col = o.Pchol.o_column j in
  for i = 0 to n - 1 do
    check_float ~eps:1e-12 "column entry" (Mat.get k i j) col.(i)
  done

(* The oracle's columns and diagonal against [gram], bit for bit, at
   pools 1 and 4: every kernel and distance, N ≡ 0, 1, 2, 3 (mod 4), and
   every column, so the pivot sits in each lane of a four-instance group
   and in the tail.  A fifth of the features are exact zeros, so χ² meets
   pairs whose sum is 0. *)
let test_oracle_columns_bitwise () =
  let kinds =
    [ ("linear", Kernel.Linear);
      ("rbf", Kernel.Rbf 0.3);
      ("exp L2", Kernel.Exp_distance Distance.L2);
      ("exp squared L2", Kernel.Exp_distance Distance.Sq_l2);
      ("exp L1", Kernel.Exp_distance Distance.L1);
      ("exp chi2", Kernel.Exp_distance Distance.Chi2) ]
  in
  List.iter
    (fun n ->
      let r = Rng.create (100 + n) in
      let x =
        Mat.init 7 n (fun _ _ -> if Rng.uniform r < 0.2 then 0. else Rng.uniform r)
      in
      List.iter
        (fun (name, kind) ->
          let f = Kernel.fit ~precompute:false kind x in
          let k = Kernel.gram f in
          List.iter
            (fun size ->
              with_pool size (fun () ->
                  let o = Kernel.oracle f in
                  let what = Printf.sprintf "%s, N = %d, pool %d" name n size in
                  check_true (what ^ ": diagonal")
                    (Array.for_all2 same_bits (Mat.diag k) (o.Pchol.o_diag ()));
                  for j = 0 to n - 1 do
                    check_true
                      (Printf.sprintf "%s: column %d" what j)
                      (Array.for_all2 same_bits (Mat.col k j) (o.Pchol.o_column j))
                  done))
            [ 1; 4 ])
        kinds)
    [ 12; 13; 14; 15; 33 ]

let test_rbf () =
  let x = Mat.of_cols [| [| 0. |]; [| 1. |] |] in
  let k = Kernel.gram (Kernel.fit (Kernel.Rbf 2.) x) in
  check_float ~eps:1e-12 "exp(-2·1)" (exp (-2.)) (Mat.get k 0 1)

let () =
  Alcotest.run "kernel"
    [ ( "grams",
        [ Alcotest.test_case "linear" `Quick test_linear_gram;
          Alcotest.test_case "exp range" `Quick test_exp_kernel_range;
          Alcotest.test_case "bandwidth" `Quick test_bandwidth_frozen;
          Alcotest.test_case "cross consistency" `Quick test_cross_consistent_with_gram;
          Alcotest.test_case "psd" `Quick test_gram_psd;
          Alcotest.test_case "rbf" `Quick test_rbf ] );
      ( "transforms",
        [ Alcotest.test_case "center" `Quick test_center;
          Alcotest.test_case "center = feature centering" `Quick
            test_center_matches_feature_centering;
          Alcotest.test_case "normalize" `Quick test_normalize_unit_diag;
          Alcotest.test_case "average" `Quick test_average ] );
      ( "scaling path",
        [ Alcotest.test_case "fit+gram = one pairwise pass" `Quick test_fit_gram_single_pass;
          Alcotest.test_case "streaming fit matches" `Quick
            test_streaming_fit_matches_precomputed;
          Alcotest.test_case "oracle matches gram" `Quick test_oracle_matches_gram;
          Alcotest.test_case "oracle columns = gram columns (bitwise)" `Quick
            test_oracle_columns_bitwise ] ) ]
