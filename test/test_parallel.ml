open Test_support

(* The Parallel pool itself, plus end-to-end bitwise-determinism checks for
   every kernel that partitions work across it.  [set_sequential_cutoff 0]
   forces even tiny inputs through the pool so the parallel paths are
   genuinely exercised regardless of input size. *)

let with_pool size f =
  Parallel.set_num_domains size;
  Parallel.set_sequential_cutoff 0;
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_num_domains 1;
      Parallel.set_sequential_cutoff Parallel.default_cutoff)
    f

let pool_sizes = [ 1; 2; 4 ]

let test_env_sizing () =
  Alcotest.(check int) "explicit 1" 1 (Parallel.size_from_env (Some "1"));
  Alcotest.(check int) "explicit 4" 4 (Parallel.size_from_env (Some "4"));
  Alcotest.(check int) "whitespace tolerated" 3 (Parallel.size_from_env (Some " 3 "));
  Alcotest.(check int) "clamped above" 128 (Parallel.size_from_env (Some "100000"));
  let default = Parallel.size_from_env None in
  check_true "default positive" (default >= 1);
  Alcotest.(check int) "zero falls back" default (Parallel.size_from_env (Some "0"));
  Alcotest.(check int) "negative falls back" default (Parallel.size_from_env (Some "-2"));
  Alcotest.(check int) "garbage falls back" default (Parallel.size_from_env (Some "fast"))

let test_for_covers_range () =
  List.iter
    (fun size ->
      with_pool size (fun () ->
          List.iter
            (fun n ->
              let hits = Array.make (max n 1) 0 in
              Parallel.parallel_for ~n (fun lo hi ->
                  for i = lo to hi - 1 do
                    hits.(i) <- hits.(i) + 1
                  done);
              for i = 0 to n - 1 do
                Alcotest.(check int) (Printf.sprintf "size %d n %d idx %d" size n i) 1 hits.(i)
              done)
            [ 0; 1; 2; 3; 7; 64; 101 ]))
    pool_sizes

let test_reduce_ordered () =
  List.iter
    (fun size ->
      with_pool size (fun () ->
          (* A non-commutative combine exposes any chunk reordering. *)
          let spans =
            Parallel.parallel_for_reduce ~n:97 ~init:[] ~combine:( @ ) (fun lo hi ->
                [ (lo, hi) ])
          in
          let last =
            List.fold_left
              (fun expect (lo, hi) ->
                Alcotest.(check int) (Printf.sprintf "size %d contiguous" size) expect lo;
                check_true "nonempty chunk" (hi > lo);
                hi)
              0 spans
          in
          Alcotest.(check int) (Printf.sprintf "size %d full cover" size) 97 last;
          let total =
            Parallel.parallel_for_reduce ~n:1000 ~init:0 ~combine:( + ) (fun lo hi ->
                let s = ref 0 in
                for i = lo to hi - 1 do
                  s := !s + i
                done;
                !s)
          in
          Alcotest.(check int) (Printf.sprintf "size %d sum" size) 499500 total))
    pool_sizes

let test_exceptions_propagate () =
  List.iter
    (fun size ->
      with_pool size (fun () ->
          Alcotest.check_raises "chunk failure re-raised" (Failure "boom") (fun () ->
              Parallel.parallel_for ~n:64 (fun lo hi ->
                  if lo <= 40 && 40 < hi then failwith "boom"));
          (* The pool must survive a failed dispatch and keep working. *)
          let acc = ref 0 in
          Parallel.parallel_for_reduce ~n:10 ~init:() ~combine:(fun () () -> ())
            (fun lo hi -> acc := !acc + (hi - lo))
          |> ignore;
          check_true "pool alive after failure" true))
    pool_sizes

let test_nested_degrades () =
  with_pool 4 (fun () ->
      let out = Array.make 32 0 in
      Parallel.parallel_for ~n:32 (fun lo hi ->
          for i = lo to hi - 1 do
            (* Nested region: must run (sequentially) rather than deadlock. *)
            Parallel.parallel_for ~n:4 (fun l h ->
                for _ = l to h - 1 do
                  out.(i) <- out.(i) + 1
                done)
          done);
      Array.iteri (fun i v -> Alcotest.(check int) (Printf.sprintf "idx %d" i) 4 v) out)

(* ------------------------------------------------------------------ *)
(* Bitwise determinism of the parallelized numerical kernels: results at
   pool sizes 2 and 4 must be bit-for-bit the results at pool size 1.   *)

let mat_bits_equal a b =
  Mat.dims a = Mat.dims b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Mat.data b.Mat.data

let tensor_bits_equal a b =
  a.Tensor.dims = b.Tensor.dims
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Tensor.data b.Tensor.data

let across_pools name compute equal =
  let reference = with_pool 1 compute in
  List.iter
    (fun size ->
      let got = with_pool size compute in
      check_true (Printf.sprintf "%s bitwise stable at pool %d" name size)
        (equal reference got))
    [ 2; 4 ]

let test_covariance_tensor_deterministic () =
  let r = rng () in
  let views = [| random_mat r 6 40; random_mat r 5 40; random_mat r 4 40 |] in
  across_pools "covariance_tensor"
    (fun () -> Tcca.covariance_tensor views)
    tensor_bits_equal

let test_mttkrp_deterministic () =
  let r = rng () in
  let t = random_tensor r [| 7; 6; 5 |] in
  let us = [| random_mat r 7 3; random_mat r 6 3; random_mat r 5 3 |] in
  for k = 0 to 2 do
    across_pools
      (Printf.sprintf "mttkrp mode %d" k)
      (fun () -> Op_tensor.mttkrp (Op_tensor.Dense t) us k)
      mat_bits_equal
  done

let test_pairwise_deterministic () =
  let r = rng () in
  let x = random_mat r 5 23 in
  List.iter
    (fun kind ->
      across_pools "pairwise" (fun () -> Distance.pairwise kind x) mat_bits_equal;
      across_pools "cross"
        (fun () -> Distance.cross kind x (random_mat (rng ()) 5 9))
        mat_bits_equal)
    [ Distance.L2; Distance.Sq_l2; Distance.Chi2; Distance.L1 ]

let () =
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "env sizing" `Quick test_env_sizing;
          Alcotest.test_case "range cover" `Quick test_for_covers_range;
          Alcotest.test_case "ordered reduce" `Quick test_reduce_ordered;
          Alcotest.test_case "exceptions" `Quick test_exceptions_propagate;
          Alcotest.test_case "nested" `Quick test_nested_degrades ] );
      ( "determinism",
        [ Alcotest.test_case "covariance tensor" `Quick test_covariance_tensor_deterministic;
          Alcotest.test_case "mttkrp" `Quick test_mttkrp_deterministic;
          Alcotest.test_case "pairwise/cross" `Quick test_pairwise_deterministic ] ) ]
