(* Shared helpers for the alcotest/qcheck suites. *)

let check_float ?(eps = 1e-9) msg expected actual =
  Alcotest.(check (float eps)) msg expected actual

let check_true msg condition = Alcotest.(check bool) msg true condition

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

let random_orthonormal rng n k = Qr.orthonormalize (random_mat rng n k)

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

(* The historical factored Op_tensor formulas, N×N Hadamards of tgrams:
   the bitwise oracle for the streamed Gram pass. *)
let hadamard_of_tgrams factors ~skip =
  let n = snd (Mat.dims factors.(0)) in
  let acc = ref (Mat.make n n 1.) in
  Array.iteri (fun q z -> if q <> skip then acc := Mat.map2 ( *. ) !acc (Mat.tgram z)) factors;
  !acc

(* w² · 1ᵀ(⊛ₚ ZₚᵀZₚ)1, summed row-major. *)
let oracle_norm2 ~weight factors =
  let g = hadamard_of_tgrams factors ~skip:(-1) in
  let total = ref 0. in
  Array.iter (fun v -> total := !total +. v) g.Mat.data;
  weight *. weight *. !total

(* w² · Zₖ (⊛_{q≠k} ZqᵀZq) Zₖᵀ. *)
let oracle_mode_gram ~weight factors k =
  let w = hadamard_of_tgrams factors ~skip:k in
  Mat.scale (weight *. weight) (Mat.mul_nt (Mat.mul factors.(k) w) factors.(k))
