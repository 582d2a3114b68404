type t = { rows : int; cols : int; data : float array }

let create rows cols = { rows; cols; data = Array.make (rows * cols) 0. }
let make rows cols v = { rows; cols; data = Array.make (rows * cols) v }

let init rows cols f =
  let data = Array.make (rows * cols) 0. in
  for i = 0 to rows - 1 do
    let base = i * cols in
    for j = 0 to cols - 1 do
      data.(base + j) <- f i j
    done
  done;
  { rows; cols; data }

let identity n = init n n (fun i j -> if i = j then 1. else 0.)

let diag_of_vec v =
  let n = Array.length v in
  init n n (fun i j -> if i = j then v.(i) else 0.)

let of_arrays rows_arr =
  let rows = Array.length rows_arr in
  if rows = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let cols = Array.length rows_arr.(0) in
    Array.iter
      (fun r -> if Array.length r <> cols then invalid_arg "Mat.of_arrays: ragged rows")
      rows_arr;
    init rows cols (fun i j -> rows_arr.(i).(j))
  end

let of_cols cols_arr =
  let cols = Array.length cols_arr in
  if cols = 0 then { rows = 0; cols = 0; data = [||] }
  else begin
    let rows = Array.length cols_arr.(0) in
    Array.iter
      (fun c -> if Array.length c <> rows then invalid_arg "Mat.of_cols: ragged columns")
      cols_arr;
    init rows cols (fun i j -> cols_arr.(j).(i))
  end

let unsafe_of_flat ~rows ~cols data =
  if Array.length data <> rows * cols then invalid_arg "Mat.unsafe_of_flat: bad length";
  { rows; cols; data }

let copy a = { a with data = Array.copy a.data }
let get a i j = a.data.((i * a.cols) + j)
let set a i j v = a.data.((i * a.cols) + j) <- v
let dims a = (a.rows, a.cols)

(* [row]/[col] sit on the tridiagonalization and SVD inner loops: one
   upfront bounds check, then raw strided reads. *)
let row a i =
  if i < 0 || i >= a.rows then invalid_arg "Mat.row: index out of range";
  Array.sub a.data (i * a.cols) a.cols

let col a j =
  if j < 0 || j >= a.cols then invalid_arg "Mat.col: index out of range";
  let out = Array.make a.rows 0. in
  let src = ref j in
  for i = 0 to a.rows - 1 do
    Array.unsafe_set out i (Array.unsafe_get a.data !src);
    src := !src + a.cols
  done;
  out

let set_row a i v =
  if Array.length v <> a.cols then invalid_arg "Mat.set_row: dimension mismatch";
  Array.blit v 0 a.data (i * a.cols) a.cols

let set_col a j v =
  if Array.length v <> a.rows then invalid_arg "Mat.set_col: dimension mismatch";
  for i = 0 to a.rows - 1 do
    set a i j v.(i)
  done

let diag a = Array.init (min a.rows a.cols) (fun i -> get a i i)

let sub_cols a j0 n =
  if j0 < 0 || n < 0 || j0 + n > a.cols then invalid_arg "Mat.sub_cols: out of range";
  let data = Array.make (a.rows * n) 0. in
  for i = 0 to a.rows - 1 do
    Array.blit a.data ((i * a.cols) + j0) data (i * n) n
  done;
  { rows = a.rows; cols = n; data }

let sub_rows a i0 n =
  if i0 < 0 || i0 + n > a.rows then invalid_arg "Mat.sub_rows: out of range";
  { rows = n; cols = a.cols; data = Array.sub a.data (i0 * a.cols) (n * a.cols) }

let select_cols a idx = init a.rows (Array.length idx) (fun i j -> get a i idx.(j))
let to_arrays a = Array.init a.rows (row a)

let check_same_dims name a b =
  if a.rows <> b.rows || a.cols <> b.cols then invalid_arg (name ^ ": dimension mismatch")

let map2 f a b =
  check_same_dims "Mat.map2" a b;
  { a with data = Array.init (Array.length a.data) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale s a = { a with data = Array.map (fun v -> s *. v) a.data }

let add_scaled_identity eps a =
  if a.rows <> a.cols then invalid_arg "Mat.add_scaled_identity: not square";
  let r = copy a in
  for i = 0 to a.rows - 1 do
    set r i i (get r i i +. eps)
  done;
  r

(* Dense products.  All five GEMM-shaped entry points (mul / mul_tn /
   mul_nt / gram / tgram) obey one accumulation contract: every output cell
   is the IEEE-754 sum of its k products taken in ascending-k order,
   starting from +0., with no zero skips and no FMA (see DESIGN.md §10).
   Each product takes one route, chosen from its flop count: the packed
   register-blocked microkernel in [Gemm], or — below
   [Gemm.small_cutoff ()] flops, where packing costs more than it saves —
   the plain loops below.  Both honour the contract bitwise and
   row-partition the output across the domain pool; because cells never
   share accumulators, any partition is bitwise identical to the
   sequential run.  Everything downstream (whitening, the covariance
   tensor, MTTKRP, kernels, RLS) funnels through these. *)
let mul_tile = 64

let small_mul_into a b c =
  let m = a.rows and n = b.cols and k = a.cols in
  let ad = a.data and bd = b.data in
  let row_band lo hi =
    (* ikj, cache-blocked over the inner dimension so a tile of [b] rows
       stays resident while a row panel of [c] is updated; per cell the
       additions still happen in ascending [l] order. *)
    let lb = ref 0 in
    while !lb < k do
      let lhi = min k (!lb + mul_tile) in
      for i = lo to hi - 1 do
        let arow = i * k and crow = i * n in
        for l = !lb to lhi - 1 do
          let aval = Array.unsafe_get ad (arow + l) in
          let brow = l * n in
          for j = 0 to n - 1 do
            Array.unsafe_set c (crow + j)
              (Array.unsafe_get c (crow + j) +. (aval *. Array.unsafe_get bd (brow + j)))
          done
        done
      done;
      lb := lhi
    done
  in
  Parallel.parallel_for ~cost:(m * n * k) ~n:m row_band

let use_microkernel ~flops = flops >= Gemm.small_cutoff ()

let mul a b =
  if a.cols <> b.rows then invalid_arg "Mat.mul: inner dimension mismatch";
  let m = a.rows and n = b.cols and k = a.cols in
  let c = Array.make (m * n) 0. in
  if use_microkernel ~flops:(2 * m * n * k) then
    Gemm.gemm ~ta:false ~tb:false ~m ~n ~k ~a:a.data ~b:b.data c
  else small_mul_into a b c;
  { rows = m; cols = n; data = c }

let mul_vec a x =
  if a.cols <> Array.length x then invalid_arg "Mat.mul_vec: dimension mismatch";
  Array.init a.rows (fun i ->
      let base = i * a.cols in
      let acc = ref 0. in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (Array.unsafe_get a.data (base + j) *. Array.unsafe_get x j)
      done;
      !acc)

let tmul_vec a x =
  if a.rows <> Array.length x then invalid_arg "Mat.tmul_vec: dimension mismatch";
  let y = Array.make a.cols 0. in
  for i = 0 to a.rows - 1 do
    let base = i * a.cols in
    let xi = x.(i) in
    if xi <> 0. then
      for j = 0 to a.cols - 1 do
        y.(j) <- y.(j) +. (xi *. Array.unsafe_get a.data (base + j))
      done
  done;
  y

let transpose a = init a.cols a.rows (fun i j -> get a j i)

(* Mirror the strict lower triangle from the upper — a bit copy, so the
   mirrored cells are exactly the transposed bits at any pool size. *)
let mirror_lower n c =
  for i = 0 to n - 1 do
    for j = 0 to i - 1 do
      c.((i * n) + j) <- c.((j * n) + i)
    done
  done

let small_gram_into a c =
  (* a aᵀ: each pool chunk owns a band of output rows and fills its slice of
     the upper triangle with ascending-l dot products (cells are
     independent, so partitioning is trivially deterministic). *)
  let m = a.rows and k = a.cols in
  let ad = a.data in
  Parallel.parallel_for ~cost:(m * m * k / 2) ~n:m (fun lo hi ->
      for i = lo to hi - 1 do
        let ri = i * k in
        for j = i to m - 1 do
          let rj = j * k in
          let acc = ref 0. in
          for l = 0 to k - 1 do
            acc := !acc +. (Array.unsafe_get ad (ri + l) *. Array.unsafe_get ad (rj + l))
          done;
          Array.unsafe_set c ((i * m) + j) !acc
        done
      done)

let gram a =
  let m = a.rows and k = a.cols in
  let c = Array.make (m * m) 0. in
  if use_microkernel ~flops:(m * (m + 1) * k) then Gemm.syrk ~ta:false ~n:m ~k ~a:a.data c
  else small_gram_into a c;
  mirror_lower m c;
  { rows = m; cols = m; data = c }

let small_tgram_into a c =
  (* aᵀ a accumulated row-by-row of [a]: cache-friendly and symmetric.  Pool
     chunks own bands of output rows [i]; every chunk walks all rows [l] of
     [a] in order, so each upper-triangle cell accumulates in ascending-[l]
     order regardless of pool size. *)
  let n = a.cols in
  let rows = a.rows in
  let ad = a.data in
  Parallel.parallel_for ~cost:(rows * n * n / 2) ~n (fun lo hi ->
      for l = 0 to rows - 1 do
        let base = l * n in
        for i = lo to hi - 1 do
          let ai = Array.unsafe_get ad (base + i) in
          let crow = i * n in
          for j = i to n - 1 do
            Array.unsafe_set c (crow + j)
              (Array.unsafe_get c (crow + j) +. (ai *. Array.unsafe_get ad (base + j)))
          done
        done
      done)

let tgram a =
  let n = a.cols in
  let c = Array.make (n * n) 0. in
  if use_microkernel ~flops:(n * (n + 1) * a.rows) then
    Gemm.syrk ~ta:true ~n ~k:a.rows ~a:a.data c
  else small_tgram_into a c;
  mirror_lower n c;
  { rows = n; cols = n; data = c }

let small_mul_tn_into a b c =
  let m = a.cols and n = b.cols in
  let rows = a.rows in
  let ad = a.data and bd = b.data in
  (* Output rows [i] (= columns of [a]) are banded across the pool; every
     chunk scans the rows [l] of [a]/[b] in order, so each output cell sees
     the same ascending-[l] accumulation as the sequential loop. *)
  Parallel.parallel_for ~cost:(rows * m * n) ~n:m (fun lo hi ->
      for l = 0 to rows - 1 do
        let abase = l * m and bbase = l * n in
        for i = lo to hi - 1 do
          let aval = Array.unsafe_get ad (abase + i) in
          let crow = i * n in
          for j = 0 to n - 1 do
            Array.unsafe_set c (crow + j)
              (Array.unsafe_get c (crow + j) +. (aval *. Array.unsafe_get bd (bbase + j)))
          done
        done
      done)

let mul_tn a b =
  if a.rows <> b.rows then invalid_arg "Mat.mul_tn: dimension mismatch";
  let m = a.cols and n = b.cols and k = a.rows in
  let c = Array.make (m * n) 0. in
  if use_microkernel ~flops:(2 * m * n * k) then
    Gemm.gemm ~ta:true ~tb:false ~m ~n ~k ~a:a.data ~b:b.data c
  else small_mul_tn_into a b c;
  { rows = m; cols = n; data = c }

let small_mul_nt_into a b c =
  let m = a.rows and n = b.rows and k = a.cols in
  let ad = a.data and bd = b.data in
  Parallel.parallel_for ~cost:(m * n * k) ~n:m (fun lo hi ->
      for i = lo to hi - 1 do
        let ri = i * k in
        for j = 0 to n - 1 do
          let rj = j * k in
          let acc = ref 0. in
          for l = 0 to k - 1 do
            acc := !acc +. (Array.unsafe_get ad (ri + l) *. Array.unsafe_get bd (rj + l))
          done;
          Array.unsafe_set c ((i * n) + j) !acc
        done
      done)

let mul_nt a b =
  if a.cols <> b.cols then invalid_arg "Mat.mul_nt: dimension mismatch";
  let m = a.rows and n = b.rows and k = a.cols in
  let c = Array.make (m * n) 0. in
  if use_microkernel ~flops:(2 * m * n * k) then
    Gemm.gemm ~ta:false ~tb:true ~m ~n ~k ~a:a.data ~b:b.data c
  else small_mul_nt_into a b c;
  { rows = m; cols = n; data = c }

(* One allocation + row-block blits for any number of operands: the
   GEMM micro-batcher stacks dozens of request matrices per call, where
   the old pairwise fold cost O(k²) copies. *)
let hcat_many ms =
  let first = List.hd ms in
  let rows = first.rows in
  List.iter (fun m -> if m.rows <> rows then invalid_arg "Mat.hcat: row mismatch") ms;
  let cols = List.fold_left (fun acc m -> acc + m.cols) 0 ms in
  let data = Array.make (rows * cols) 0. in
  let off = ref 0 in
  List.iter
    (fun m ->
      for i = 0 to rows - 1 do
        Array.blit m.data (i * m.cols) data ((i * cols) + !off) m.cols
      done;
      off := !off + m.cols)
    ms;
  { rows; cols; data }

let hcat a b = hcat_many [ a; b ]

let vcat a b =
  if a.cols <> b.cols then invalid_arg "Mat.vcat: column mismatch";
  { rows = a.rows + b.rows; cols = a.cols; data = Array.append a.data b.data }

let hcat_list = function
  | [] -> invalid_arg "Mat.hcat_list: empty"
  | ms -> hcat_many ms

let vcat_list = function
  | [] -> invalid_arg "Mat.vcat_list: empty"
  | m :: rest -> List.fold_left vcat m rest

let map f a = { a with data = Array.map f a.data }

let trace a =
  let acc = ref 0. in
  for i = 0 to min a.rows a.cols - 1 do
    acc := !acc +. get a i i
  done;
  !acc

let frobenius a = sqrt (Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a.data)
let max_abs a = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. a.data
let all_finite a = Vec.all_finite a.data

let row_means a =
  Array.init a.rows (fun i ->
      let base = i * a.cols in
      let acc = ref 0. in
      for j = 0 to a.cols - 1 do
        acc := !acc +. a.data.(base + j)
      done;
      !acc /. float_of_int a.cols)

let sub_col_vec a v =
  if Array.length v <> a.rows then invalid_arg "Mat.sub_col_vec: dimension mismatch";
  init a.rows a.cols (fun i j -> get a i j -. v.(i))

let center_rows a =
  let means = row_means a in
  (sub_col_vec a means, means)

let is_symmetric ?(eps = 1e-9) a =
  a.rows = a.cols
  && begin
       let ok = ref true in
       for i = 0 to a.rows - 1 do
         for j = i + 1 to a.cols - 1 do
           if Float.abs (get a i j -. get a j i) > eps then ok := false
         done
       done;
       !ok
     end

let equal ?(eps = 1e-9) a b =
  a.rows = b.rows && a.cols = b.cols
  && begin
       let ok = ref true in
       for k = 0 to Array.length a.data - 1 do
         if Float.abs (a.data.(k) -. b.data.(k)) > eps then ok := false
       done;
       !ok
     end

let pp fmt a =
  Format.fprintf fmt "@[<v>";
  for i = 0 to a.rows - 1 do
    Format.fprintf fmt "[";
    for j = 0 to a.cols - 1 do
      if j > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%8.4f" (get a i j)
    done;
    Format.fprintf fmt "]";
    if i < a.rows - 1 then Format.fprintf fmt "@,"
  done;
  Format.fprintf fmt "@]"
