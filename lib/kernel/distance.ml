type t = L2 | Sq_l2 | Chi2 | L1

let eval kind x y =
  if Array.length x <> Array.length y then invalid_arg "Distance.eval: dimension mismatch";
  match kind with
  | Sq_l2 ->
    let acc = ref 0. in
    for i = 0 to Array.length x - 1 do
      let d = x.(i) -. y.(i) in
      acc := !acc +. (d *. d)
    done;
    !acc
  | L2 ->
    let acc = ref 0. in
    for i = 0 to Array.length x - 1 do
      let d = x.(i) -. y.(i) in
      acc := !acc +. (d *. d)
    done;
    sqrt !acc
  | L1 ->
    let acc = ref 0. in
    for i = 0 to Array.length x - 1 do
      acc := !acc +. Float.abs (x.(i) -. y.(i))
    done;
    !acc
  | Chi2 ->
    let acc = ref 0. in
    for i = 0 to Array.length x - 1 do
      let s = x.(i) +. y.(i) in
      if s > 0. then begin
        let d = x.(i) -. y.(i) in
        acc := !acc +. (d *. d /. s)
      end
    done;
    !acc

(* [eval kind cols.(i) y] into out.(i) for i in [lo, hi), four instances
   per step so that four independent sums are in flight.  Each sum is
   still taken from +0. in ascending feature order with [eval]'s terms,
   and L2 takes its square root last, so every entry is bitwise [eval]'s.
   The last (hi − lo) mod 4 instances call [eval] itself. *)
let column_into kind cols y out lo hi =
  let d = Array.length y in
  for i = lo to hi - 1 do
    if Array.length cols.(i) <> d then invalid_arg "Distance.column_into: dimension mismatch"
  done;
  let i = ref lo in
  while !i + 3 < hi do
    let c0 = cols.(!i) and c1 = cols.(!i + 1) and c2 = cols.(!i + 2) and c3 = cols.(!i + 3) in
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
    (match kind with
    | Sq_l2 | L2 ->
      for f = 0 to d - 1 do
        let yf = Array.unsafe_get y f in
        let e0 = Array.unsafe_get c0 f -. yf and e1 = Array.unsafe_get c1 f -. yf in
        let e2 = Array.unsafe_get c2 f -. yf and e3 = Array.unsafe_get c3 f -. yf in
        s0 := !s0 +. (e0 *. e0);
        s1 := !s1 +. (e1 *. e1);
        s2 := !s2 +. (e2 *. e2);
        s3 := !s3 +. (e3 *. e3)
      done
    | L1 ->
      for f = 0 to d - 1 do
        let yf = Array.unsafe_get y f in
        s0 := !s0 +. Float.abs (Array.unsafe_get c0 f -. yf);
        s1 := !s1 +. Float.abs (Array.unsafe_get c1 f -. yf);
        s2 := !s2 +. Float.abs (Array.unsafe_get c2 f -. yf);
        s3 := !s3 +. Float.abs (Array.unsafe_get c3 f -. yf)
      done
    | Chi2 ->
      for f = 0 to d - 1 do
        let yf = Array.unsafe_get y f in
        let x0 = Array.unsafe_get c0 f and x1 = Array.unsafe_get c1 f in
        let x2 = Array.unsafe_get c2 f and x3 = Array.unsafe_get c3 f in
        if x0 +. yf > 0. then s0 := !s0 +. ((x0 -. yf) *. (x0 -. yf) /. (x0 +. yf));
        if x1 +. yf > 0. then s1 := !s1 +. ((x1 -. yf) *. (x1 -. yf) /. (x1 +. yf));
        if x2 +. yf > 0. then s2 := !s2 +. ((x2 -. yf) *. (x2 -. yf) /. (x2 +. yf));
        if x3 +. yf > 0. then s3 := !s3 +. ((x3 -. yf) *. (x3 -. yf) /. (x3 +. yf))
      done);
    let l2 = kind = L2 in
    out.(!i) <- (if l2 then sqrt !s0 else !s0);
    out.(!i + 1) <- (if l2 then sqrt !s1 else !s1);
    out.(!i + 2) <- (if l2 then sqrt !s2 else !s2);
    out.(!i + 3) <- (if l2 then sqrt !s3 else !s3);
    i := !i + 4
  done;
  for i = !i to hi - 1 do
    out.(i) <- eval kind cols.(i) y
  done

(* Both Gram-construction entry points are row-partitioned across the domain
   pool: every output row is owned by exactly one chunk and each entry is an
   independent evaluation, so results are trivially deterministic. *)

let cross kind a b =
  let da, na = Mat.dims a in
  let db, nb = Mat.dims b in
  if da <> db then invalid_arg "Distance.cross: feature dimension mismatch";
  let cols_a = Array.init na (Mat.col a) in
  let cols_b = Array.init nb (Mat.col b) in
  let out = Mat.create na nb in
  Parallel.parallel_for ~cost:(na * nb * da) ~n:na (fun lo hi ->
      for i = lo to hi - 1 do
        for j = 0 to nb - 1 do
          Mat.set out i j (eval kind cols_a.(i) cols_b.(j))
        done
      done);
  out

(* Only the upper triangle is evaluated; the strict lower triangle mirrors
   the stored float, so symmetry is exact by construction.  Rows of the
   triangle have wildly different lengths (row 0 has n entries, row n−1 has
   one), so the parallel index t owns the *pair* of rows t and n−1−t —
   every t costs n+1 evaluations and the pool chunks stay balanced.  Each
   output row is still written by exactly one chunk and every entry is the
   same single [eval] call the sequential loop would make, so the matrix is
   bitwise identical at any pool size. *)
(* Pass counter, for regression tests that pin how many O(N²·d) pairwise
   sweeps a pipeline performs (e.g. Kernel.fit + Kernel.gram must do one). *)
let passes = ref 0
let pairwise_count () = !passes

let pairwise kind x =
  incr passes;
  let d, n = Mat.dims x in
  let cols = Array.init n (Mat.col x) in
  let out = Mat.create n n in
  let half = (n + 1) / 2 in
  Parallel.parallel_for ~cost:(n * n * d / 2) ~n:half (fun lo hi ->
      for t = lo to hi - 1 do
        let fill i =
          for j = i to n - 1 do
            let dist = if i = j then 0. else eval kind cols.(i) cols.(j) in
            Mat.set out i j dist
          done
        in
        fill t;
        let i2 = n - 1 - t in
        if i2 <> t then fill i2
      done);
  (* Mirror pass: row i copies from already-final rows j < i — row
     ownership again, and the mirrored value is the identical float. *)
  Parallel.parallel_for ~cost:(n * n) ~n (fun lo hi ->
      for i = lo to hi - 1 do
        for j = 0 to i - 1 do
          Mat.set out i j (Mat.get out j i)
        done
      done);
  out

let max_entry = Mat.max_abs

(* Streaming bandwidth: the largest pairwise distance in O(N) memory —
   what the Nyström path uses instead of materializing [pairwise].  Max is
   associative and commutative (and exact — no rounding), so the chunked
   reduction is pool-size invariant. *)
let max_pairwise kind x =
  let d, n = Mat.dims x in
  if n < 2 then 0.
  else begin
    let cols = Array.init n (Mat.col x) in
    let half = (n + 1) / 2 in
    Parallel.parallel_for_reduce ~cost:(n * n * d / 2) ~n:half ~init:0.
      ~combine:Float.max (fun lo hi ->
        let best = ref 0. in
        let scan i =
          for j = i + 1 to n - 1 do
            best := Float.max !best (eval kind cols.(i) cols.(j))
          done
        in
        for t = lo to hi - 1 do
          scan t;
          let i2 = n - 1 - t in
          if i2 <> t then scan i2
        done;
        !best)
  end
