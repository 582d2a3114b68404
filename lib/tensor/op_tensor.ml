type t =
  | Dense of Tensor.t
  | Factored of { weight : float; factors : Mat.t array }

let dense x = Dense x

let factored ~weight factors =
  let m = Array.length factors in
  if m = 0 then invalid_arg "Op_tensor.factored: no modes";
  let n = snd (Mat.dims factors.(0)) in
  if n < 1 then invalid_arg "Op_tensor.factored: no components";
  Array.iter
    (fun z ->
      if snd (Mat.dims z) <> n then
        invalid_arg "Op_tensor.factored: component count mismatch")
    factors;
  Factored { weight; factors }

let order = function
  | Dense x -> Tensor.order x
  | Factored { factors; _ } -> Array.length factors

let dims = function
  | Dense x -> Array.copy x.Tensor.dims
  | Factored { factors; _ } -> Array.map (fun z -> fst (Mat.dims z)) factors

let size op = Array.fold_left ( * ) 1 (dims op)

let n_components = function
  | Dense _ -> None
  | Factored { factors; _ } -> Some (snd (Mat.dims factors.(0)))

let all_finite = function
  | Dense x -> Tensor.all_finite x
  | Factored { weight; factors } ->
    Float.is_finite weight && Array.for_all Mat.all_finite factors

(* ------------------------------------------------------------------ *)
(* Dense MTTKRP: X₍ₖ₎ · (⊙_{q≠k} U_q) without materializing either
   operand — one pass over the tensor entries, carrying the running
   row-product of the non-k factor rows.  O(size · r) multiplies,
   O(m · r) scratch per domain.

   The mode-k index range [lo, hi) slices the output: a slice touches only
   rows [lo .. hi-1] of V, so partitioning mode k across the domain pool
   gives each chunk exclusive ownership of its V rows, and within a row the
   traversal (hence accumulation) order is identical to the sequential walk —
   results are bitwise-deterministic for any pool size. *)
let dense_mttkrp_slice (x : Tensor.t) us k vd ~lo ~hi =
  let m = Tensor.order x in
  let dims = x.Tensor.dims and strides = x.Tensor.strides and data = x.Tensor.data in
  let r = snd (Mat.dims us.(0)) in
  let scratch = Array.init (m + 1) (fun _ -> Array.make r 1.) in
  let rec go level base ik coeff =
    if level = m - 1 then begin
      if level = k then
        for i = lo to hi - 1 do
          let xv = Array.unsafe_get data (base + i) in
          if xv <> 0. then begin
            let vrow = i * r in
            for c = 0 to r - 1 do
              Array.unsafe_set vd (vrow + c)
                (Array.unsafe_get vd (vrow + c) +. (xv *. Array.unsafe_get coeff c))
            done
          end
        done
      else begin
        let ud = (us.(level) : Mat.t).Mat.data in
        let vrow = ik * r in
        for i = 0 to dims.(level) - 1 do
          let xv = Array.unsafe_get data (base + i) in
          if xv <> 0. then begin
            let urow = i * r in
            for c = 0 to r - 1 do
              Array.unsafe_set vd (vrow + c)
                (Array.unsafe_get vd (vrow + c)
                +. (xv *. Array.unsafe_get coeff c *. Array.unsafe_get ud (urow + c)))
            done
          end
        done
      end
    end
    else begin
      let stride = strides.(level) in
      if level = k then
        for i = lo to hi - 1 do
          go (level + 1) (base + (i * stride)) i coeff
        done
      else begin
        let next = scratch.(level) in
        let ud = (us.(level) : Mat.t).Mat.data in
        for i = 0 to dims.(level) - 1 do
          let urow = i * r in
          for c = 0 to r - 1 do
            Array.unsafe_set next c
              (Array.unsafe_get coeff c *. Array.unsafe_get ud (urow + c))
          done;
          go (level + 1) (base + (i * stride)) ik next
        done
      end
    end
  in
  go 0 0 0 scratch.(m)

let dense_mttkrp (x : Tensor.t) us k =
  let dims = x.Tensor.dims in
  let r = snd (Mat.dims us.(0)) in
  let v = Mat.create dims.(k) r in
  let vd = (v : Mat.t).Mat.data in
  Parallel.parallel_for ~cost:(Tensor.size x * r) ~n:dims.(k) (fun lo hi ->
      dense_mttkrp_slice x us k vd ~lo ~hi);
  v

(* Hadamard product over the factored blocks: ⊛_{q≠skip} (f q zq), an n×r
   matrix.  The GEMMs inside f run on the Parallel pool; the Hadamard itself
   is cheap. *)
let hadamard_excluding factors ~skip ~rows ~cols f =
  let acc = ref (Mat.make rows cols 1.) in
  Array.iteri (fun q z -> if q <> skip then acc := Mat.map2 ( *. ) !acc (f q z)) factors;
  !acc

let mttkrp op us k =
  let m = order op in
  if Array.length us <> m then invalid_arg "Op_tensor.mttkrp: arity mismatch";
  if k < 0 || k >= m then invalid_arg "Op_tensor.mttkrp: bad mode";
  match op with
  | Dense x -> dense_mttkrp x us k
  | Factored { weight; factors } ->
    (* Vₖ = w · Zₖ · ⊛_{q≠k}(ZqᵀUq) — never touches ∏dₚ entries. *)
    let n = snd (Mat.dims factors.(0)) in
    let r = snd (Mat.dims us.(0)) in
    let h =
      hadamard_excluding factors ~skip:k ~rows:n ~cols:r (fun q z -> Mat.mul_tn z us.(q))
    in
    Mat.scale weight (Mat.mul factors.(k) h)

(* ------------------------------------------------------------------ *)
(* The factored Gram pass: ‖M‖² = w²·1ᵀ(⊛ₚGₚ)1 (⟨M, M⟩ = w²Σᵢⱼ∏ₚ⟨zₚᵢ, zₚⱼ⟩)
   and the mode Grams w²·ZₖHₖZₖᵀ with Hₖ = ⊛_{q≠k}G_q
   (M₍ₖ₎ = w·Zₖ(⊙_{q≠k}Z_q)ᵀ), where Gₚ = ZₚᵀZₚ are the N×N view Grams.
   Every Gₚ and every Hₖ is symmetric, so the pass only ever forms the
   upper block row of each.  With H′ₖ the strict upper triangle of Hₖ plus
   half its diagonal, and +0. below it, Hₖ = H′ₖ + H′ₖᵀ, so the mode Gram
   is w²·(Xₖ + Xₖᵀ) with Xₖ = Zₖ·H′ₖ·Zₖᵀ.  The pass streams over blocks
   I = [i₀, i₀+b) of [gram_block_rows] rows; per block:
   - one GEMM per needed view forms Gₚ[I, i₀:] = Zₚ[:, I]ᵀ·Zₚ[:, i₀:],
     reading both operands straight from Zₚ as sub-blocks (b·(N−i₀)·dₚ
     multiply-adds);
   - the norm adds the block's upper-triangle cells of ⊛ₚGₚ;
   - per requested mode k, the chain H′ₖ[I, i₀:], zero left of the
     diagonal, then one GEMM Rₖ = H′ₖ[I, i₀:]·Zₖ[:, i₀:]ᵀ (b × dₖ,
     b·(N−i₀)·dₖ multiply-adds) and one accumulating dₖ × dₖ product
     Xₖ += Zₖ[:, I]·Rₖ.
   Summed over blocks that is N²·dₚ flops per Gram and N²·dₖ per mode:
   2·N²·Σdₚ for the joint pass, N²·Σdₚ for the norm alone, plus 2·N·dₖ²
   per mode for the Xₖ.  Memory is m + 1 buffers of b·N, one of b·dₖ and
   the dₖ × dₖ Xₖ; no N×N and no dₖ × N array exists.

   Each mode Gram is bitwise w²·(X + Xᵀ) with X = Zₖ·(H′ₖ·Zₖᵀ), both
   products by the GEMM contract (kept in the tests as the oracle):
   - a cell Gₚ[i, j] is the ascending-l sum Σₗ Zₚ[l,i]·Zₚ[l,j] from +0.,
     which is what tgram computes for i ≤ j;
   - the Hadamard chain starts from 1 and multiplies the views in ascending
     order, as [Mat.make n n 1.] folded with [Mat.map2 ( *. )] did, and a
     diagonal cell is then halved;
   - row i ∈ I of H′ₖ·Zₖᵀ leaves out the columns j < i₀.  They are +0. in
     H′ₖ, so for finite Zₖ their terms are ±0., which change nothing in a
     sum that starts at +0. (it never becomes −0.);
   - each block adds its terms of Xₖ in ascending i onto the blocks before
     it, onto an Xₖ cleared to +0.: by the GEMM's accumulation contract,
     the one product Zₖ·(H′ₖ·Zₖᵀ).
   The norm is one sequential accumulation from +0. over the blocks, then
   their rows, in ascending order; row i adds c[i,i], then 2·c[i,j] for
   j = i+1 … N−1 ascending, with c = ⊛ₚGₚ. *)

let gram_block_rows = 128

(* The Hadamard chain (…((1·g_{q₀})·g_{q₁})…) of cell t over the views
   q ≠ skip. *)
let[@inline] chain_cell (gs : float array array) ~skip t =
  let v = ref 1. in
  for q = 0 to Array.length gs - 1 do
    if q <> skip then v := !v *. Array.unsafe_get (Array.unsafe_get gs q) t
  done;
  !v

(* [(w²·1ᵀ(⊛ₚGₚ)1, [| mode Gram of each k in modes |])]; the norm is 0
   when [norm] is false. *)
let gram_pass ~weight factors ~norm ~modes =
  let m = Array.length factors and n = snd (Mat.dims factors.(0)) in
  let dim q = fst (Mat.dims factors.(q)) and z q = (factors.(q) : Mat.t).Mat.data in
  (* Gₚ is needed for the norm and for every mode other than p. *)
  let needed q = norm || Array.exists (fun k -> k <> q) modes in
  let b = min gram_block_rows n in
  (* Block rows of the Gₚ and of one chain, stored at the block's width
     N − i₀, and one block of Rₖ; sized for the first, widest block and
     reused without clearing, since every GEMM into them overwrites. *)
  let gs = Array.init m (fun q -> if needed q then Array.make (b * n) 0. else [||]) in
  let chain = Array.make (b * n) 0. in
  let rk = Array.make (b * Array.fold_left (fun d k -> max d (dim k)) 0 modes) 0. in
  let xs = Array.map (fun k -> Mat.create (dim k) (dim k)) modes in
  let total = ref 0. in
  for blk = 0 to ((n + b - 1) / b) - 1 do
    let i0 = blk * b in
    let rows = min b (n - i0) and width = n - i0 in
    (* Gₚ[I, i₀:] = Zₚ[:, I]ᵀ·Zₚ[:, i₀:], both operands read in place. *)
    Array.iteri
      (fun q g ->
        if needed q then
          Gemm.gemm ~ta:true ~tb:false ~m:rows ~n:width ~k:(dim q) ~a:(z q) ~a_off:i0 ~lda:n
            ~b:(z q) ~b_off:i0 ~ldb:n g)
      gs;
    (* The block's upper-triangle cells of ⊛ₚGₚ: the diagonal once, the
       rest twice. *)
    if norm then begin
      let acc = ref !total in
      for r = 0 to rows - 1 do
        let diag = (r * width) + r in
        acc := !acc +. chain_cell gs ~skip:(-1) diag;
        for t = diag + 1 to ((r + 1) * width) - 1 do
          acc := !acc +. (2. *. chain_cell gs ~skip:(-1) t)
        done
      done;
      total := !acc
    end;
    Array.iteri
      (fun i k ->
        (* H′ₖ[I, i₀:]: +0. left of the diagonal, half the chain on it. *)
        Parallel.parallel_for ~cost:(rows * width * m) ~n:rows (fun lo hi ->
            for row = lo to hi - 1 do
              let diag = (row * width) + row in
              Array.fill chain (row * width) row 0.;
              Array.unsafe_set chain diag (0.5 *. chain_cell gs ~skip:k diag);
              for t = diag + 1 to ((row + 1) * width) - 1 do
                Array.unsafe_set chain t (chain_cell gs ~skip:k t)
              done
            done);
        let d = dim k in
        (* Rₖ = H′ₖ[I, i₀:]·Zₖ[:, i₀:]ᵀ, then Xₖ += Zₖ[:, I]·Rₖ. *)
        Gemm.gemm ~ta:false ~tb:true ~m:rows ~n:d ~k:width ~a:chain ~b:(z k) ~b_off:i0 ~ldb:n rk;
        Gemm.gemm ~accumulate:true ~ta:false ~tb:false ~m:d ~n:d ~k:rows ~a:(z k) ~a_off:i0
          ~lda:n ~b:rk xs.(i).Mat.data)
      modes
  done;
  let w2 = weight *. weight in
  let symmetrized (x : Mat.t) =
    Mat.init x.Mat.rows x.Mat.rows (fun a c -> w2 *. (Mat.get x a c +. Mat.get x c a))
  in
  (w2 *. !total, Array.map symmetrized xs)

let norm2 = function
  | Dense x -> Tensor.inner x x
  | Factored { weight; factors } -> fst (gram_pass ~weight factors ~norm:true ~modes:[||])

let mode_gram op k =
  if k < 0 || k >= order op then invalid_arg "Op_tensor.mode_gram: bad mode";
  match op with
  | Dense x -> Mat.gram (Unfold.unfold x k)
  | Factored { weight; factors } ->
    (snd (gram_pass ~weight factors ~norm:false ~modes:[| k |])).(0)

let norm2_and_mode_grams = function
  | Dense x as op -> (norm2 op, Array.init (Tensor.order x) (mode_gram op))
  | Factored { weight; factors } ->
    gram_pass ~weight factors ~norm:true ~modes:(Array.init (Array.length factors) Fun.id)

let inner_kruskal op lambda us =
  let m = order op in
  if Array.length us <> m then invalid_arg "Op_tensor.inner_kruskal: arity mismatch";
  let r = Array.length lambda in
  Array.iter
    (fun u ->
      if snd (Mat.dims u) <> r then invalid_arg "Op_tensor.inner_kruskal: rank mismatch")
    us;
  match op with
  | Dense x ->
    (* ⟨X, ⟦λ; U⟧⟩ = Σ_c λ_c ⟨v_c, u_c⟩ with V the final-mode MTTKRP. *)
    let v = dense_mttkrp x us (m - 1) in
    let acc = ref 0. in
    for c = 0 to r - 1 do
      acc := !acc +. (lambda.(c) *. Vec.dot (Mat.col v c) (Mat.col us.(m - 1) c))
    done;
    !acc
  | Factored { weight; factors } ->
    (* w Σᵢ Σ_c λ_c ∏ₚ ⟨zₚᵢ, uₚ_c⟩ = w · 1ᵀ(⊛ₚ ZₚᵀUₚ)λ. *)
    let n = snd (Mat.dims factors.(0)) in
    let h =
      hadamard_excluding factors ~skip:(-1) ~rows:n ~cols:r (fun p z ->
          Mat.mul_tn z us.(p))
    in
    let total = ref 0. in
    for c = 0 to r - 1 do
      let col_sum = ref 0. in
      for i = 0 to n - 1 do
        col_sum := !col_sum +. Mat.get h i c
      done;
      total := !total +. (lambda.(c) *. !col_sum)
    done;
    weight *. !total

(* ------------------------------------------------------------------ *)
(* The factored materialization as one accumulating GEMM.  Read row-major,
   the tensor is the (∏_{p<m−1} dₚ) × d_{m−1} matrix KR · Z_{m−1}ᵀ, where
   row (a₀, …, a_{m−2}) of the Khatri–Rao matrix KR is the running product
   (…((w·z₀[a₀,:])·z₁[a₁,:])…)·z_{m−2}[a_{m−2},:] over the n components;
   for m = 1 its single row is w.  KR never exists: [Gemm.accumulate_packed_a]
   asks for one block of rows × depth at a time, and [pack_kr] writes it
   straight into the GEMM's packed panels, so nothing but the target and
   the GEMM's fixed scratch is allocated, whatever n is.

   Onto a zeroed target the result is bitwise the historical loop that
   added one rank-1 term per component (kept in the tests as the oracle):
   - a GEMM cell is the sum from +0. of its products KR[row,i]·z_{m−1}[a,i]
     in ascending i, with no FMA and no zero skips — the loop's per-cell
     sum over the components;
   - a KR entry associates as the loop's running coefficient did, w·z₀
     first, and the GEMM product is the loop's innermost coeff·x;
   - the loop skipped the subtree under a zero z_p entry (p < m−1).  When
     no product is infinite or NaN a skipped term is ±0, and a sum that
     starts at +0. never becomes −0, so adding it changes nothing.  A
     non-finite factor entry is never hidden this way: every cell it
     touches comes out non-finite.
   Onto a target that already holds a sum, each cell continues that sum
   in the same ascending order (the GEMM's accumulation contract), which
   is how the streaming Builder folds batch after batch into one tensor.
   Blocks own disjoint output rows, so any pool size gives the same bits. *)

(* KR rows [i0, i0 + mlen) over components [p0, p0 + klen) into [ap], in
   the GEMM's panel layout: entry l of local row r at
   ap.((r / mr)·klen·mr + l·mr + r mod mr).  Consecutive rows that share
   the prefix (a₀ … a_{m−3}) form runs of d_{m−2}; each run's prefix
   (…(w·z₀[a₀,:])…)·z_{m−3}[a_{m−3},:] is built in its first row's slot,
   the other rows multiply it by their z_{m−2} row, and the first row
   multiplies it last.  [span.(p)] is the number of KR rows per index of
   mode p. *)
let pack_kr ~weight factors ~span ~n ~i0 ~mlen ~p0 ~klen ap =
  let m = Array.length factors and mr = 4 in
  let slot r = ((r / mr) * klen * mr) + (r mod mr) in
  let fill_weight s0 =
    for l = 0 to klen - 1 do
      Array.unsafe_set ap (s0 + (l * mr)) weight
    done
  in
  if m = 1 then fill_weight (slot 0)
  else begin
    let zl = (factors.(m - 2) : Mat.t).Mat.data and dl = fst (Mat.dims factors.(m - 2)) in
    let first = ref 0 in
    while !first < mlen do
      let i = i0 + !first in
      let last = min (mlen - 1) (!first + dl - 1 - (i mod dl)) in
      let s0 = slot !first in
      fill_weight s0;
      for p = 0 to m - 3 do
        let z = (factors.(p) : Mat.t).Mat.data in
        let src = ((i / span.(p) mod fst (Mat.dims factors.(p))) * n) + p0 in
        for l = 0 to klen - 1 do
          let d = s0 + (l * mr) in
          Array.unsafe_set ap d (Array.unsafe_get ap d *. Array.unsafe_get z (src + l))
        done
      done;
      for r = !first + 1 to last do
        let dst = slot r and src = (((i0 + r) mod dl) * n) + p0 in
        for l = 0 to klen - 1 do
          Array.unsafe_set ap (dst + (l * mr))
            (Array.unsafe_get ap (s0 + (l * mr)) *. Array.unsafe_get zl (src + l))
        done
      done;
      let src = ((i mod dl) * n) + p0 in
      for l = 0 to klen - 1 do
        let d = s0 + (l * mr) in
        Array.unsafe_set ap d (Array.unsafe_get ap d *. Array.unsafe_get zl (src + l))
      done;
      first := last + 1
    done
  end

let add_into (out : Tensor.t) op =
  if out.Tensor.dims <> dims op then invalid_arg "Op_tensor.add_into: shape mismatch";
  match op with
  | Dense x ->
    Array.iteri (fun i v -> out.Tensor.data.(i) <- out.Tensor.data.(i) +. v) x.Tensor.data
  | Factored { weight; factors } ->
    let m = Array.length factors and n = snd (Mat.dims factors.(0)) in
    let last = factors.(m - 1) in
    let cols = fst (Mat.dims last) in
    let span = Array.init (m - 1) (fun p -> out.Tensor.strides.(p) / cols) in
    Gemm.accumulate_packed_a ~m:(Tensor.size out / cols) ~n:cols ~k:n
      ~pack_a:(pack_kr ~weight factors ~span ~n) ~b:last.Mat.data out.Tensor.data

let to_tensor = function
  | Dense x -> x
  | op ->
    let out = Tensor.create (dims op) in
    add_into out op;
    out

(* ------------------------------------------------------------------ *)
(* The route: which representation a fit solves on, from the shape alone.
   Dense pays one to_tensor pass, 2·n·∏dₚ GEMM flops, and then the dense
   norm, HOSVD mode Grams and ALS sweeps, about κ flops per entry;
   factored pays the streamed Gram pass, 2·n²·Σdₚ.  Both constants come
   from scripts/route_crossover.sh, which times the two routes around the
   crossover: its fits put the factored coefficient at 1.8–2.1, so the
   pass's flop count stands, and κ at 670–700 with that coefficient
   (DESIGN.md, "Materialization-free operator layer"). *)

let dense_entry_cap = 100_000_000
let kappa = 700.

let pinned = ref None
let pinned_route () = !pinned
let pin_route route = pinned := route

let materializes ~dims ~n =
  (* Floats: ∏dₚ overflows an int on many-view shapes. *)
  let fdims = Array.map float_of_int dims and nf = float_of_int n in
  let entries = Array.fold_left ( *. ) 1. fdims in
  entries <= float_of_int dense_entry_cap
  &&
  match !pinned with
  | Some `Dense -> true
  | Some `Factored -> false
  | None ->
    entries *. ((2. *. nf) +. kappa)
    < 2. *. nf *. nf *. Array.fold_left ( +. ) 0. fdims

let route ~stage ~where op =
  (* Checked before the route can allocate ∏dₚ entries: a non-finite
     factor implies a non-finite tensor. *)
  if not (all_finite op) then Error (Robust.Non_finite { stage; where })
  else
    match op with
    | Factored { factors; _ } when materializes ~dims:(dims op) ~n:(snd (Mat.dims factors.(0)))
      ->
      Ok (Dense (to_tensor op))
    | op -> Ok op
