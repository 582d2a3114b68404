type t = { values : Vec.t; vectors : Mat.t }
type info = { sweeps : int; residual : float; converged : bool }

(* Sort descending by eigenvalue, permuting eigenvector columns along. *)
let sorted_result n diag vectors =
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare diag.(j) diag.(i)) order;
  { values = Array.map (fun i -> diag.(i)) order; vectors = Mat.select_cols vectors order }

(* ------------------------------------------------------------------ *)
(* The classical two-stage solver.
   Stage 1 — Householder tridiagonalization (tred2-style): n−2 reflectors,
   each a symmetric matrix-vector product plus a rank-2 update
   A ← A − v wᵀ − w vᵀ on the shrinking lower triangle; both are
   row-banded across the [Parallel] pool with exclusive row ownership and
   sequential-order accumulation per cell, so the reduction is bitwise
   identical for any pool size.  The reflectors are accumulated into the
   full orthogonal basis Q with the same row/column-ownership discipline.
   Stage 2 — implicit-shift QL iteration (tql2-style) on the tridiagonal
   (d, e): Wilkinson-style shifts from the leading 2×2, deflation on
   negligible e entries, typically 1–3 iterations per eigenvalue.  Each QL
   step's Givens sequence is computed as scalars first and then replayed
   against the eigenvector rows in a pool-banded pass — every row applies
   the identical rotation list in the identical order, preserving bitwise
   determinism.
   Total ≈ (4/3)n³ (reduce) + 2n³ (accumulate + rotate) flops, versus
   cyclic Jacobi's ≈ 6n³ per sweep × 6–10 sweeps.                        *)

let tridiagonal_info ~max_iter ~eps a0 =
  let n, _ = Mat.dims a0 in
  (* Symmetrized flat working copy; [z] is progressively overwritten and
     ends as the eigenvector matrix (columns aligned with [d]). *)
  let z = Array.make (max 1 (n * n)) 0. in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      z.((i * n) + j) <- 0.5 *. (Mat.get a0 i j +. Mat.get a0 j i)
    done
  done;
  let d = Array.make (max 1 n) 0. and e = Array.make (max 1 n) 0. in
  (* --- Stage 1: reduce to tridiagonal, reflectors stored in place. --- *)
  for i = n - 1 downto 1 do
    let l = i - 1 in
    let rowi = i * n in
    let h = ref 0. in
    if l > 0 then begin
      let scale = ref 0. in
      for k = 0 to l do
        scale := !scale +. Float.abs z.(rowi + k)
      done;
      if !scale = 0. then e.(i) <- z.(rowi + l)
      else begin
        for k = 0 to l do
          let v = z.(rowi + k) /. !scale in
          z.(rowi + k) <- v;
          h := !h +. (v *. v)
        done;
        let f = z.(rowi + l) in
        let g = if f >= 0. then -.sqrt !h else sqrt !h in
        e.(i) <- !scale *. g;
        h := !h -. (f *. g);
        z.(rowi + l) <- f -. g;
        let hv = !h in
        (* p = A v / h into e.(0..l).  Row j owns e.(j) and its stash of
           v/h in column i; the symmetric product reads row j's own prefix
           and the strictly-lower column j — neither is written this pass. *)
        Parallel.parallel_for ~cost:((l + 1) * (l + 1)) ~n:(l + 1) (fun lo hi ->
            for j = lo to hi - 1 do
              let rowj = j * n in
              z.(rowj + i) <- z.(rowi + j) /. hv;
              let g = ref 0. in
              for k = 0 to j do
                g := !g +. (Array.unsafe_get z (rowj + k) *. Array.unsafe_get z (rowi + k))
              done;
              for k = j + 1 to l do
                g := !g +. (Array.unsafe_get z ((k * n) + j) *. Array.unsafe_get z (rowi + k))
              done;
              e.(j) <- !g /. hv
            done);
        let f = ref 0. in
        for j = 0 to l do
          f := !f +. (e.(j) *. z.(rowi + j))
        done;
        (* w = p − (vᵀp / 2h) v, then the GEMM-shaped rank-2 update
           A ← A − v wᵀ − w vᵀ on the lower triangle, one row per cell
           owner — each cell is touched exactly once per reflector. *)
        let hh = !f /. (hv +. hv) in
        for j = 0 to l do
          e.(j) <- e.(j) -. (hh *. z.(rowi + j))
        done;
        Parallel.parallel_for ~cost:((l + 1) * (l + 1)) ~n:(l + 1) (fun lo hi ->
            for j = lo to hi - 1 do
              let fv = Array.unsafe_get z (rowi + j) and gw = Array.unsafe_get e j in
              let rowj = j * n in
              for k = 0 to j do
                Array.unsafe_set z (rowj + k)
                  (Array.unsafe_get z (rowj + k)
                  -. ((fv *. Array.unsafe_get e k) +. (gw *. Array.unsafe_get z (rowi + k))))
              done
            done)
      end
    end
    else if n > 1 then e.(i) <- z.(rowi + l);
    d.(i) <- !h
  done;
  (* --- Accumulate the reflectors into the orthogonal basis Q. --- *)
  if n > 0 then begin
    d.(0) <- 0.;
    e.(0) <- 0.
  end;
  for i = 0 to n - 1 do
    let rowi = i * n in
    if d.(i) <> 0. then
      (* Q₀..ᵢ₋₁ ← Q₀..ᵢ₋₁ (I − β v vᵀ): column j owns its strided writes;
         row i and column i are read-only until the zeroing below. *)
      Parallel.parallel_for ~cost:(2 * i * i) ~n:i (fun lo hi ->
          for j = lo to hi - 1 do
            let g = ref 0. in
            for k = 0 to i - 1 do
              g := !g +. (Array.unsafe_get z (rowi + k) *. Array.unsafe_get z ((k * n) + j))
            done;
            let g = !g in
            for k = 0 to i - 1 do
              let kj = (k * n) + j in
              Array.unsafe_set z kj
                (Array.unsafe_get z kj -. (g *. Array.unsafe_get z ((k * n) + i)))
            done
          done);
    d.(i) <- z.(rowi + i);
    z.(rowi + i) <- 1.;
    for j = 0 to i - 1 do
      z.((j * n) + i) <- 0.;
      z.(rowi + j) <- 0.
    done
  done;
  (* --- Stage 2: implicit-shift QL with deflation on (d, e). --- *)
  for i = 1 to n - 1 do
    e.(i - 1) <- e.(i)
  done;
  if n > 0 then e.(n - 1) <- 0.;
  let total_iter = ref 0 in
  let all_converged = ref true in
  let cs = Array.make (max 1 n) 0.
  and sn = Array.make (max 1 n) 0.
  and ridx = Array.make (max 1 n) 0 in
  for l = 0 to n - 1 do
    let iter = ref 0 in
    let finished = ref false in
    while not !finished do
      (* First negligible off-diagonal at or after l (relative test, so the
         threshold follows the local eigenvalue scale; a NaN entry never
         tests negligible and runs the caps instead of looping). *)
      let m = ref l in
      let scanning = ref true in
      while !scanning && !m < n - 1 do
        let dd = Float.abs d.(!m) +. Float.abs d.(!m + 1) in
        if Float.abs e.(!m) <= eps *. dd then scanning := false else incr m
      done;
      let m = !m in
      if m = l then finished := true
      else if !iter >= max_iter then begin
        all_converged := false;
        finished := true
      end
      else begin
        incr iter;
        incr total_iter;
        (* Shift from the leading 2×2 of the unreduced block. *)
        let g0 = (d.(l + 1) -. d.(l)) /. (2. *. e.(l)) in
        let r0 = Float.hypot g0 1. in
        let g = ref (d.(m) -. d.(l) +. (e.(l) /. (if g0 >= 0. then g0 +. r0 else g0 -. r0))) in
        let s = ref 1. and c = ref 1. and p = ref 0. in
        let nrot = ref 0 in
        let broke = ref false in
        let i = ref (m - 1) in
        while (not !broke) && !i >= l do
          let f = !s *. e.(!i) and b = !c *. e.(!i) in
          let r = Float.hypot f !g in
          e.(!i + 1) <- r;
          if r = 0. then begin
            (* Premature deflation mid-chase: drop the shift and restart. *)
            d.(!i + 1) <- d.(!i + 1) -. !p;
            e.(m) <- 0.;
            broke := true
          end
          else begin
            s := f /. r;
            c := !g /. r;
            let gg = d.(!i + 1) -. !p in
            let rr = ((d.(!i) -. gg) *. !s) +. (2. *. !c *. b) in
            p := !s *. rr;
            d.(!i + 1) <- gg +. !p;
            g := (!c *. rr) -. b;
            cs.(!nrot) <- !c;
            sn.(!nrot) <- !s;
            ridx.(!nrot) <- !i;
            incr nrot;
            decr i
          end
        done;
        (* Replay the Givens sequence against the eigenvector rows,
           pool-banded: every row applies the identical scalar list in the
           identical order, so chunking cannot change the arithmetic. *)
        let nrot = !nrot in
        if nrot > 0 then
          Parallel.parallel_for ~cost:(n * nrot) ~n (fun lo hi ->
              for k = lo to hi - 1 do
                let rowk = k * n in
                for q = 0 to nrot - 1 do
                  let i = Array.unsafe_get ridx q in
                  let cq = Array.unsafe_get cs q and sq = Array.unsafe_get sn q in
                  let zi = Array.unsafe_get z (rowk + i) in
                  let zi1 = Array.unsafe_get z (rowk + i + 1) in
                  Array.unsafe_set z (rowk + i + 1) ((sq *. zi) +. (cq *. zi1));
                  Array.unsafe_set z (rowk + i) ((cq *. zi) -. (sq *. zi1))
                done
              done);
        if not !broke then begin
          d.(l) <- d.(l) -. !p;
          e.(l) <- !g;
          e.(m) <- 0.
        end
      end
    done
  done;
  let residual = ref 0. in
  for k = 0 to n - 2 do
    residual := !residual +. (2. *. e.(k) *. e.(k))
  done;
  let residual = sqrt !residual in
  let vectors =
    if n = 0 then Mat.create 0 0 else Mat.unsafe_of_flat ~rows:n ~cols:n z
  in
  let d = if n = 0 then [||] else d in
  ( sorted_result n d vectors,
    (* A non-finite residual (NaN/Inf input) must read as not converged even
       when every block hit its deflation test vacuously. *)
    { sweeps = !total_iter;
      residual;
      converged = !all_converged && Float.is_finite residual } )

(* ------------------------------------------------------------------ *)

let decompose_info ?(max_sweeps = 64) ?(eps = 1e-12) a0 =
  let n, m = Mat.dims a0 in
  if n <> m then invalid_arg "Eigen.decompose: not square";
  (* Fault injection: a forced iteration cap turns every non-trivial input
     into a visible Not_converged, proving the callers' degradation paths. *)
  let max_sweeps = if Robust.Inject.(active Sweep_cap) then 0 else max_sweeps in
  tridiagonal_info ~max_iter:max_sweeps ~eps a0

let decompose ?max_sweeps ?eps a0 =
  let eig, info = decompose_info ?max_sweeps ?eps a0 in
  if not info.converged then
    Robust.warnf "Eigen.decompose: sweep cap hit after %d sweeps (residual %g)" info.sweeps
      info.residual;
  eig

let decompose_checked ?(stage = "eigen") ?max_sweeps ?eps a0 =
  if not (Mat.all_finite a0) then
    Error (Robust.Non_finite { stage; where = "input matrix" })
  else begin
    let eig, info = decompose_info ?max_sweeps ?eps a0 in
    if not info.converged then
      Error (Robust.Not_converged { stage; sweeps = info.sweeps; residual = info.residual })
    else Ok eig
  end

let top_k { vectors; values } k =
  if k > Array.length values then invalid_arg "Eigen.top_k: k too large";
  Mat.sub_cols vectors 0 k
