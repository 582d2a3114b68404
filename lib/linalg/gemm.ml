(* Packed, register-blocked GEMM core — see DESIGN.md §10.

   Accumulation contract (shared with Mat's small-product loops): every
   output cell is the IEEE-754 sum of its k products taken one at a time in
   ascending-k order, starting from +0., with no zero skips and no FMA.
   Packing, register tiling, cache blocking and pool partitioning only
   reorder which *cells* are computed when — never the order of terms
   within a cell — so any blocking parameters and any pool size produce
   bitwise-identical results. *)

(* ------------------------------------------------------------------ *)
(* Blocking parameters.

   mr×nr = 4×4 register tile: 16 float accumulators plus 8 operand loads
   per depth step fit the 16 SSE2 registers of amd64 without spilling —
   measured fastest among 4×4 / 2×8 / unrolled variants on the target
   Xeon (~5 GFLOP/s, at the machine's scalar mul+add issue ceiling).

   kc: depth of one packed slab — an mr-wide A panel (kc·mr·8 = 8 KB) plus
   an nr-wide B panel stream stays L1-resident through the tile loop.
   mc: rows per packed A block (mc·kc·8 = 256 KB, L2-resident).
   nc: columns per packed B block (kc·nc·8 = 2 MB, L3-resident); also caps
   the scratch footprint of one band.  mc and nc are multiples of mr/nr so
   register tiles never straddle a cache block. *)
let mr = 4
let nr = 4
let kc = 256
let mc = 128
let nc = 1024

(* Below this many flops (2·m·n·k) the packing walk costs more than it
   saves; Mat routes such products to its plain loops (bitwise-identical by
   the accumulation contract, so the switch is invisible).  Crossover
   measured on the CP-ALS factor shapes (r≈8): tiny d×r products lose,
   d≈32³ products already win. *)
let default_small_cutoff = 16_384
let small_cutoff_v = ref default_small_cutoff
let small_cutoff () = !small_cutoff_v
let set_small_cutoff v = small_cutoff_v := max 0 v

(* ------------------------------------------------------------------ *)
(* Packing scratch, checked out for the duration of one band and returned
   afterwards.  Keying it by domain is not enough: the serving daemon's
   compute workers are systhreads of one domain, and a thread can be
   preempted mid-band, so two concurrent products would pack into one
   buffer.  The mutex-guarded free list hands every band its own scratch;
   buffers are grow-only and the list keeps them across calls, so
   steady-state GEMMs allocate only the result. *)

type scratch = {
  mutable ap : float array; (* packed A block: mpan panels × klen × mr *)
  mutable bp : float array; (* packed B block: npan panels × klen × nr *)
  tile : float array; (* mr×nr staging buffer for edge/diagonal tiles *)
}

let free = ref [||] (* free.(0 .. n_free-1) are idle *)
let n_free = ref 0
let free_mutex = Mutex.create ()

let checkout () =
  Mutex.lock free_mutex;
  let s =
    if !n_free > 0 then begin
      decr n_free;
      !free.(!n_free)
    end
    else { ap = [||]; bp = [||]; tile = Array.make (mr * nr) 0. }
  in
  Mutex.unlock free_mutex;
  s

let release s =
  Mutex.lock free_mutex;
  if !n_free = Array.length !free then
    free := Array.append !free (Array.make (max 4 !n_free) s);
  !free.(!n_free) <- s;
  incr n_free;
  Mutex.unlock free_mutex

let grown buf len = if Array.length buf >= len then buf else Array.make len 0.

(* ------------------------------------------------------------------ *)
(* Packing.

   A panels: panel ip holds rows [i0 + ip·mr, …); layout is depth-major,
   ap.(ip·klen·mr + l·mr + r), so the kernel reads mr contiguous values per
   depth step.  Rows beyond mlen are zero-padded — the kernel computes the
   padded cells and the store discards them, which keeps edge tiles exact.
   B panels mirror this with nr-wide column panels. *)

let pack_a ~ta ~lda ~a ~i0 ~mlen ~p0 ~klen ap =
  let mpan = (mlen + mr - 1) / mr in
  for ip = 0 to mpan - 1 do
    let ib = i0 + (ip * mr) in
    let vr = min mr (i0 + mlen - ib) in
    let dst0 = ip * (klen * mr) in
    if not ta then
      (* A[i,l] = a.(i·lda + l): each source row is contiguous in l. *)
      for r = 0 to mr - 1 do
        let dst = ref (dst0 + r) in
        if r < vr then begin
          let src = ((ib + r) * lda) + p0 in
          for l = 0 to klen - 1 do
            Array.unsafe_set ap !dst (Array.unsafe_get a (src + l));
            dst := !dst + mr
          done
        end
        else
          for _ = 1 to klen do
            Array.unsafe_set ap !dst 0.;
            dst := !dst + mr
          done
      done
    else
      (* A[i,l] = a.(l·lda + i): each depth step is contiguous in i. *)
      for l = 0 to klen - 1 do
        let src = ((p0 + l) * lda) + ib in
        let dst = dst0 + (l * mr) in
        for r = 0 to vr - 1 do
          Array.unsafe_set ap (dst + r) (Array.unsafe_get a (src + r))
        done;
        for r = vr to mr - 1 do
          Array.unsafe_set ap (dst + r) 0.
        done
      done
  done

let pack_b ~tb ~ldb ~b ~j0 ~nlen ~p0 ~klen bp =
  let npan = (nlen + nr - 1) / nr in
  for jp = 0 to npan - 1 do
    let jb = j0 + (jp * nr) in
    let vc = min nr (j0 + nlen - jb) in
    let dst0 = jp * (klen * nr) in
    if not tb then
      (* B[l,j] = b.(l·ldb + j): each depth step is contiguous in j. *)
      for l = 0 to klen - 1 do
        let src = ((p0 + l) * ldb) + jb in
        let dst = dst0 + (l * nr) in
        for q = 0 to vc - 1 do
          Array.unsafe_set bp (dst + q) (Array.unsafe_get b (src + q))
        done;
        for q = vc to nr - 1 do
          Array.unsafe_set bp (dst + q) 0.
        done
      done
    else
      (* B[l,j] = b.(j·ldb + l): each source column is contiguous in l. *)
      for q = 0 to nr - 1 do
        let dst = ref (dst0 + q) in
        if q < vc then begin
          let src = ((jb + q) * ldb) + p0 in
          for l = 0 to klen - 1 do
            Array.unsafe_set bp !dst (Array.unsafe_get b (src + l));
            dst := !dst + nr
          done
        end
        else
          for _ = 1 to klen do
            Array.unsafe_set bp !dst 0.;
            dst := !dst + nr
          done
      done
  done

(* ------------------------------------------------------------------ *)
(* The 4×4 register microkernel: load the C tile, accumulate klen depth
   steps into 16 register-resident accumulators, store back.  Interior
   tiles load/store rows directly; edge tiles and diagonal-straddling
   [up] tiles stage through the mr×nr [tile] buffer so inactive cells
   (padding, or strictly-lower cells of a syrk) are never touched. *)

let kern ap abase bp bbase klen c ldc i0 j0 vr vc up first tile =
  let full = vr = mr && vc = nr && ((not up) || j0 >= i0 + (mr - 1)) in
  let c00 = ref 0. and c01 = ref 0. and c02 = ref 0. and c03 = ref 0. in
  let c10 = ref 0. and c11 = ref 0. and c12 = ref 0. and c13 = ref 0. in
  let c20 = ref 0. and c21 = ref 0. and c22 = ref 0. and c23 = ref 0. in
  let c30 = ref 0. and c31 = ref 0. and c32 = ref 0. and c33 = ref 0. in
  (* On the first depth slab the accumulators start at the contract's +0.
     directly — c is still all +0. there, so skipping the load pass is
     bitwise identical and saves a full traversal of c. *)
  if first then ()
  else if full then begin
    let r0 = (i0 * ldc) + j0 in
    let r1 = r0 + ldc and r2 = r0 + (2 * ldc) and r3 = r0 + (3 * ldc) in
    c00 := Array.unsafe_get c r0;
    c01 := Array.unsafe_get c (r0 + 1);
    c02 := Array.unsafe_get c (r0 + 2);
    c03 := Array.unsafe_get c (r0 + 3);
    c10 := Array.unsafe_get c r1;
    c11 := Array.unsafe_get c (r1 + 1);
    c12 := Array.unsafe_get c (r1 + 2);
    c13 := Array.unsafe_get c (r1 + 3);
    c20 := Array.unsafe_get c r2;
    c21 := Array.unsafe_get c (r2 + 1);
    c22 := Array.unsafe_get c (r2 + 2);
    c23 := Array.unsafe_get c (r2 + 3);
    c30 := Array.unsafe_get c r3;
    c31 := Array.unsafe_get c (r3 + 1);
    c32 := Array.unsafe_get c (r3 + 2);
    c33 := Array.unsafe_get c (r3 + 3)
  end
  else begin
    Array.fill tile 0 (mr * nr) 0.;
    for r = 0 to vr - 1 do
      let crow = ((i0 + r) * ldc) + j0 in
      for q = 0 to vc - 1 do
        if (not up) || j0 + q >= i0 + r then
          Array.unsafe_set tile ((r * nr) + q) (Array.unsafe_get c (crow + q))
      done
    done;
    c00 := Array.unsafe_get tile 0;
    c01 := Array.unsafe_get tile 1;
    c02 := Array.unsafe_get tile 2;
    c03 := Array.unsafe_get tile 3;
    c10 := Array.unsafe_get tile 4;
    c11 := Array.unsafe_get tile 5;
    c12 := Array.unsafe_get tile 6;
    c13 := Array.unsafe_get tile 7;
    c20 := Array.unsafe_get tile 8;
    c21 := Array.unsafe_get tile 9;
    c22 := Array.unsafe_get tile 10;
    c23 := Array.unsafe_get tile 11;
    c30 := Array.unsafe_get tile 12;
    c31 := Array.unsafe_get tile 13;
    c32 := Array.unsafe_get tile 14;
    c33 := Array.unsafe_get tile 15
  end;
  for l = 0 to klen - 1 do
    let ao = abase + (l * mr) and bo = bbase + (l * nr) in
    let a0 = Array.unsafe_get ap ao in
    let a1 = Array.unsafe_get ap (ao + 1) in
    let a2 = Array.unsafe_get ap (ao + 2) in
    let a3 = Array.unsafe_get ap (ao + 3) in
    let b0 = Array.unsafe_get bp bo in
    let b1 = Array.unsafe_get bp (bo + 1) in
    let b2 = Array.unsafe_get bp (bo + 2) in
    let b3 = Array.unsafe_get bp (bo + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c02 := !c02 +. (a0 *. b2);
    c03 := !c03 +. (a0 *. b3);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c12 := !c12 +. (a1 *. b2);
    c13 := !c13 +. (a1 *. b3);
    c20 := !c20 +. (a2 *. b0);
    c21 := !c21 +. (a2 *. b1);
    c22 := !c22 +. (a2 *. b2);
    c23 := !c23 +. (a2 *. b3);
    c30 := !c30 +. (a3 *. b0);
    c31 := !c31 +. (a3 *. b1);
    c32 := !c32 +. (a3 *. b2);
    c33 := !c33 +. (a3 *. b3)
  done;
  if full then begin
    let r0 = (i0 * ldc) + j0 in
    let r1 = r0 + ldc and r2 = r0 + (2 * ldc) and r3 = r0 + (3 * ldc) in
    Array.unsafe_set c r0 !c00;
    Array.unsafe_set c (r0 + 1) !c01;
    Array.unsafe_set c (r0 + 2) !c02;
    Array.unsafe_set c (r0 + 3) !c03;
    Array.unsafe_set c r1 !c10;
    Array.unsafe_set c (r1 + 1) !c11;
    Array.unsafe_set c (r1 + 2) !c12;
    Array.unsafe_set c (r1 + 3) !c13;
    Array.unsafe_set c r2 !c20;
    Array.unsafe_set c (r2 + 1) !c21;
    Array.unsafe_set c (r2 + 2) !c22;
    Array.unsafe_set c (r2 + 3) !c23;
    Array.unsafe_set c r3 !c30;
    Array.unsafe_set c (r3 + 1) !c31;
    Array.unsafe_set c (r3 + 2) !c32;
    Array.unsafe_set c (r3 + 3) !c33
  end
  else begin
    Array.unsafe_set tile 0 !c00;
    Array.unsafe_set tile 1 !c01;
    Array.unsafe_set tile 2 !c02;
    Array.unsafe_set tile 3 !c03;
    Array.unsafe_set tile 4 !c10;
    Array.unsafe_set tile 5 !c11;
    Array.unsafe_set tile 6 !c12;
    Array.unsafe_set tile 7 !c13;
    Array.unsafe_set tile 8 !c20;
    Array.unsafe_set tile 9 !c21;
    Array.unsafe_set tile 10 !c22;
    Array.unsafe_set tile 11 !c23;
    Array.unsafe_set tile 12 !c30;
    Array.unsafe_set tile 13 !c31;
    Array.unsafe_set tile 14 !c32;
    Array.unsafe_set tile 15 !c33;
    for r = 0 to vr - 1 do
      let crow = ((i0 + r) * ldc) + j0 in
      for q = 0 to vc - 1 do
        if (not up) || j0 + q >= i0 + r then
          Array.unsafe_set c (crow + q) (Array.unsafe_get tile ((r * nr) + q))
      done
    done
  end

(* ------------------------------------------------------------------ *)
(* One pool chunk: rows [r0, r1) of the output.  BLIS-style loop nest —
   jc (nc column blocks) → pc (kc depth slabs, ascending, so every cell
   accumulates its terms in ascending-k order across slabs) → ic (mc row
   blocks) → register tiles.  Each chunk packs into its own checked-out
   scratch; B is repacked per chunk, which duplicates O(k·n) copy work but
   keeps the partitioning embarrassingly deterministic. *)

let band_with s ~ta ~tb ~n ~k ~lda ~ldb ~a ~b ~up c r0 r1 =
  if r1 > r0 && n > 0 && k > 0 then begin
    let klen_max = min kc k in
    let npan_cap = (min nc n + nr - 1) / nr in
    let bp = grown s.bp (klen_max * npan_cap * nr) in
    s.bp <- bp;
    let mpan_cap = (min mc (r1 - r0) + mr - 1) / mr in
    let ap = grown s.ap (klen_max * mpan_cap * mr) in
    s.ap <- ap;
    let tile = s.tile in
    let jc = ref 0 in
    while !jc < n do
      let j0 = !jc in
      let nlen = min nc (n - j0) in
      let npan = (nlen + nr - 1) / nr in
      let pc = ref 0 in
      while !pc < k do
        let p0 = !pc in
        let klen = min kc (k - p0) in
        pack_b ~tb ~ldb ~b ~j0 ~nlen ~p0 ~klen bp;
        let ic = ref r0 in
        while !ic < r1 do
          let i0 = !ic in
          let mlen = min mc (r1 - i0) in
          let mpan = (mlen + mr - 1) / mr in
          pack_a ~ta ~lda ~a ~i0 ~mlen ~p0 ~klen ap;
          for ip = 0 to mpan - 1 do
            let ib = i0 + (ip * mr) in
            let vr = min mr (i0 + mlen - ib) in
            let abase = ip * (klen * mr) in
            for jp = 0 to npan - 1 do
              let jb = j0 + (jp * nr) in
              let vc = min nr (j0 + nlen - jb) in
              (* Tiles with no cell on or above the diagonal are skipped
                 outright in the syrk case. *)
              if (not up) || jb + vc - 1 >= ib then
                kern ap abase bp (jp * (klen * nr)) klen c n ib jb vr vc up (p0 = 0) tile
            done
          done;
          ic := i0 + mlen
        done;
        pc := p0 + klen
      done;
      jc := j0 + nlen
    done
  end

let band ~ta ~tb ~n ~k ~lda ~ldb ~a ~b ~up c r0 r1 =
  let s = checkout () in
  match band_with s ~ta ~tb ~n ~k ~lda ~ldb ~a ~b ~up c r0 r1 with
  | () -> release s
  | exception e ->
    release s;
    raise e

(* ------------------------------------------------------------------ *)

let gemm ~ta ~tb ~m ~n ~k ~a ~b c =
  if Array.length c <> m * n then invalid_arg "Gemm.gemm: bad output length";
  if m > 0 && n > 0 && k > 0 then begin
    let lda = if ta then m else k in
    let ldb = if tb then k else n in
    Parallel.parallel_for ~cost:(m * n * k) ~n:m (fun r0 r1 ->
        band ~ta ~tb ~n ~k ~lda ~ldb ~a ~b ~up:false c r0 r1)
  end

let syrk ~ta ~n ~k ~a c =
  if Array.length c <> n * n then invalid_arg "Gemm.syrk: bad output length";
  if n > 0 && k > 0 then begin
    (* op(A)·op(A)ᵀ: the B operand is the same array read with the opposite
       transposition, so both strides collapse to the one storage width. *)
    let ld = if ta then n else k in
    Parallel.parallel_for ~cost:((n * n * k / 2) + 1) ~n (fun r0 r1 ->
        band ~ta ~tb:(not ta) ~n ~k ~lda:ld ~ldb:ld ~a ~b:a ~up:true c r0 r1)
  end
