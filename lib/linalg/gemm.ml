(* Packed, register-blocked GEMM core — see DESIGN.md §10.

   Accumulation contract (shared with Mat's small-product loops): every
   output cell is the IEEE-754 sum of its k products taken one at a time in
   ascending-k order, starting from +0., with no zero skips and no FMA.
   Packing, register tiling, cache blocking and pool partitioning only
   reorder which *cells* are computed when — never the order of terms
   within a cell — so any blocking parameters and any pool size produce
   bitwise-identical results.  An accumulating call only changes where a
   cell's sum starts: from the value C already holds instead of +0., with
   the new terms still added in ascending k. *)

(* ------------------------------------------------------------------ *)
(* Blocking parameters.

   mr×nr = 4×2 register tile, sized so the depth loop never spills (see
   [kern]); measured GF/s on the fits' shapes are in DESIGN.md §10.

   kc: depth of one packed slab — an mr-wide A panel (kc·mr·8 = 8 KB) plus
   an nr-wide B panel stream stays L1-resident through the tile loop.
   mc: rows per packed A block (mc·kc·8 = 256 KB, L2-resident).
   nc: columns per packed B block (kc·nc·8 = 2 MB, L3-resident); also caps
   the scratch footprint of one band.  mc and nc are multiples of mr/nr so
   register tiles never straddle a cache block. *)
let mr = 4
let nr = 2
let kc = 256
let mc = 128
let nc = 1024

(* Products below this many flops (2·m·n·k) take Mat's plain loops instead
   of paying for packing (bitwise-identical by the accumulation contract,
   so the switch is invisible).  Measured on square and CP-ALS factor
   shapes (r≈8), the microkernel overtakes the loops at about 3 000 flops
   for mul/mul_tn/mul_nt and 8 000 for gram/tgram; the cutoff sits above
   both, with margin. *)
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

let pack_a ~ta ~a ~aoff ~lda ~i0 ~mlen ~p0 ~klen ap =
  let mpan = (mlen + mr - 1) / mr in
  for ip = 0 to mpan - 1 do
    let ib = i0 + (ip * mr) in
    let vr = min mr (i0 + mlen - ib) in
    let dst0 = ip * (klen * mr) in
    if not ta then
      (* A[i,l] = a.(aoff + i·lda + l): each source row is contiguous in l. *)
      for r = 0 to mr - 1 do
        let dst = ref (dst0 + r) in
        if r < vr then begin
          let src = aoff + ((ib + r) * lda) + p0 in
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
      (* A[i,l] = a.(aoff + l·lda + i): each depth step is contiguous in i. *)
      for l = 0 to klen - 1 do
        let src = aoff + ((p0 + l) * lda) + ib in
        let dst = dst0 + (l * mr) in
        for r = 0 to vr - 1 do
          Array.unsafe_set ap (dst + r) (Array.unsafe_get a (src + r))
        done;
        for r = vr to mr - 1 do
          Array.unsafe_set ap (dst + r) 0.
        done
      done
  done

let pack_b ~tb ~b ~boff ~ldb ~j0 ~nlen ~p0 ~klen bp =
  let npan = (nlen + nr - 1) / nr in
  for jp = 0 to npan - 1 do
    let jb = j0 + (jp * nr) in
    let vc = min nr (j0 + nlen - jb) in
    let dst0 = jp * (klen * nr) in
    if not tb then
      (* B[l,j] = b.(boff + l·ldb + j): each depth step is contiguous in j. *)
      for l = 0 to klen - 1 do
        let src = boff + ((p0 + l) * ldb) + jb in
        let dst = dst0 + (l * nr) in
        for q = 0 to vc - 1 do
          Array.unsafe_set bp (dst + q) (Array.unsafe_get b (src + q))
        done;
        for q = vc to nr - 1 do
          Array.unsafe_set bp (dst + q) 0.
        done
      done
    else
      (* B[l,j] = b.(boff + j·ldb + l): each source column is contiguous in l. *)
      for q = 0 to nr - 1 do
        let dst = ref (dst0 + q) in
        if q < vc then begin
          let src = boff + ((jb + q) * ldb) + p0 in
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
(* The 4×2 register microkernel: load one C tile (rows co, co + ldc, …),
   accumulate klen depth steps into 8 accumulators, store it back.

   The tile is sized to amd64's 16 XMM registers: 8 accumulators, 4 A and
   2 B operands and 1 product temporary make 15, so nothing spills inside
   the depth loop; a 4×4 tile's 16 accumulators alone fill the file, so
   it reloads and re-stores them through the stack on every step.  The
   kernel takes only its C array, offset and stride, so the integers live
   across the loop fit the integer registers too.  Check with
   [ocamlfind ocamlopt -S]: the depth loop has no (%rsp) operand.  The
   loop is unrolled by two; both halves reuse the same six operand
   registers, and an odd klen ends in one single step. *)

let kern ap abase bp bbase klen c co ldc first =
  let c00 = ref 0. and c01 = ref 0. in
  let c10 = ref 0. and c11 = ref 0. in
  let c20 = ref 0. and c21 = ref 0. in
  let c30 = ref 0. and c31 = ref 0. in
  (* On the first depth slab of an overwriting product the accumulators
     start at the contract's +0. directly, and the store below overwrites
     every cell of the tile, so C is never read there: callers need not
     clear it.  Every other slab, and every slab of an accumulating
     product, continues from the sum C holds. *)
  if not first then begin
    let r1 = co + ldc and r2 = co + (2 * ldc) and r3 = co + (3 * ldc) in
    c00 := Array.unsafe_get c co;
    c01 := Array.unsafe_get c (co + 1);
    c10 := Array.unsafe_get c r1;
    c11 := Array.unsafe_get c (r1 + 1);
    c20 := Array.unsafe_get c r2;
    c21 := Array.unsafe_get c (r2 + 1);
    c30 := Array.unsafe_get c r3;
    c31 := Array.unsafe_get c (r3 + 1)
  end;
  for h = 0 to (klen / 2) - 1 do
    let ao = abase + (h * (2 * mr)) and bo = bbase + (h * (2 * nr)) in
    let a0 = Array.unsafe_get ap ao in
    let a1 = Array.unsafe_get ap (ao + 1) in
    let a2 = Array.unsafe_get ap (ao + 2) in
    let a3 = Array.unsafe_get ap (ao + 3) in
    let b0 = Array.unsafe_get bp bo in
    let b1 = Array.unsafe_get bp (bo + 1) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c20 := !c20 +. (a2 *. b0);
    c21 := !c21 +. (a2 *. b1);
    c30 := !c30 +. (a3 *. b0);
    c31 := !c31 +. (a3 *. b1);
    let a0 = Array.unsafe_get ap (ao + 4) in
    let a1 = Array.unsafe_get ap (ao + 5) in
    let a2 = Array.unsafe_get ap (ao + 6) in
    let a3 = Array.unsafe_get ap (ao + 7) in
    let b0 = Array.unsafe_get bp (bo + 2) in
    let b1 = Array.unsafe_get bp (bo + 3) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c20 := !c20 +. (a2 *. b0);
    c21 := !c21 +. (a2 *. b1);
    c30 := !c30 +. (a3 *. b0);
    c31 := !c31 +. (a3 *. b1)
  done;
  if klen land 1 = 1 then begin
    let ao = abase + ((klen - 1) * mr) and bo = bbase + ((klen - 1) * nr) in
    let a0 = Array.unsafe_get ap ao in
    let a1 = Array.unsafe_get ap (ao + 1) in
    let a2 = Array.unsafe_get ap (ao + 2) in
    let a3 = Array.unsafe_get ap (ao + 3) in
    let b0 = Array.unsafe_get bp bo in
    let b1 = Array.unsafe_get bp (bo + 1) in
    c00 := !c00 +. (a0 *. b0);
    c01 := !c01 +. (a0 *. b1);
    c10 := !c10 +. (a1 *. b0);
    c11 := !c11 +. (a1 *. b1);
    c20 := !c20 +. (a2 *. b0);
    c21 := !c21 +. (a2 *. b1);
    c30 := !c30 +. (a3 *. b0);
    c31 := !c31 +. (a3 *. b1)
  end;
  let r1 = co + ldc and r2 = co + (2 * ldc) and r3 = co + (3 * ldc) in
  Array.unsafe_set c co !c00;
  Array.unsafe_set c (co + 1) !c01;
  Array.unsafe_set c r1 !c10;
  Array.unsafe_set c (r1 + 1) !c11;
  Array.unsafe_set c r2 !c20;
  Array.unsafe_set c (r2 + 1) !c21;
  Array.unsafe_set c r3 !c30;
  Array.unsafe_set c (r3 + 1) !c31

(* Edge tiles and diagonal-straddling [up] tiles run the kernel on the
   mr×nr [tile] buffer instead, copying only their active cells in and
   out, so inactive cells (padding, cells of C outside the block, or
   strictly-lower cells of a syrk) are never touched.  [co] is the offset
   of the tile's top-left cell (ib, jb) in [c]. *)
let kern_staged ap abase bp bbase klen c co ldc ib jb vr vc up first tile =
  if not first then begin
    Array.fill tile 0 (mr * nr) 0.;
    for r = 0 to vr - 1 do
      let crow = co + (r * ldc) in
      for q = 0 to vc - 1 do
        if (not up) || jb + q >= ib + r then
          Array.unsafe_set tile ((r * nr) + q) (Array.unsafe_get c (crow + q))
      done
    done
  end;
  kern ap abase bp bbase klen tile 0 nr first;
  for r = 0 to vr - 1 do
    let crow = co + (r * ldc) in
    for q = 0 to vc - 1 do
      if (not up) || jb + q >= ib + r then
        Array.unsafe_set c (crow + q) (Array.unsafe_get tile ((r * nr) + q))
    done
  done

(* ------------------------------------------------------------------ *)
(* One pool chunk: rows [r0, r1) of the output.  BLIS-style loop nest —
   jc (nc column blocks) → pc (kc depth slabs, ascending, so every cell
   accumulates its terms in ascending-k order across slabs) → ic (mc row
   blocks) → register tiles.  Each chunk packs into its own checked-out
   scratch; B is repacked per chunk, which duplicates O(k·n) copy work but
   keeps the partitioning embarrassingly deterministic.  Row i, column j of
   the output is c.(coff + i·ldc + j). *)

let band_with s ~ta ~tb ~n ~k ~a ~aoff ~lda ~b ~boff ~ldb ~coff ~ldc ~up ~acc c r0 r1 =
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
        pack_b ~tb ~b ~boff ~ldb ~j0 ~nlen ~p0 ~klen bp;
        let ic = ref r0 in
        while !ic < r1 do
          let i0 = !ic in
          let mlen = min mc (r1 - i0) in
          let mpan = (mlen + mr - 1) / mr in
          pack_a ~ta ~a ~aoff ~lda ~i0 ~mlen ~p0 ~klen ap;
          for ip = 0 to mpan - 1 do
            let ib = i0 + (ip * mr) in
            let vr = min mr (i0 + mlen - ib) in
            let abase = ip * (klen * mr) in
            for jp = 0 to npan - 1 do
              let jb = j0 + (jp * nr) in
              let vc = min nr (j0 + nlen - jb) in
              let bbase = jp * (klen * nr) and first = p0 = 0 && not acc in
              let co = coff + (ib * ldc) + jb in
              (* Tiles with no cell on or above the diagonal are skipped
                 outright in the syrk case. *)
              if vr = mr && vc = nr && ((not up) || jb >= ib + (mr - 1)) then
                kern ap abase bp bbase klen c co ldc first
              else if (not up) || jb + vc - 1 >= ib then
                kern_staged ap abase bp bbase klen c co ldc ib jb vr vc up first tile
            done
          done;
          ic := i0 + mlen
        done;
        pc := p0 + klen
      done;
      jc := j0 + nlen
    done
  end

let band ~ta ~tb ~n ~k ~a ~aoff ~lda ~b ~boff ~ldb ~coff ~ldc ~up ~acc c r0 r1 =
  let s = checkout () in
  match band_with s ~ta ~tb ~n ~k ~a ~aoff ~lda ~b ~boff ~ldb ~coff ~ldc ~up ~acc c r0 r1 with
  | () -> release s
  | exception e ->
    release s;
    raise e

(* ------------------------------------------------------------------ *)
(* Operand checks.  The kernels read and write through [unsafe_get] and
   [unsafe_set], so every block must be known to lie inside its array
   before the first access. *)

(* The [rows × cols] block at [off] with row stride [ld] lies inside [v]. *)
let check_block fn name v ~off ~ld ~rows ~cols =
  if
    off < 0 || ld < cols
    || (rows > 0 && cols > 0 && off + ((rows - 1) * ld) + cols > Array.length v)
  then invalid_arg (Printf.sprintf "Gemm.%s: %s block out of bounds" fn name)

let gemm ?(accumulate = false) ?(a_off = 0) ?lda ?(b_off = 0) ?ldb ?(c_off = 0) ?ldc ~ta
    ~tb ~m ~n ~k ~a ~b c =
  if m < 0 || n < 0 || k < 0 then invalid_arg "Gemm.gemm: negative dimension";
  (* A is stored m×k, or k×m when ta; B k×n, or n×k when tb. *)
  let a_rows, a_cols = if ta then (k, m) else (m, k) in
  let b_rows, b_cols = if tb then (n, k) else (k, n) in
  let lda = Option.value lda ~default:a_cols
  and ldb = Option.value ldb ~default:b_cols
  and ldc = Option.value ldc ~default:n in
  check_block "gemm" "a" a ~off:a_off ~ld:lda ~rows:a_rows ~cols:a_cols;
  check_block "gemm" "b" b ~off:b_off ~ld:ldb ~rows:b_rows ~cols:b_cols;
  check_block "gemm" "c" c ~off:c_off ~ld:ldc ~rows:m ~cols:n;
  if m > 0 && n > 0 && k > 0 then
    Parallel.parallel_for ~cost:(m * n * k) ~n:m (fun r0 r1 ->
        band ~ta ~tb ~n ~k ~a ~aoff:a_off ~lda ~b ~boff:b_off ~ldb ~coff:c_off ~ldc ~up:false
          ~acc:accumulate c r0 r1)

let syrk ~ta ~n ~k ~a c =
  if n < 0 || k < 0 then invalid_arg "Gemm.syrk: negative dimension";
  if Array.length c <> n * n then invalid_arg "Gemm.syrk: bad output length";
  (* op(A)·op(A)ᵀ: the B operand is the same array read with the opposite
     transposition, so both strides collapse to the one storage width. *)
  let ld = if ta then n else k in
  check_block "syrk" "a" a ~off:0 ~ld ~rows:(if ta then k else n) ~cols:ld;
  if n > 0 && k > 0 then
    Parallel.parallel_for ~cost:((n * n * k / 2) + 1) ~n (fun r0 r1 ->
        band ~ta ~tb:(not ta) ~n ~k ~a ~aoff:0 ~lda:ld ~b:a ~boff:0 ~ldb:ld ~coff:0 ~ldc:n
          ~up:true ~acc:false c r0 r1)
