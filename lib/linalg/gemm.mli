(** Packed, register-blocked GEMM core.

    Every dense product in the repository — [Mat.mul], [mul_tn], [mul_nt],
    [gram], [tgram], and therefore whitening, the covariance tensor, MTTKRP,
    the factored [Op_tensor] path, kernels and the learners — funnels into
    the two entry points below.  A and B panels are repacked into contiguous
    tile-ordered scratch buffers, and the inner loop computes a 4×2
    register tile with cache-level mc/kc/nc blocking; transposed operands
    pay a different packing walk instead of strided inner loops.  The tile
    keeps its 8 accumulators, 6 operands and 1 product temporary in 15 of
    amd64's 16 XMM registers, so its depth loop (unrolled by two) touches
    memory only to load packed operands.

    Each pool chunk checks its scratch out of a mutex-guarded free list and
    returns it when done, so concurrent products never share a buffer —
    not across domains, and not across systhreads of one domain (the
    serving daemon's compute workers), which a per-domain buffer would
    not protect.  The buffers are grow-only and reused, so steady-state
    products allocate only their result.

    {2 Bitwise accumulation contract}

    Each output cell is the IEEE-754 sum of its [k] products accumulated one
    at a time in ascending-[k] order, starting from [+0.], with no zero
    skips and no FMA.  Packing, register tiling and cache blocking only
    change {e which cells} are in flight at a time — never the order of
    terms within a cell — so the result is bitwise identical for any
    blocking parameters, any pool size (including the sequential fallback),
    and bitwise identical to the plain loops [Mat] runs for products below
    {!small_cutoff}.  An accumulating {!gemm} starts each cell from the
    value already in [c] instead of [+0.] and keeps the ascending order, so
    a product split along its depth into ascending pieces, accumulated one
    after the other, is bitwise the one product.  See DESIGN.md §10. *)

(** {2 Blocking parameters} *)

val small_cutoff : unit -> int
(** Products with fewer than this many flops (2·m·n·k) run [Mat]'s plain
    loops instead of the microkernel — packing overhead dominates tiny
    GEMMs (the r≈8 factor updates of CP-ALS).  Bitwise invisible: both
    routes obey the accumulation contract. *)

val set_small_cutoff : int -> unit
(** The only route hook, for tests: [max_int] runs the plain loops on
    every shape, [0] the microkernel on every shape. *)

(** {2 Kernels}

    Both kernels partition output rows across the {!Parallel} pool in the
    fixed contiguous-band scheme (chunk boundaries never affect cell
    values, so any pool size is bitwise identical).  Both check, before
    any unchecked access, that every operand's array covers the last cell
    the product reads or writes, and raise [Invalid_argument] otherwise. *)

val gemm :
  ?accumulate:bool ->
  ?a_off:int -> ?lda:int -> ?b_off:int -> ?ldb:int -> ?c_off:int -> ?ldc:int ->
  ta:bool -> tb:bool -> m:int -> n:int -> k:int ->
  a:float array -> b:float array -> float array -> unit
(** [gemm ~ta ~tb ~m ~n ~k ~a ~b c] computes [C = op(A)·op(B)] into the
    row-major [m×n] array [c].  [a] stores [op(A)] row-major as [m×k] when
    [ta = false] and as its transpose [k×m] when [ta = true]; likewise [b]
    is [k×n] ([tb = false]) or [n×k] ([tb = true]).

    {b Sub-blocks.}  Each operand may be a block of a larger row-major
    array: row [i], column [j] of the stored [a] is
    [a.(a_off + i·lda + j)], and likewise [b] with [b_off]/[ldb] and [c]
    with [c_off]/[ldc].  The offsets default to 0 and each stride to its
    block's width, so the plain call reads whole arrays.  A stride must be
    at least its block's width; cells of [c] outside the block are never
    read or written.

    {b Overwrite or accumulate.}  By default the product overwrites the
    block of [c] without reading it, so [c] needs no clearing; with
    [k = 0] nothing is written.  With [~accumulate:true] it computes
    [C += op(A)·op(B)]: each cell's sum starts from the value [c] holds
    instead of [+0.], and the [k] new terms are still added one at a time
    in ascending order.  So if [c] holds the product over the depth
    prefix [0 … k₁−1], itself accumulated from [+0.], adding the product
    over [k₁ … k₁+k₂−1] gives, bit for bit, the one product over
    [0 … k₁+k₂−1], and any ascending split of the depth into several
    accumulating calls onto a [c] cleared to [+0.] equals the single
    call.

    Raises [Invalid_argument] on a negative dimension, a stride narrower
    than its block, a negative offset, or a block that runs past the end
    of its array. *)

val syrk : ta:bool -> n:int -> k:int -> a:float array -> float array -> unit
(** [syrk ~ta ~n ~k ~a c] fills the upper triangle (diagonal included) of
    [C = op(A)·op(A)ᵀ] into the row-major [n×n] array [c], where [a] stores
    [op(A)] as [n×k] ([ta = false], the [Mat.gram] case) or [k×n]
    ([ta = true], the [Mat.tgram] case).  Tiles strictly below the diagonal
    are skipped; the caller mirrors the strict lower triangle.  It never
    reads [c] and writes nothing when [k = 0].  Raises [Invalid_argument]
    if [c] is not [n×n] or [a] is shorter than [n·k]. *)

val accumulate_packed_a :
  m:int -> n:int -> k:int ->
  pack_a:(i0:int -> mlen:int -> p0:int -> klen:int -> float array -> unit) ->
  b:float array -> float array -> unit
(** [accumulate_packed_a ~m ~n ~k ~pack_a ~b c] computes [C += A·Bᵀ]
    into the row-major [m×n] array [c], where [b] is [B] stored row-major
    [n×k] and the [m×k] operand [A] is never stored: [pack_a ~i0 ~mlen
    ~p0 ~klen ap] writes its block of rows [i0 … i0+mlen−1] and depth
    [p0 … p0+klen−1] into [ap] in the kernel's packed panel layout,
    [ap.(ip·klen·mr + l·mr + r) = A[i0 + ip·mr + r, p0 + l]] with [mr = 4],
    for every [ip·mr + r < mlen].  The lanes past [mlen] in the last
    panel may hold anything: no cell they feed is stored.  Calls have
    [mlen ≤ 128] and [klen ≤ 256], and may come from several domains at
    once, each with its own [ap]; [pack_a] must only write [ap].

    {b Accumulation.}  Always accumulating: each cell continues the sum
    [c] holds with its [k] new terms in ascending order, exactly as
    [gemm ~accumulate:true ~ta:false ~tb:true] on the stored [A] — bitwise
    that call, at any pool size.

    {b Schedule.}  The depth runs in chunks of at most 4 MiB of packed
    [Bᵀ] (at least one 256-deep slab); each chunk of [B] is packed once
    and read by every domain.  The 128-row blocks of [C] are claimed one
    at a time from a shared counter, so a slow domain holds up one block,
    not a fixed share of the rows.  No buffer grows with [k].  Packing
    scratch comes from the same checkout list as {!gemm}'s, so concurrent
    calls on systhreads of one domain never share it.

    Raises [Invalid_argument] on a negative dimension, or when [b] is
    shorter than [n·k] or [c] than [m·n]. *)
