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
    {!small_cutoff}.  See DESIGN.md §10. *)

(** {2 Blocking parameters} *)

val mr : int
(** Register-tile rows: the microkernel keeps [mr]×[nr] accumulators live
    in registers across the depth loop. *)

val nr : int
(** Register-tile columns. *)

val small_cutoff : unit -> int
(** Products with fewer than this many flops (2·m·n·k) run [Mat]'s plain
    loops instead of the microkernel — packing overhead dominates tiny
    GEMMs (the r≈8 factor updates of CP-ALS).  Bitwise invisible: both
    routes obey the accumulation contract. *)

val set_small_cutoff : int -> unit
(** The only route hook, for tests: [max_int] runs the plain loops on
    every shape, [0] the microkernel on every shape. *)

(** {2 Kernels}

    Both kernels overwrite the cells they compute and never read what [c]
    held before, so [c] needs no clearing; with [k = 0] they write
    nothing.  Both partition output rows across the {!Parallel} pool in
    the fixed contiguous-band scheme (chunk boundaries never affect cell
    values, so any pool size is bitwise identical). *)

val gemm :
  ta:bool -> tb:bool -> m:int -> n:int -> k:int ->
  a:float array -> b:float array -> float array -> unit
(** [gemm ~ta ~tb ~m ~n ~k ~a ~b c] computes [C = op(A)·op(B)] into the
    row-major [m×n] array [c].  [a] stores [op(A)] row-major as [m×k] when
    [ta = false] and as its transpose [k×m] when [ta = true]; likewise [b]
    is [k×n] ([tb = false]) or [n×k] ([tb = true]).  Raises
    [Invalid_argument] if [c] has the wrong length. *)

val syrk : ta:bool -> n:int -> k:int -> a:float array -> float array -> unit
(** [syrk ~ta ~n ~k ~a c] fills the upper triangle (diagonal included) of
    [C = op(A)·op(A)ᵀ] into the row-major [n×n] array [c], where [a] stores
    [op(A)] as [n×k] ([ta = false], the [Mat.gram] case) or [k×n]
    ([ta = true], the [Mat.tgram] case).  Tiles strictly below the diagonal
    are skipped; the caller mirrors the strict lower triangle. *)
