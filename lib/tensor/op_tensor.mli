(** First-class tensor operators: a dense tensor, or the same tensor kept in
    factored (Kruskal) form and never materialized.

    The whitened covariance tensor of TCCA (paper Eq. 4.9) is by construction
    rank-N: [M = (1/N) Σᵢ z₁ᵢ ∘ … ∘ zₘᵢ] with [zₚᵢ = C̃ₚₚ^{−1/2} x̄ₚᵢ], so every
    quantity CP-ALS needs — MTTKRP, the Frobenius norm, inner products against
    Kruskal models, mode-unfolding Grams — collapses to small matrix products
    of the [dₚ × N] factor blocks.  [Factored] exposes exactly that: cost per
    ALS sweep drops from O(∏ₚ dₚ · r) to O(N · Σₚ dₚ · r) and memory from
    ∏ₚ dₚ to N · Σₚ dₚ, which is what makes many-view workloads (5 views at
    dₚ = 40 is a ~10⁸-entry dense tensor) representable at all.

    All factored implementations are built from [Mat]'s GEMM entry points
    and Hadamard products, so they run on the shared [Parallel] domain pool
    and inherit its deterministic row-partitioning contract: results are
    bitwise identical for every pool size. *)

type t =
  | Dense of Tensor.t
  | Factored of { weight : float; factors : Mat.t array }
      (** [weight · Σᵢ ∘ₚ factors.(p).col(i)] — each factor is [dₚ × n] and
          all share the component count [n]. *)

(** {1 Construction} *)

val dense : Tensor.t -> t

val factored : weight:float -> Mat.t array -> t
(** Validates: at least one mode, all factors share a column count ≥ 1.
    Raises [Invalid_argument] otherwise.  The matrices are kept by reference
    (not copied); callers must not mutate them afterwards. *)

(** {1 Shape} *)

val order : t -> int
val dims : t -> int array

val size : t -> int
(** Logical entry count ∏ₚ dₚ — what {!to_tensor} would allocate, [not] what
    the operator holds in memory. *)

val n_components : t -> int option
(** [Some n] for [Factored] (the shared column count), [None] for [Dense]. *)

val all_finite : t -> bool
(** No NaN/Inf anywhere in the representation: every entry for [Dense], the
    weight and every factor entry for [Factored].  Costs what the operator
    actually holds in memory, never the logical ∏ₚ dₚ. *)

(** {1 The CP-ALS contraction kernels} *)

val mttkrp : t -> Mat.t array -> int -> Mat.t
(** [mttkrp op us k = X₍ₖ₎ · (⊙_{q≠k} U_q)] — the matricized-tensor times
    Khatri–Rao product, the hot kernel of an ALS sweep.  Dense: one parallel
    pass over the entries, O(size · r).  Factored:
    [weight · Zₖ · ⊛_{q≠k}(ZqᵀUq)], O(n · Σₚ dₚ · r). *)

val norm2 : t -> float
(** [⟨X, X⟩ = ‖X‖²_F].  Factored: [w² · 1ᵀ(⊛ₚ ZₚᵀZₚ)1] by the streamed Gram
    pass of {!norm2_and_mode_grams} without its mode products:
    n²·Σₚ dₚ flops, O(m · b · n) memory.  The sum runs over the upper
    triangle of the symmetric [c = ⊛ₚ ZₚᵀZₚ] as one accumulation from
    [+0.] over the rows in ascending order: row i adds [c[i,i]], then
    [2·c[i,j]] for j = i+1 … n−1 ascending; the total is then multiplied
    by [w²].  (Equal in exact arithmetic to a row-major sum over all n²
    cells; within rounding of it in floating point.) *)

val inner_kruskal : t -> Vec.t -> Mat.t array -> float
(** [inner_kruskal op λ us = ⟨X, ⟦λ; U₁…Uₘ⟧⟩] — the cross term of the fit
    computation.  Factored: [w · 1ᵀ(⊛ₚ ZₚᵀUₚ)λ], O(n · r · Σₚ dₚ). *)

val mode_gram : t -> int -> Mat.t
(** [mode_gram op k = X₍ₖ₎ X₍ₖ₎ᵀ] ([dₖ × dₖ]) — what HOSVD initialization
    eigendecomposes.  Dense: Gram of the explicit unfolding.  Factored:
    [w² · Zₖ (⊛_{q≠k} ZqᵀZq) Zₖᵀ] without forming the unfolding, by the
    streamed Gram pass of {!norm2_and_mode_grams}: n²·Σ_{q≠k} d_q flops
    for the Grams it needs and n²·dₖ for its one chain product. *)

val norm2_and_mode_grams : t -> float * Mat.t array
(** [(norm2 op, [| mode_gram op k | k = 0 … m−1 |])] from one pass, each
    bitwise equal to the separate call — what a CP-ALS solve with HOSVD
    initialization needs.  Dense: the separate calls.  Factored: one stream
    over row blocks I = [i₀, i₀+b), [b = min gram_block_rows n], of the
    symmetric view Grams Gₚ = ZₚᵀZₚ, forming only their upper block rows.
    With H′ₖ the strict upper triangle of the Hadamard chain
    Hₖ = ⊛_{q≠k}G_q plus half its diagonal, [+0.] below it, each mode Gram
    is [w²·(Xₖ + Xₖᵀ)] with Xₖ = Zₖ·H′ₖ·Zₖᵀ.  Per block, one GEMM per view
    forms Gₚ[I, i₀:] straight from Zₚ; per mode k, one GEMM forms the
    b × dₖ block Rₖ = H′ₖ[I, i₀:]·Zₖ[:, i₀:]ᵀ and one accumulating
    dₖ × dₖ product adds Xₖ += Zₖ[:, I]·Rₖ.

    Bitwise contract: each mode Gram is [w²·(X + Xᵀ)] with
    X = Zₖ·(H′ₖ·Zₖᵀ), both products taken by [Gemm]'s accumulation
    contract, H′ₖ built from the [tgram] cells of the Gₚ multiplied in
    ascending view order from 1.  The cells a block leaves out are [+0.]
    in H′ₖ and add nothing to a sum that starts at [+0.] (finite
    factors).  So every mode Gram is bitwise symmetric, equal to the
    N×N formula [w²·Zₖ(⊛_{q≠k}ZqᵀZq)Zₖᵀ] within rounding, and the same
    for every pool size.  2·n²·Σₚ dₚ flops (n²·Σₚ dₚ for the Grams,
    n²·Σₚ dₚ for the Rₖ) plus 2·n·dₖ² per mode for the Xₖ; memory
    m + 1 blocks of b·n, one of b·dₖ and the dₖ × dₖ Xₖ: no n × n and no
    dₖ × n temporary is ever allocated. *)

val gram_block_rows : int
(** Row height of the blocks of the factored Gram pass. *)

(** {1 Conversion} *)

val to_tensor : t -> Tensor.t
(** Materialize.  [Dense] returns the wrapped tensor (shared, not copied);
    [Factored] is {!add_into} applied to a zeroed tensor of the full
    ∏ₚ dₚ entries — callers should check {!size} first (the dense-only CP
    solvers go through this escape hatch).

    Bitwise contract: every cell is [Σᵢ (w·∏ₚ zₚ[aₚ,i])] with the product
    associated from [w] through the modes in order and the sum taken from
    [+0.] in ascending component order, without FMA — for any pool size.
    For factors whose partial products are all finite this equals, bit for
    bit, the loop that adds one rank-1 term per component and skips the
    subtree under a zero entry.  A non-finite weight or factor entry is
    never skipped: every cell whose index in that entry's mode is the
    entry's row comes out non-finite, so [all_finite op = false] implies a
    non-finite materialization. *)

val add_into : Tensor.t -> t -> unit
(** [add_into x op] adds the entries of [op] into [x] in place; raises
    [Invalid_argument] unless [x] has [op]'s {!dims}.  [Dense]: an
    entrywise sum.  [Factored]: one accumulating GEMM.  Read row-major,
    the tensor is the (∏_{p<m−1} dₚ) × d_{m−1} matrix KR · Z_{m−1}ᵀ, where
    row (a₀, …, a_{m−2}) of the Khatri–Rao matrix KR is
    (…((w·z₀[a₀,:])·z₁[a₁,:])…)·z_{m−2}[a_{m−2},:].  KR is never stored:
    {!Gemm.accumulate_packed_a} asks for one block of at most 128 rows ×
    256 components at a time and the running products are written
    straight into its packed panels.  Z_{m−1} is packed once per chunk of
    at most 4 MiB of components and shared by the domains, which claim
    the row blocks one at a time.  O(n · ∏ₚ dₚ) time at GEMM rate;
    memory: the GEMM's fixed scratch per domain and one 4 MiB chunk —
    nothing grows with n, and no second tensor is allocated.

    Each cell continues the sum [x] holds with its n new terms in
    ascending component order (the GEMM's accumulation contract), so
    adding the operators over consecutive column ranges of the same
    factors is bitwise one [add_into] over all the columns, and onto a
    zeroed [x] it is {!to_tensor}. *)

(** {1 Route}

    Every TCCA and KTCCA fit from instances or kernels builds its whitened
    operator [Factored]; {!route} then decides, from the shape alone,
    whether the solver runs on that or on its {!to_tensor}.  This is the
    only place the representation is chosen.  (A fit from
    [Tcca.Builder]'s statistics, which keep no instances, is dense from
    the start and only checked finite here.) *)

val materializes : dims:int array -> n:int -> bool
(** Whether {!route} materializes a factored operator with mode sizes
    [dims] and [n] components: never above 10⁸ entries (800 MB); below it,
    as pinned by {!pin_route}, else iff [∏dₚ·(2n + κ) < 2n²·Σdₚ] — one
    {!to_tensor} pass plus the dense solve costs less than the factored
    Gram pass of {!norm2_and_mode_grams}.  κ = 700 is the dense norm,
    HOSVD mode Grams and ALS sweeps of a fit in GEMM flops per entry, and
    2 the factored pass's flops per n²·Σdₚ; both were fitted on measured
    crossovers of the paper's shapes by [scripts/route_crossover.sh]
    (DESIGN.md).  Dense wins at large [n] (the Gram pass is quadratic in
    [n], the dense solve independent of it), factored at small [n] or
    huge ∏dₚ. *)

val route : stage:string -> where:string -> t -> (t, Robust.failure) result
(** The checked route of every TCCA and KTCCA fit: [Error (Non_finite
    {stage; where})] when {!all_finite} fails — checked on the factored
    form, which is cheaper, and a non-finite factor implies a non-finite
    tensor — else [Ok (Dense (to_tensor op))] for a factored [op] that
    {!materializes}, and [Ok op] otherwise. *)

val pin_route : [ `Dense | `Factored ] option -> unit
(** The only route hook, for tests and the bench micros: [Some `Dense]
    materializes every factored operator under the cap, [Some `Factored]
    none, [None] (the default) restores the cost model. *)

val pinned_route : unit -> [ `Dense | `Factored ] option
