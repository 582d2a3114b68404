(** Dense row-major matrices.

    The workhorse type of the whole reproduction: data matrices are stored as
    [d × N] (features × instances), following the paper's notation
    [Xp ∈ R^{dp×N}].  All operations allocate fresh results; dimensions are
    validated and mismatches raise [Invalid_argument]. *)

type t = private { rows : int; cols : int; data : float array }
(** Row-major: element [(i, j)] lives at [data.(i * cols + j)].  The record is
    private so invariants (data length = rows·cols) cannot be broken from
    outside; build values with the constructors below. *)

(** {1 Construction} *)

val create : int -> int -> t
(** Zero matrix. *)

val make : int -> int -> float -> t
val init : int -> int -> (int -> int -> float) -> t
val identity : int -> t
val diag_of_vec : Vec.t -> t
val of_arrays : float array array -> t
(** Rows; all rows must have equal length. *)

val of_cols : float array array -> t
(** Columns; all columns must have equal length. *)

val unsafe_of_flat : rows:int -> cols:int -> float array -> t
(** Wrap an existing flat row-major array without copying.  The caller must
    not alias it mutably afterwards; length is checked. *)

val copy : t -> t

(** {1 Access} *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val dims : t -> int * int
val row : t -> int -> Vec.t
(** Copy of row [i].  One upfront bounds check, then strided unchecked
    reads — hot in the tridiagonalization/SVD inner loops.  Raises
    [Invalid_argument] when [i] is out of range. *)

val col : t -> int -> Vec.t
(** Copy of column [j]; same single-check discipline as {!row}. *)

val set_row : t -> int -> Vec.t -> unit
val set_col : t -> int -> Vec.t -> unit
val diag : t -> Vec.t
val sub_cols : t -> int -> int -> t
(** [sub_cols a j0 n] is columns [j0 .. j0+n-1]. *)

val sub_rows : t -> int -> int -> t
val select_cols : t -> int array -> t
(** Gather the given columns, in order. *)

val to_arrays : t -> float array array

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val add_scaled_identity : float -> t -> t
(** [add_scaled_identity eps a = a + eps·I] (square only) — the paper's
    regularization [C̃pp = Cpp + εI]. *)

val mul : t -> t -> t
(** Matrix product.  Runs on the packed register-blocked microkernel
    ({!Gemm}), or on plain loops for products below {!Gemm.small_cutoff}
    flops, too small to amortize packing; both routes obey the same
    per-cell ascending-k accumulation contract, so they — at any pool size,
    including the sequential fallback — are bitwise identical.
    Row-partitioned across the [Parallel] domain pool.  See DESIGN.md
    §10. *)

val mul_vec : t -> Vec.t -> Vec.t
val tmul_vec : t -> Vec.t -> Vec.t
(** [tmul_vec a x = aᵀ x] without forming the transpose. *)

val transpose : t -> t
val gram : t -> t
(** [gram a = a aᵀ] (rows × rows): only upper-triangle tiles are computed
    and the strict lower triangle is mirrored bit-for-bit, so
    [gram a ≡ mul a (transpose a)] bitwise (IEEE multiplication commutes). *)

val tgram : t -> t
(** [tgram a = aᵀ a] (cols × cols), exploiting symmetry the same way;
    [tgram a ≡ mul (transpose a) a] bitwise. *)

val mul_tn : t -> t -> t
(** [mul_tn a b = aᵀ b] without materializing [aᵀ] — the microkernel packs
    [a] with a transposed walk instead of running strided inner loops.
    Bitwise identical to [mul (transpose a) b]. *)

val mul_nt : t -> t -> t
(** [mul_nt a b = a bᵀ] without materializing [bᵀ]; bitwise identical to
    [mul a (transpose b)]. *)

val hcat : t -> t -> t
val vcat : t -> t -> t
val hcat_list : t list -> t
val vcat_list : t list -> t

(** {1 Maps and reductions} *)

val map : (float -> float) -> t -> t
val map2 : (float -> float -> float) -> t -> t -> t
val trace : t -> float
val frobenius : t -> float
val max_abs : t -> float
val row_means : t -> Vec.t
val center_rows : t -> t * Vec.t
(** Subtract each row's mean (centering instances stored as columns); returns
    the centered matrix and the mean vector, for centering test data later. *)

val sub_col_vec : t -> Vec.t -> t
(** Subtract a length-[rows] vector from every column. *)

val all_finite : t -> bool
(** [true] iff no entry is NaN or infinite (single pass, early exit). *)

val is_symmetric : ?eps:float -> t -> bool
val equal : ?eps:float -> t -> t -> bool
val pp : Format.formatter -> t -> unit
