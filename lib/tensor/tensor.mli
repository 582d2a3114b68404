(** Dense order-m tensors.

    The covariance tensor [C₁₂…ₘ ∈ R^{d₁×…×dₘ}] of paper Sec. 4.2 is the only
    large object in TCCA; it is stored flat with row-major strides (last mode
    fastest).  Mode-k matricization follows the Kolda–Bader convention (first
    remaining mode fastest), matching [Khatri_rao] so that CP-ALS can be
    written as in the literature. *)

type t = private {
  dims : int array;       (** [dims.(k)] = size of mode [k], 0-indexed. *)
  strides : int array;    (** Row-major strides; [strides.(m-1) = 1]. *)
  data : float array;
}

(** {1 Construction} *)

val create : int array -> t
(** Zero tensor; every dimension must be ≥ 1. *)

val init : int array -> (int array -> float) -> t
(** The index array passed to the callback is reused — copy it if kept. *)

val of_flat : int array -> float array -> t
(** Wrap a flat row-major array (copied). *)

val copy : t -> t

val outer : Vec.t array -> t
(** [outer [|x1; …; xm|]] is the rank-1 tensor [x1 ∘ x2 ∘ … ∘ xm]. *)

(** {1 Access} *)

val order : t -> int
val dim : t -> int -> int
val size : t -> int
(** Total number of entries. *)

val get : t -> int array -> float
val set : t -> int array -> float -> unit

(** {1 Algebra} *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val scale_in_place : float -> t -> unit
val map : (float -> float) -> t -> t

val add_outer_in_place : t -> float -> Vec.t array -> unit
(** [add_outer_in_place t w xs] adds [w · (x1 ∘ … ∘ xm)] — the streaming
    accumulation step of the covariance tensor, O(size) per instance and
    independent of how many instances follow. *)

val inner : t -> t -> float
(** Element-wise inner product [⟨A, B⟩]. *)

val frobenius : t -> float
(** [‖A‖_F] (paper Eq. 4.4). *)

val all_finite : t -> bool
(** [true] iff no entry is NaN or infinite (single pass, early exit) — the
    stage-boundary guard of the robust fit paths. *)

val mode_product : t -> int -> Mat.t -> t
(** [mode_product a k u] is [a ×ₖ u] for [u : J × dims.(k)] (paper Eq. 4.1). *)

val mode_products : t -> Mat.t array -> t
(** [a ×₁ u₁ ×₂ u₂ … ×ₘ uₘ] (paper Eq. 4.2); the array must have one matrix
    per mode. *)

val contract_vec : t -> int -> Vec.t -> t
(** [contract_vec a k h] is [a ×ₖ hᵀ] with the collapsed mode removed: an
    order-(m−1) tensor. *)

val multilinear_form : t -> Vec.t array -> float
(** [multilinear_form a [|h1; …; hm|] = a ×₁ h₁ᵀ ×₂ h₂ᵀ … ×ₘ hₘᵀ] — the
    high-order canonical correlation of Theorem 1. *)

val equal : ?eps:float -> t -> t -> bool
