(** Kruskal (CP) form: a tensor expressed as a weighted sum of rank-1 terms
    [Σ_k λ⁽ᵏ⁾ u₁⁽ᵏ⁾ ∘ u₂⁽ᵏ⁾ ∘ … ∘ uₘ⁽ᵏ⁾] — exactly the decomposition TCCA
    applies to the whitened covariance tensor (paper Fig. 2). *)

type t = {
  weights : Vec.t;        (** λ, length r. *)
  factors : Mat.t array;  (** One [dₚ × r] matrix per mode; columns are the
                              rank-1 components [uₚ⁽ᵏ⁾]. *)
}

val rank : t -> int
val validate : t -> unit
(** Raises [Invalid_argument] unless all factors share the weight count. *)

val to_tensor : t -> Tensor.t
(** Materialize the full tensor. *)

val normalize : t -> t
(** Rescale every factor column to unit norm, absorbing norms (and signs, kept
    on the weight) into [weights]; components are then sorted by descending
    |weight|. *)

val fit : t -> Tensor.t -> float
(** Relative fit [1 − ‖X − X̂‖_F / ‖X‖_F], computed without materializing
    [X̂] (uses the factor Gram identity for [‖X̂‖²] and multilinear forms for
    [⟨X, X̂⟩]). *)

val component : t -> int -> Vec.t array
(** [component t k] is the k-th rank-1 term's factor vectors. *)
