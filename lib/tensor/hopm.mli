(** Higher-order power method (HOPM) for the best rank-1 tensor approximation
    (De Lathauwer, De Moor & Vandewalle 2000b) — one of the alternative
    solvers the paper mentions for problem (4.10), compared with {!Cp_als}
    in the [abl-solver] ablation.

    Iterates [uₖ ← X ×_{q≠k} u_qᵀ / ‖·‖] until the generalized Rayleigh
    quotient [σ = X ×₁u₁ᵀ…×ₘuₘᵀ] stabilizes. *)

type result = {
  sigma : float;           (** The rank-1 weight (the canonical correlation). *)
  vectors : Vec.t array;   (** Unit vectors, one per mode. *)
  iterations : int;
  converged : bool;
}

val rank1 : ?max_iter:int -> ?tol:float -> ?seed:int -> Tensor.t -> result
(** Defaults: [max_iter = 200], [tol = 1e-10].  Initialized from the leading
    eigenvector of each unfolding Gram (deterministic); [seed] only matters
    for the degenerate all-zero tensor. *)
