(** Two-view regularized canonical correlation analysis, after Foster,
    Johnson & Zhang (2008) — the paper's primary baseline.

    With centered views [X₁, X₂] and [C̃pp = Cpp + εI], the canonical pairs
    are the singular triplets of the whitened cross-covariance
    [T = C̃₁₁^{−1/2} C₁₂ C̃₂₂^{−1/2}]: projection [hₚ = C̃pp^{−1/2} uₚ], and
    the singular values are the canonical correlations. *)

type t

val fit : ?eps:float -> r:int -> Mat.t -> Mat.t -> t
(** [fit ~eps ~r x1 x2] on (not necessarily centered) views with instances
    as columns; centering is handled internally and frozen.  [eps] defaults
    to 1e-2, the paper's value for the linear experiments.  [r] is clamped
    to [min d₁ d₂]. *)

val r : t -> int

val correlations : t -> Vec.t
(** Canonical correlations, descending, length [r]. *)

val transform1 : t -> Mat.t -> Mat.t
(** Project view-1 data: [r × N]. *)

val transform2 : t -> Mat.t -> Mat.t

val transform_concat : t -> Mat.t -> Mat.t -> Mat.t
(** Concatenated [2r × N] representation — the paper's "reduce to 2r"
    convention for downstream learners. *)

