(** Cholesky factorization of symmetric positive-definite matrices.

    KTCCA (paper Sec. 4.4) rests on the unique factorization
    [K²pp + εKpp = Lᵀp Lp]; this module provides the lower factor, triangular
    solves and the explicit inverse of the factor.  Note the paper writes the
    factorization as [LᵀL] with [L] *upper*; we return the conventional lower
    [G] with [A = G Gᵀ], so the paper's [Lp] is our [Gᵀ]. *)

type t
(** The lower factor [G] with [A = G Gᵀ]. *)

exception Not_positive_definite of { pivot : int; value : float }
(** The failing pivot index and its (non-positive, possibly NaN) value — so
    callers escalating regularization (KTCCA's ε-ladder) can report which
    entry of which matrix went bad instead of a bare failure. *)

val decompose : Mat.t -> t
(** Raises [Invalid_argument] on a non-square input,
    [Not_positive_definite] when a pivot is ≤ 0 or NaN (up to roundoff). *)

val decompose_jittered :
  ?stage:string ->
  ?attempts:int ->
  ?jitter0:float ->
  Mat.t ->
  (t * float, Robust.failure) result
(** Escalation ladder: try the plain factorization, then retry with diagonal
    jitter [jitter0·100ᵏ] for [k = 0 .. attempts−1] (default [attempts] = 4,
    [jitter0] = [1e-12 · max |aᵢᵢ|]).  Returns the factor and the jitter
    actually used ([0.] when none was needed); every retry is logged via
    [Robust].  [Error Not_positive_definite] carries the last pivot and the
    largest jitter tried when the ladder is exhausted — the input was
    genuinely indefinite, not just roundoff-perturbed. *)

val lower : t -> Mat.t
(** The explicit lower-triangular factor [G]. *)

val solve_vec : t -> Vec.t -> Vec.t
(** Solve [A x = b] via two triangular solves. *)

val solve : t -> Mat.t -> Mat.t

val solve_lower_vec : t -> Vec.t -> Vec.t
(** Solve [G y = b] (forward substitution only). *)

val solve_lower_transpose : t -> Mat.t -> Mat.t
(** Solve [Gᵀ Y = B]. *)

val inverse_lower : t -> Mat.t
(** [G⁻¹], explicitly. *)

val solve_system : Mat.t -> Mat.t -> Mat.t
(** One-shot SPD solve. *)
