(** LU factorization with partial pivoting, for general square systems.

    No library code calls it: CP-ALS solves its Khatri–Rao Gram systems by
    Cholesky, with [Matfun]'s spectral pseudo-inverse as the fallback.
    Only the tests use it, as an independent solver to check other
    factorizations against. *)

type t
(** Packed factorization [P A = L U]. *)

exception Singular
(** Raised when a pivot is exactly zero. *)

val decompose : Mat.t -> t
(** Factorize a square matrix.  Raises [Invalid_argument] if not square,
    [Singular] if rank-deficient. *)

val solve_vec : t -> Vec.t -> Vec.t
(** Solve [A x = b]. *)

val solve : t -> Mat.t -> Mat.t
(** Solve [A X = B] column-wise. *)

val det : t -> float
val inverse : t -> Mat.t

val solve_system : Mat.t -> Mat.t -> Mat.t
(** One-shot [decompose]+[solve]. *)
