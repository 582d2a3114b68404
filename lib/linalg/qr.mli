(** Householder QR factorization.

    Its one production caller is {!Svd}'s tall route, which factors
    [A = QR] and takes the eigendecomposition of [RᵀR]. *)

type t

val decompose : Mat.t -> t
(** Factor an [m × n] matrix with [m ≥ n] as [A = Q R]. *)

val q_thin : t -> Mat.t
(** The thin [m × n] orthonormal factor. *)

val r : t -> Mat.t
(** The [n × n] upper-triangular factor. *)
