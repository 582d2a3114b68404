(** Dense vectors as plain [float array]s.

    Thin functional layer; everything allocates a fresh result unless the name
    ends in [_in_place].  Lengths are checked and mismatches raise
    [Invalid_argument]. *)

type t = float array

val create : int -> t
(** Zero vector. *)


val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val axpy : float -> t -> t -> t
(** [axpy a x y = a*x + y]. *)

val axpy_in_place : float -> t -> t -> unit
(** [axpy_in_place a x y] sets [y <- a*x + y]. *)

val mul_elem : t -> t -> t
(** Element-wise (Hadamard) product — the [z1 ⊙ z2] of the paper's Eq. (4.5). *)

val dot : t -> t -> float
val norm : t -> float
(** Euclidean norm. *)

val norm1 : t -> float
val norm_inf : t -> float

val normalize : t -> t
(** Unit-norm copy; the zero vector is returned unchanged. *)

val sum : t -> float
val mean : t -> float

val center : t -> t
(** Subtract the mean. *)

val map2 : (float -> float -> float) -> t -> t -> t

val outer : t -> t -> float array array
(** [outer x y] is the rank-1 matrix [x yᵀ] as rows. *)

val equal : ?eps:float -> t -> t -> bool
(** Component-wise comparison with absolute tolerance [eps] (default 1e-9). *)

val all_finite : t -> bool
(** [true] iff no component is NaN or infinite.  One linear pass with early
    exit — cheap enough to guard every stage boundary of a fit. *)

