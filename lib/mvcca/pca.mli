(** Principal component analysis.

    Used as the per-view preprocessing step of the DSE and SSMVD baselines:
    the paper reduces each view to 100 dimensions with PCA before running
    them.  The components are the top eigenvectors of the [d × d] sample
    covariance. *)

type t

val fit : ?center:bool -> r:int -> Mat.t -> t
(** Instances as columns; keeps the top [min r d] components.  [center]
    (default [true]) subtracts the instance mean first. *)

val transform : t -> Mat.t -> Mat.t
(** [r × N] scores. *)

val components : t -> Mat.t
(** [d × r] orthonormal loadings. *)

val explained_variance : t -> Vec.t
(** Eigenvalues of the covariance for the kept components. *)

val mean : t -> Vec.t
