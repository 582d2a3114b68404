(** Pairwise distances between instances stored as matrix columns.

    The paper's kernel experiments (Sec. 5.2) use the χ² distance for the
    visual-word histogram view and L2 for the rest. *)

type t =
  | L2        (** Euclidean distance. *)
  | Sq_l2     (** Squared Euclidean — the usual RBF argument. *)
  | Chi2      (** [Σᵢ (xᵢ−yᵢ)² / (xᵢ+yᵢ)], terms with a zero denominator
                  skipped; intended for non-negative histogram features. *)
  | L1

val eval : t -> Vec.t -> Vec.t -> float

val column_into : t -> Vec.t array -> Vec.t -> float array -> int -> int -> unit
(** [column_into d cols y out lo hi] sets [out.(i)] to [eval d cols.(i) y],
    bitwise, for every [lo ≤ i < hi], summing four instances per loop
    step — the pass behind a Nyström kernel column.  Raises
    [Invalid_argument] if one of those [cols.(i)] differs in length from
    [y]. *)

val pairwise : t -> Mat.t -> Mat.t
(** [pairwise d x] for [x : d×N] (instances as columns) is the symmetric
    [N×N] distance matrix. *)

val cross : t -> Mat.t -> Mat.t -> Mat.t
(** [cross d a b] is the [N_a × N_b] matrix of distances between columns of
    [a] and columns of [b]. *)

val max_entry : Mat.t -> float
(** Largest entry — the paper's bandwidth [λ = maxᵢⱼ d(xᵢ,xⱼ)]. *)

val max_pairwise : t -> Mat.t -> float
(** [max_pairwise d x = max_entry (pairwise d x)] computed streaming in
    O(N) memory — the bandwidth pass of the Nyström scaling path, where the
    N×N distance matrix is never materialized.  [0.] for fewer than two
    instances. *)

val pairwise_count : unit -> int
(** Number of {!pairwise} sweeps performed by this process so far — test
    instrumentation for pinning that a pipeline (e.g. [Kernel.fit] followed
    by [Kernel.gram]) performs exactly one O(N²·d) pass. *)
