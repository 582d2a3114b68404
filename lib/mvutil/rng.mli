(** Deterministic pseudo-random number generation.

    A self-contained xoshiro256++ generator seeded through splitmix64, so that
    every experiment in the reproduction is exactly replayable from a single
    integer seed.  The interface mirrors the small subset of [Random] that the
    library needs, plus the distributions used by the dataset generators. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] builds a generator from any integer seed (including 0). *)

val copy : t -> t
(** Independent copy of the current state. *)

val split : t -> t
(** [split t] derives a fresh generator from [t], advancing [t]; streams from
    the parent and the child are statistically independent. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val gaussian : ?mu:float -> ?sigma:float -> t -> float
(** Normal deviate via the Marsaglia polar method. *)

val sign : t -> float
(** Uniformly [+1.] or [-1.]. *)

val shuffle_in_place : t -> 'a array -> unit
(** Fisher–Yates shuffle. *)

val permutation : t -> int -> int array
(** [permutation t n] is a uniformly random permutation of [0 .. n-1]. *)

val choose : t -> int -> int -> int array
(** [choose t k n] draws [k] distinct indices from [0 .. n-1], in random
    order.  Raises [Invalid_argument] if [k > n]. *)
