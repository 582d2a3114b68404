(** A lazily-created, reusable domain pool for data-parallel kernels.

    The pool is sized from [TCCA_DOMAINS] (environment) when set, otherwise
    [Domain.recommended_domain_count ()].  At size 1 every entry point runs
    sequentially in the calling domain — no domains are ever spawned — so a
    single-core container pays nothing for the abstraction.

    Determinism contract: [parallel_for] splits [0, n) into contiguous,
    non-overlapping chunks and hands each chunk to exactly one domain.  A
    kernel that (a) writes only to indices inside its chunk ("row ownership")
    and (b) accumulates into each output cell in the same order as its
    sequential loop therefore produces bitwise-identical results for every
    pool size.  All kernels in [Mat], [Tensor], [Distance], and [Cp_als]
    follow this discipline. *)

val num_domains : unit -> int
(** Size the pool has (or will have once lazily created). *)

val set_num_domains : int -> unit
(** Override the pool size (clamped to [1, 128]).  Shuts the current pool
    down; the next parallel call re-creates it lazily at the new size.
    Intended for tests and benchmarks; prefer [TCCA_DOMAINS] in production. *)

val size_from_env : string option -> int
(** Pool size implied by a raw [TCCA_DOMAINS] value: a positive integer is
    clamped to [1, 128]; [None], garbage, and non-positive values fall back
    to [Domain.recommended_domain_count ()].  Exposed for testing. *)

val default_cutoff : int
(** The built-in sequential cutoff (16384 work units). *)

val sequential_cutoff : unit -> int
(** Minimum estimated cost (arbitrary work units, see [parallel_for]'s [cost])
    below which parallel entry points run sequentially.  Default 16384;
    overridable via [TCCA_PAR_CUTOFF]. *)

val set_sequential_cutoff : int -> unit
(** Override the cutoff.  [set_sequential_cutoff 0] forces even tiny inputs
    through the pool — used by tests to exercise the parallel paths. *)

val parallel_for : ?cost:int -> n:int -> (int -> int -> unit) -> unit
(** [parallel_for ~cost ~n body] partitions [0, n) into contiguous chunks and
    calls [body lo hi] (meaning: process indices [lo .. hi-1]) once per chunk,
    concurrently when the pool has more than one domain.  Runs sequentially
    as [body 0 n] when the pool size is 1, when [cost] (default [n]) is below
    [sequential_cutoff ()], when [n < 2], or when called from inside another
    parallel region (nested calls degrade to sequential rather than
    deadlock).  Exceptions raised by any chunk are re-raised in the caller
    after all chunks finish. *)

val parallel_for_reduce :
  ?cost:int -> n:int -> init:'a -> combine:('a -> 'a -> 'a) -> (int -> int -> 'a) -> 'a
(** [parallel_for_reduce ~n ~init ~combine body] — like [parallel_for] but
    each chunk returns a partial value; partials are combined left-to-right
    in chunk order (lowest indices first), starting from [init], so a given
    [n] and chunk count reduce in a fixed order. *)

