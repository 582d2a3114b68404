(** Crash-safe, versioned binary snapshots of iterative solver state.

    A multi-hour rank-r TCCA/KTCCA fit is a CP-ALS loop whose entire
    resumable state is small: the per-mode factor matrices, the weight
    vector, a handful of loop scalars, and the restart bookkeeping.  This
    module gives that state a durable on-disk form so a fit killed at sweep
    900/1000 resumes from its last sweep boundary — bit-identical to an
    uninterrupted run — instead of starting over.

    {b Wire format} (little-endian; full field layout in DESIGN.md §8):
    a 20-byte header — magic ["TCCK"], format {!version} (u32), payload
    length (u64), CRC32 of the payload (u32) — followed by the payload as a
    flat field stream.  Every load verifies magic, version, declared length
    and CRC before decoding, so each distinct way a file can go bad maps to
    a typed {!load_error} rather than an exception or (worse) a silently
    wrong model.

    {b Durability}: {!save} builds the file in memory, writes it to
    [path ^ ".tmp"], and publishes it with an atomic [Sys.rename] — a crash
    at any instant leaves either the previous complete snapshot or the new
    one, never a torn file.  The {!Robust.Inject.Torn_checkpoint_write} and
    [Corrupt_checkpoint] faults bypass these protections so tests can prove
    the loader's cold-start degradation path end-to-end.

    This module sits below [linalg], so factor matrices appear here as plain
    row-major {!factor} arrays; the owning solver ([Cp_als]) converts to and
    from [Mat.t]. *)

val version : int
(** Current format version (bump on any layout change). *)

type factor = { rows : int; cols : int; data : float array }
(** One factor matrix, row-major: element [(i, j)] at [data.(i * cols + j)]. *)

type run_state = {
  rs_init_random : int option;
      (** [Some seed] for a [Random seed] initialization, [None] for HOSVD. *)
  rs_iterations : int;       (** Sweeps completed by this run. *)
  rs_previous_fit : float;   (** Fit after the last completed sweep. *)
  rs_best_fit : float;       (** Best fit seen (swamp-detection state). *)
  rs_drops : int;            (** Consecutive below-best sweeps (ditto). *)
  rs_converged : bool;
  rs_failure : Robust.failure option;
  rs_weights : float array;  (** λ after the last sweep. *)
  rs_factors : factor array; (** One per mode, at the last sweep boundary. *)
  rs_history : float array;  (** Per-sweep fit trajectory, oldest first. *)
}
(** A single ALS run — the in-progress one at its last sweep boundary, or a
    finished one kept so a resumed multi-start solve can still pick the best
    run exactly as the uninterrupted solve would. *)

type t = {
  fingerprint : string;
      (** Opaque solve identity (shape, rank, options) written by the solver;
          a mismatch on load means the snapshot belongs to a different
          problem and is refused (cold start). *)
  domains : int;   (** [Parallel.num_domains ()] at save time (metadata: the
                       kernels are bitwise pool-size-independent). *)
  attempt : int;   (** Restarts consumed; the restart seed stream is replayed
                       deterministically to this position on resume. *)
  completed : run_state list; (** Finished runs, oldest first. *)
  current : run_state;
}

type direction =
  | Newer  (** The file was written by a build newer than this one. *)
  | Older  (** The file predates the oldest version this build reads. *)

type load_error =
  | Truncated
      (** Shorter than the header or the declared payload — a torn write. *)
  | Corrupt of string
      (** Bad magic, CRC mismatch, or a malformed field (the string says
          which). *)
  | Version_mismatch of { found : int; expected : int; direction : direction }
      (** The header's format version is not one this build reads.
          [direction] distinguishes forward incompatibility ([Newer] — e.g.
          a hot-swap fed a snapshot from a newer daemon, refusable with a
          precise reply) from a stale file ([Older]). *)

val load_error_to_string : load_error -> string

val save : path:string -> t -> unit
(** Atomic write: temp file in the same directory + rename.  Raises
    [Sys_error] if the directory is unwritable — solvers catch and degrade
    (a failed snapshot must not kill the fit it protects). *)

val load : path:string -> (t, load_error) result
(** Never raises on bad content: every malformed input maps to a typed
    {!load_error}. *)

val crc32 : string -> int
(** The checksum used by the format (IEEE 802.3 / zlib polynomial); exposed
    for tests and for digesting models elsewhere.  Alias of
    {!Wire.crc32}. *)

(** {1 Wire-format toolkit}

    The header/CRC/field-stream machinery, factored out so other durable
    formats (the serving layer's model files, magic ["TCCM"]) share the
    exact framing, integrity checks and typed {!load_error}s of the
    snapshot format instead of reinventing them. *)
module Wire : sig
  val crc32 : string -> int

  val header_bytes : int
  (** Fixed frame header size: magic (4) + version (4) + length (8) +
      CRC32 (4) = 20 bytes. *)

  (** {2 Field-stream encoders}

      Everything is written as little-endian i64s (floats by bit pattern),
      strings and arrays length-prefixed. *)

  val add_i64 : Buffer.t -> int64 -> unit
  val add_int : Buffer.t -> int -> unit
  val add_f64 : Buffer.t -> float -> unit
  val add_bool : Buffer.t -> bool -> unit
  val add_string : Buffer.t -> string -> unit
  val add_f_array : Buffer.t -> float array -> unit
  val add_int_opt : Buffer.t -> int option -> unit

  (** {2 Field-stream decoders} *)

  exception Decode of string
  (** Raised by the [get_*] cursor readers on any overrun, bad tag, or
      malformed field; framed loaders catch it and surface [Corrupt]. *)

  type cursor

  val cursor : string -> cursor
  val get_i64 : cursor -> int64
  val get_int : cursor -> int
  val get_nat : cursor -> string -> int
  (** [get_nat c what] reads an int and raises {!Decode} if negative;
      [what] names the field in the error. *)

  val get_count : cursor -> min_bytes:int -> string -> int
  (** [get_count c ~min_bytes what] reads the length or count of a
      sequence whose items take at least [min_bytes] bytes each, and raises
      {!Decode} unless that many items fit in the bytes left — so a decoder
      never allocates for items the payload cannot hold. *)

  val get_f64 : cursor -> float
  val get_bool : cursor -> bool
  val get_string : cursor -> string
  val get_f_array : cursor -> float array

  val get_shape : cursor -> string -> int * int * float array
  (** [get_shape c what] reads a [rows], [cols] header and its row-major
      data; raises {!Decode} when a dimension exceeds the payload length or
      [rows·cols] overflows or differs from the data length. *)

  val get_int_opt : cursor -> int option

  val expect_end : cursor -> unit
  (** Raises {!Decode} unless the cursor consumed the whole payload. *)

  val at_end : cursor -> bool
  (** [true] iff the cursor has consumed the whole payload — how decoders
      of formats with optional trailing fields (the serving protocol's
      [model_id]) distinguish an old-format payload from a new one. *)

  (** {2 Framing and file I/O} *)

  val frame : magic:string -> version:int -> string -> string
  (** [frame ~magic ~version payload] builds the complete file bytes:
      20-byte header (magic must be exactly 4 bytes) + payload.  The CRC is
      always computed over the payload as given. *)

  val unframe : magic:string -> version:int -> string -> (string, load_error) result
  (** Header validation in order — length, magic, version (mismatches carry
      a {!direction}), declared payload length, CRC — returning the verified
      payload.  Never raises on bad content. *)

  val write_atomic : path:string -> string -> unit
  (** Temp file in the same directory + atomic [Sys.rename].  Raises
      [Sys_error] if the directory is unwritable. *)

  val write_durable : path:string -> string -> unit
  (** {!write_atomic} hardened against power loss: the temp file is
      fsynced before the rename and the containing directory after it, so
      a crash at any point leaves either the previous complete file or the
      new complete file durably on disk — never a zero-length or torn one
      behind a valid-looking name.  Directory fsync is best-effort; a
      failed data fsync raises [Sys_error].  Model files (the unit of
      serving recovery) use this; solver checkpoints keep the cheaper
      {!write_atomic} (a torn checkpoint only costs a cold-started fit). *)

  val read : path:string -> (string, load_error) result
  (** Whole-file read; an unreadable path maps to [Corrupt]. *)
end

(** {1 Solver-facing configuration} *)

type config = {
  path : string; (** Snapshot file (one file; each save replaces the last). *)
  every : int;   (** Save every [every] sweeps. *)
  resume : bool; (** Load [path] on start when present ([false] = overwrite). *)
}

val config : ?every:int -> ?resume:bool -> string -> config
(** [config path] with [every = 1] and [resume = true] defaults.  Raises
    [Invalid_argument] if [every < 1]. *)

val load_for_resume : fingerprint:string -> config -> t option
(** The solver's start-of-solve hook: [None] when resume is off, the file is
    absent, it fails to load (typed warning via {!Robust.warnf}, cold start),
    or its fingerprint does not match. *)
