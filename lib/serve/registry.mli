(** The multi-model registry: model names, their on-disk layout and
    recovery.  It maps each valid id to the value the server builds for it
    (its serving slot: state, queue, workers), so that any fault — torn
    swap, poisoned refit, crashed worker, corrupt state dir — is contained
    to the model that suffered it.  A model's serving state is a
    {!Model_state.t}; the registry reads one such snapshot to persist it.

    {b Locking.}  One registry-level mutex guards the id → entry table
    (lookup, insert, list) and nothing else; the server never takes an
    entry's locks under it.

    {b On-disk layout.}  Each model owns [<root>/<id>/model-v%06d.tccm].
    A PR-8 single-model state dir ([<root>/model-v*.tccm], no subdirs) is
    recovered as the ["default"] model — unless a [<root>/default/]
    directory exists, which then wins. *)

type 'a t

val create : ?root:string -> (string -> 'a) -> 'a t
(** An empty registry whose entries the function builds from their id.
    [root] is the state root directory (created if missing); without it
    nothing persists. *)

val find : 'a t -> string -> 'a option

val find_or_create : 'a t -> string -> ('a * bool, string) result
(** Look up, creating an entry when the id is new.  The [bool] is [true]
    iff the entry was just created (the server spawns its workers then).
    [Error] (a message) on an invalid id — nothing is created.  Ids are
    1–64 chars of [[A-Za-z0-9._-]], the first alphanumeric. *)

val list : 'a t -> 'a list
(** All entries, sorted by id (deterministic listing order). *)

val snapshot : 'a t -> string -> Model_state.t -> unit
(** Durably write the state's model to the id's own directory as
    [model-v%06d.tccm] of its version (no-op when cold or rootless; a
    failed write warns and continues — serving is never blocked on the
    disk). *)

val recover : 'a t -> (string * (Tcca.t * int) option) list
(** Scan the root for models: each subdirectory with a valid
    id is one, paired with its newest snapshot that passes full validation
    and that snapshot's version; corrupt ones are skipped with warnings,
    and a model whose snapshots all fail is paired with [None] (a cold
    start) and a warning — {e independently per model}, so one rotten
    state dir never poisons a sibling.  Legacy top-level [model-v*.tccm]
    files recover as ["default"] when no [default/] subdirectory exists.
    With {!Robust.Inject.Registry_corrupt_one} armed, the alphabetically
    first model directory is treated as unreadable (cold start + warning)
    to prove mixed-health recovery end-to-end. *)
