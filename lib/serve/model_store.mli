(** Durable fitted-model files for the serving daemon — magic ["TCCM"],
    framed and CRC-checked exactly like solver snapshots (the format is
    {!Checkpoint.Wire} with a different magic and payload schema).

    A model file is the unit of hot swap and of crash recovery: {!save} is
    atomic (temp + rename), and {!load} validates framing, CRC, version
    {e and} model structure/finiteness before handing anything back — a
    torn, corrupt, or version-skewed file maps to the same typed
    {!Checkpoint.load_error}s the snapshot loader uses, so the daemon can
    refuse it precisely and keep serving its current version. *)

val save : path:string -> Tcca.t -> unit
(** Durable atomic write of the full model (means, projections, warm-start
    factors, correlations, solver note) via {!Checkpoint.Wire.write_durable}:
    the temp file is fsynced before the rename and the directory after it,
    so a power loss cannot leave a zero-length or torn file behind a
    valid-looking name.  Raises [Sys_error] if the directory is unwritable.
    With {!Robust.Inject.Torn_model_write} armed, a truncated file lands at
    the final path instead (the crash the protocol prevents), so the next
    {!load} must refuse it. *)

val load : path:string -> (Tcca.t, Checkpoint.load_error) result
(** Never raises on bad content.  Beyond the frame checks, a payload whose
    model is structurally inconsistent or non-finite is [Corrupt] — the
    daemon must never install a poisoned model.  With
    {!Robust.Inject.Torn_swap} armed the read bytes are truncated first
    (simulating a half-copied file at the swap path), so the result is
    [Truncated]. *)
