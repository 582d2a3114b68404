(** The daemon's wire protocol: length-prefixed binary frames over a stream
    socket.  A client may pipeline: it can write any number of request
    frames without reading, and each connection's responses come back in
    the order its requests were sent (DESIGN.md §14.1).

    Framing: a u32 little-endian body length followed by the body; the body
    is a [Checkpoint.Wire] field stream (tagged variants, little-endian i64
    fields) — the same primitives, integrity discipline and portability as
    the snapshot format.  Frames above {!max_frame_bytes} are refused
    before any allocation, so a hostile or corrupt length prefix cannot
    OOM the daemon.

    {b Multi-model routing and wire compatibility.}  Every routed request
    carries a [model_id] naming its target in the daemon's registry.  On
    the wire the field is an {e optional trailing} string: frames from
    single-model (PR 8) clients end where the old body ended and decode
    with [model_id = "default"] — except [Drain], whose absent field maps
    to [""] (drain the whole daemon), preserving the old drain semantics
    exactly.  New fields must only ever be appended and probed with
    [Wire.at_end].

    Reads are deadline-bounded ({!read_frame} never blocks past its
    timeout), which is what lets the daemon shed a stalled client — the
    {!Robust.Inject.Slow_client} fault forces exactly that path. *)

type request =
  | Health
      (** Single-model-era daemon health; answered with the ["default"]
          model's numbers so old monitoring keeps reading sense.  New
          clients use {!List_models} + {!Model_health}. *)
  | Transform of { deadline_ms : int; views : Mat.t array; model_id : string }
      (** Project a batch (instances as columns, one matrix per view).
          [deadline_ms]: [< 0] = the server's default deadline, [0] =
          already expired (degenerate probe), [> 0] = that budget. *)
  | Predict of { deadline_ms : int; views : Mat.t array; model_id : string }
      (** Per-instance high-order correlation scores
          [sᵢ = Σₖ λₖ Πₚ Zₚ[k,i]]. *)
  | Ingest of { views : Mat.t array; model_id : string }
      (** Fold a sample batch into the named model's covariance
          accumulator (no model change until [Refit]).  Creates the model
          entry (cold) if the id is new and valid. *)
  | Refit of { deadline_ms : int; model_id : string }
      (** Warm-started incremental refit from everything ingested into
          that model. *)
  | Swap of { path : string; model_id : string }
      (** Hot-swap the named model from a file. *)
  | Drain of { model_id : string }
      (** [""]: stop accepting work daemon-wide; flush in-flight;
          checkpoint (the PR 8 semantics).  A model id: drain only that
          model — flush its queue, stop its workers, snapshot it — while
          every sibling keeps serving. *)
  | List_models  (** Registry listing, one {!model_info} per model. *)
  | Model_health of { model_id : string }
      (** Full per-model health record, including breaker state. *)

type model_info = {
  mi_id : string;
  mi_version : int;
  mi_r : int;           (** 0 when cold. *)
  mi_breaker : string;  (** ["closed"] / ["open"] / ["half-open"]. *)
  mi_draining : bool;
}

type model_health = {
  mh_id : string;
  mh_version : int;
  mh_r : int;                (** 0 when cold. *)
  mh_dims : int array;       (** Per-view input dims; empty when cold. *)
  mh_queue_depth : int;      (** This model's own bounded queue. *)
  mh_queue_capacity : int;
  mh_workers : int;          (** Live workers (respawns replace the dead). *)
  mh_breaker : string;       (** ["closed"] / ["open"] / ["half-open"]. *)
  mh_retry_after_ms : int;   (** Remaining breaker cooldown; 0 unless open. *)
  mh_failures : int;         (** Consecutive request failures so far. *)
  mh_respawns : int;         (** Workers respawned after crashes. *)
  mh_ingested : int;
  mh_since_fit : int;
  mh_last_refit : string;    (** ["never"], ["installed v3"], ["retained"],
                                 ["superseded by swap"] or ["failed: …"]. *)
  mh_draining : bool;
}

type response =
  | R_health of {
      version : int;
      r : int;                 (** 0 when serving cold (no model). *)
      dims : int array;        (** Per-view input dims; empty when cold. *)
      queue_depth : int;
      queue_capacity : int;
      workers : int;
      ingested : int;
      since_fit : int;
      draining : bool;
    }
  | R_matrix of Mat.t
  | R_scores of float array
  | R_ok of { version : int; note : string }
  | R_shed of { depth : int; capacity : int }
      (** Load shed: the target model's bounded queue was full; retry
          later. *)
  | R_deadline of { stage : string; elapsed_ms : int }
      (** The request's budget expired before (or during) compute. *)
  | R_error of { code : string; message : string }
      (** Typed refusal.  [code] is machine-readable: ["no-model"],
          ["unknown-model"], ["bad-request"], ["corrupt"], ["torn"],
          ["version-newer"], ["version-older"], ["refit-failed"],
          ["refit-busy"], ["worker-crash"], ["draining"],
          ["unsupported"]. *)
  | R_unavailable of { model_id : string; retry_after_ms : int }
      (** The named model's circuit breaker is open: the request was
          refused {e immediately} (no queueing, no compute) and the client
          should retry no sooner than [retry_after_ms].  Every other
          model keeps serving. *)
  | R_models of model_info array
  | R_model_health of model_health

val max_frame_bytes : int
(** Refusal threshold for a single frame (64 MiB). *)

val request_to_string : request -> string

val request_of_string : string -> (request, string) result
(** Total: any byte string decodes to [Ok] or [Error] and never raises.
    Every length and count is bounded by the bytes left, so a crafted body
    allocates no more than a small multiple of its own size. *)

val response_to_string : response -> string

val response_of_string : string -> (response, string) result
(** Total, like {!request_of_string}. *)

(** {2 Matrix codec}

    Shared with the [.tccm] model files ({!Model_store}). *)

val add_mat : Buffer.t -> Mat.t -> unit

val get_mat : Checkpoint.Wire.cursor -> Mat.t
(** Raises [Checkpoint.Wire.Decode] on a malformed or truncated matrix. *)

(** {2 Incremental decoding (reactor read path)}

    A {!decoder} accumulates whatever the socket produced — half a header,
    twelve frames, anything — and yields complete frames on demand, so a
    nonblocking reader never needs a blocking [read_exact].  Storage is
    grow-only and compacted in place: a warm connection decodes with no
    per-frame allocation beyond the frame bodies. *)

type decoder

val decoder : unit -> decoder
(** A fresh decoder (one per connection). *)

val decoder_feed : decoder -> bytes -> int -> int -> unit
(** [decoder_feed d src off len] appends [len] bytes of [src] at [off]. *)

val decoder_next : decoder -> [ `Frame of string | `Await | `Oversize of int ]
(** Pull the next complete frame. [`Await]: not enough bytes yet.
    [`Oversize n]: the pending header declares [n > max_frame_bytes] —
    the connection should answer and close (the stream cannot resync). *)

val decoder_buffered : decoder -> int
(** Unconsumed bytes held — [> 0] means a frame is in flight (the
    slow-loris stall detector keys on this). *)

(** {2 Buffered encoding (reactor write path)} *)

val add_frame : Buffer.t -> string -> unit
(** Append one length-prefixed frame to a buffer (client-side pipelining:
    stack many frames, write once). *)

val buffer_response : scratch:Buffer.t -> out:Buffer.t -> response -> unit
(** Encode a response body into [scratch] (cleared first) and append the
    framed bytes to [out].  Both buffers are reused across responses, so a
    warm connection allocates no fresh bytes per response. *)

val buffer_request : Buffer.t -> request -> unit
(** Append one framed request to a buffer. *)

type read_result =
  | Frame of string
  | Closed     (** Peer closed (possibly mid-frame). *)
  | Timeout    (** Deadline passed before a complete frame arrived. *)
  | Oversize of int  (** Declared length above {!max_frame_bytes}. *)

val read_frame : ?timeout_s:float -> Unix.file_descr -> read_result
(** Blocking bounded read of one frame (default timeout 30 s).  With
    {!Robust.Inject.Slow_client} armed, reports [Timeout] immediately —
    the stalled-client simulation. *)

val write_frame : Unix.file_descr -> string -> unit
(** Length-prefix + body, looping over partial writes.  Raises
    [Unix.Unix_error] on a dead peer (callers treat the connection as
    closed). *)

val call : ?timeout_s:float -> Unix.file_descr -> request -> response
(** Client helper (tests, CLI): send one request, await the response.
    Raises [Failure] on close/timeout/malformed reply. *)
