(** Per-connection reactor state: incremental decoder, pipelining
    bookkeeping, grow-only output buffer.

    A connection may have any number of requests in flight at once; every
    decoded frame takes a sequence number ({!begin_request}) and whatever
    order the responses complete in ({!complete}), the wire sees them in
    request order — out-of-order completions park until their turn.

    The record is transparent because the reactor owns it outright (flags,
    stall clock); nothing here is thread-safe — all calls happen on the
    reactor thread.  Workers hand responses back through the event loop's
    completion queue, never by touching a connection. *)

type t = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  scratch : Buffer.t;   (** Response-body staging; reused every response. *)
  out : Buffer.t;       (** Framed bytes awaiting the socket; grow-only. *)
  mutable out_off : int;      (** Bytes of [out] already written. *)
  mutable next_seq : int;     (** Seq for the next decoded frame. *)
  mutable next_write : int;   (** Seq owed to the wire next. *)
  pending : (int, Protocol.response) Hashtbl.t;
      (** Completed out of order, waiting their turn. *)
  mutable inflight : int;     (** Submitted, not yet completed. *)
  mutable closing : bool;     (** Stop reading; flush, then close. *)
  mutable alive : bool;       (** [false] once the fd is closed. *)
  mutable last_progress : float;  (** Last read byte (stall detection). *)
}

val create : ?now:float -> Unix.file_descr -> t
(** Fresh state for a connected (nonblocking) socket.  [now] seeds the
    stall clock. *)

val begin_request : t -> int
(** Claim the next sequence number (and count it in flight). *)

val complete : t -> int -> Protocol.response -> unit
(** Deliver the response for a sequence number.  Encodes and appends to
    the output buffer immediately if it is this connection's turn (and
    then any parked successors); parks it otherwise. *)

val flush : chunk:bytes -> t -> [ `Ok | `Closed ]
(** Write as much buffered output as the socket accepts (one [write],
    staged through [chunk]; short writes and [EAGAIN] are fine — call
    again when writable).  [`Closed]: the peer is gone. *)

val wants_write : t -> bool
(** Buffered bytes are waiting for the socket. *)

val idle : t -> bool
(** Nothing in flight and nothing buffered. *)

val mid_frame : t -> bool
(** A frame has started arriving but is incomplete — the connection is
    subject to the stall timeout ({!Server.config}[.io_timeout_s]). *)
