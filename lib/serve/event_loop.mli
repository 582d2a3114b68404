(** The serving daemon's reactor: a single-threaded [Unix.select] event
    loop owning every connection as a nonblocking fd — per-connection read
    buffers feeding an incremental frame decoder, grow-only write buffers,
    and a completion queue + self-pipe for responses finished on worker
    threads.  Thousands of idle or slow connections cost one fd and a few
    buffers each; a stalled client never occupies a compute worker.

    {b Pipelining.}  A client may stack any number of request frames on
    one connection without waiting; responses come back in request order
    (out-of-order completions park in the connection until their turn).
    Bytes served this way are identical to the same requests sent one at a
    time — ordering is restored before encoding, and dispatch itself is
    {!Server.submit}, the same path as everything else.

    {b Stalls.}  Only a connection that has {e started} a frame and then
    made no progress for [io_timeout_s] is dropped (slow-loris defence);
    idle connections live forever.  With {!Robust.Inject.Slow_client}
    armed, every connection counts as stalled immediately.

    {b Drain.}  {!Server.request_drain} (the SIGTERM handler) wakes the
    reactor through its self-pipe — one nonblocking write, async-signal
    safe — so {!serve_forever} stops accepting within one syscall, not one
    poll tick, flushes in-flight responses (up to a 5 s grace), and shuts
    the engine down. *)

val serve_fds : Server.t -> Unix.file_descr list -> unit
(** One private reactor serving already-connected sockets — the in-process
    test/bench harness's entry point.  Each connection is served until the
    peer closes, stalls mid-frame past [io_timeout_s], or poisons the
    stream: a body that does not decode gets a typed ["bad-request"] reply
    first, an oversize frame likewise.  Every descriptor is closed when its
    connection ends; returns once all have, and never raises. *)

val serve_forever : Server.t -> Unix.sockaddr -> unit
(** Daemon main: bind + listen + accept into the reactor until
    {!Server.request_drain} fires (SIGTERM or a daemon-wide [Drain]), then
    stop accepting, flush, and {!Server.drain_and_stop}.  Unix-domain
    socket paths are unlinked before bind and after close. *)
