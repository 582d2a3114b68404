(* The single-reactor event loop.  One thread, one [Unix.select], every
   connection a nonblocking fd with a {!Conn} record: thousands of idle or
   slow clients cost one fd and a few buffers each, and a stalled client
   can never occupy a compute worker — workers only ever see complete,
   decoded requests.

   Data flow per connection:

     readable ─▶ decoder_feed ─▶ decoder_next* ─▶ Server.submit
                                                      │ (worker thread)
     writable ◀─ flush ◀─ Conn.complete ◀─ completion queue + wake pipe

   Workers never touch a connection: their [deliver] callback posts
   (conn, seq, response) to the reactor's completion queue and writes one
   byte to the self-pipe, which is also how {!Server.request_drain} wakes
   the loop from a signal handler — so SIGTERM latency is one syscall, not
   a poll tick.

   Slow-loris policy: only a connection that has {e started} a frame and
   then stalled past [io_timeout_s] is dropped.  Idle connections (no
   partial frame) live forever and cost nothing; pipelined bursts are
   bounded by the queue/shed machinery behind {!Server.submit}, not here. *)

let src = Logs.Src.create "tccad.loop" ~doc:"TCCA serving reactor"

module Log = (val Logs.src_log src : Logs.LOG)

type completion = { cc : Conn.t; cseq : int; cresp : Protocol.response }

type t = {
  server : Server.t;
  comp_mutex : Mutex.t;
  completions : completion Queue.t;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
}

let create server =
  let wake_r, wake_w = Unix.pipe () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  { server;
    comp_mutex = Mutex.create ();
    completions = Queue.create ();
    wake_r;
    wake_w }

let destroy t =
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  try Unix.close t.wake_w with Unix.Unix_error _ -> ()

let wake_byte = Bytes.make 1 '!'

(* Async-signal-safe: a single nonblocking write; EAGAIN means a wake-up
   is already pending, which is all we wanted. *)
let wake t = try ignore (Unix.write t.wake_w wake_byte 0 1) with Unix.Unix_error _ -> ()

(* Wake only on the empty→non-empty transition: the reactor drains the
   whole queue every iteration, so a non-empty queue already has a wake
   byte in flight (or the reactor is awake and about to take it).  Under a
   batched burst this turns ~one pipe write per response into one per
   reactor iteration. *)
let post t cc cseq cresp =
  Mutex.lock t.comp_mutex;
  let was_empty = Queue.is_empty t.completions in
  Queue.push { cc; cseq; cresp } t.completions;
  Mutex.unlock t.comp_mutex;
  if was_empty then wake t

let take_completions t =
  Mutex.lock t.comp_mutex;
  let items = Queue.fold (fun acc x -> x :: acc) [] t.completions in
  Queue.clear t.completions;
  Mutex.unlock t.comp_mutex;
  List.rev items

let bad_request message = Protocol.R_error { code = "bad-request"; message }

(* One decoded frame: claim a seq, dispatch.  Refusals call the callback
   synchronously on this thread — they still go through the completion
   queue, drained later this same iteration, so ordering is uniform. *)
let handle_frame t (c : Conn.t) body =
  let seq = Conn.begin_request c in
  (* The stream itself is fine (framing held) but the body is garbage:
     answer typed, then close — same contract as the blocking server. *)
  let refuse msg =
    c.closing <- true;
    Conn.complete c seq (bad_request msg)
  in
  match Protocol.request_of_string body with
  | Error msg -> refuse msg
  | Ok req -> Server.submit t.server req (fun resp -> post t c seq resp)
  (* The decoder is total; should that ever break, one bad frame still
     costs its connection, never the reactor. *)
  | exception e -> refuse ("undecodable request: " ^ Printexc.to_string e)

let pump_decoder t (c : Conn.t) =
  let rec go () =
    if not c.closing then
      match Protocol.decoder_next c.dec with
      | `Frame body ->
        handle_frame t c body;
        go ()
      | `Await -> ()
      | `Oversize len ->
        c.closing <- true;
        let seq = Conn.begin_request c in
        Conn.complete c seq
          (bad_request
             (Printf.sprintf "frame length %d exceeds max %d" len
                Protocol.max_frame_bytes))
  in
  go ()

let read_conn t (c : Conn.t) ~chunk ~now =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> c.closing <- true (* EOF: flush what we owe, then close *)
  | n ->
    c.last_progress <- now;
    Protocol.decoder_feed c.dec chunk 0 n;
    pump_decoder t c
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
    -> ()
  | exception Unix.Unix_error _ ->
    (* Hard error (reset, bad fd): nothing useful left to say. *)
    c.closing <- true;
    c.inflight <- 0;
    Buffer.clear c.out;
    c.out_off <- 0

(* The loop proper.  [listen = None]: serve the given fds until each has
   closed (the in-process test/bench harness).  [listen = Some fd]: accept
   until the daemon-wide drain flag flips, then stop accepting, give
   existing connections [drain_grace_s] to flush, and return. *)

let drain_grace_s = 5.0

let run t ~listen fds =
  let chunk = Bytes.create 65536 in
  let io_timeout = (Server.config t.server).Server.io_timeout_s in
  let conns : (Unix.file_descr, Conn.t) Hashtbl.t = Hashtbl.create 64 in
  let add fd =
    Unix.set_nonblock fd;
    Hashtbl.replace conns fd (Conn.create fd)
  in
  List.iter add fds;
  let close_conn (c : Conn.t) =
    if c.alive then begin
      c.alive <- false;
      Hashtbl.remove conns c.fd;
      try Unix.close c.fd with Unix.Unix_error _ -> ()
    end
  in
  let all_conns () = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  let accepting = ref (listen <> None) in
  let drain_deadline = ref None in
  let rec loop () =
    let now = Unix.gettimeofday () in
    (* The stalled-client simulation stands in for every way a peer can
       wedge a reader: with it armed, every connection is "stalled now". *)
    if Robust.Inject.(active Slow_client) then List.iter close_conn (all_conns ());
    (* Drop real mid-frame stalls; close whatever has finished flushing. *)
    List.iter
      (fun (c : Conn.t) ->
        if Conn.mid_frame c && now -. c.last_progress > io_timeout then begin
          Log.info (fun m -> m "dropping stalled connection (mid-frame %.1fs)"
                               (now -. c.last_progress));
          close_conn c
        end
        else if c.closing && Conn.idle c then close_conn c)
      (all_conns ());
    (* Daemon drain: stop accepting immediately, let live connections
       flush their in-flight responses, close the idle ones. *)
    if Server.draining t.server then begin
      accepting := false;
      (match !drain_deadline with
      | None -> drain_deadline := Some (now +. drain_grace_s)
      | Some _ -> ());
      List.iter (fun c -> if Conn.idle c then close_conn c) (all_conns ())
    end;
    let expired =
      match !drain_deadline with Some d -> now > d | None -> false
    in
    let finished =
      if listen = None then Hashtbl.length conns = 0
      else Server.draining t.server && (Hashtbl.length conns = 0 || expired)
    in
    if finished then List.iter close_conn (all_conns ())
    else begin
      let rds = ref [ t.wake_r ] in
      (match listen with
      | Some lfd when !accepting -> rds := lfd :: !rds
      | _ -> ());
      let wrs = ref [] in
      let busy = ref false in
      Hashtbl.iter
        (fun fd (c : Conn.t) ->
          if not c.closing then rds := fd :: !rds;
          if Conn.wants_write c then wrs := fd :: !wrs;
          if Conn.mid_frame c || c.closing then busy := true)
        conns;
      (* Every productive wake-up — data, completion, accept, drain — is
         event-driven (fd readability or the self-pipe), so a fully idle
         reactor can sleep long ticks.  Only a pending stall deadline or a
         flush-then-close needs a short one. *)
      let tick = if !busy then 0.05 else 0.5 in
      let rd, wr =
        match Unix.select !rds !wrs [] tick with
        | rd, wr, _ -> (rd, wr)
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      in
      let now = Unix.gettimeofday () in
      (* Drain the self-pipe (level-triggered; contents are meaningless). *)
      if List.mem t.wake_r rd then begin
        try
          while Unix.read t.wake_r chunk 0 (Bytes.length chunk) > 0 do
            ()
          done
        with Unix.Unix_error _ -> ()
      end;
      (* Accept everything pending. *)
      (match listen with
      | Some lfd when !accepting && List.mem lfd rd ->
        let rec accept_all () =
          match Unix.accept lfd with
          | fd, _ ->
            add fd;
            accept_all ()
          | exception
              Unix.Unix_error
                ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR | Unix.ECONNABORTED), _, _)
            -> ()
        in
        accept_all ()
      | _ -> ());
      (* Reads: feed decoders, dispatch complete frames. *)
      List.iter
        (fun fd ->
          match Hashtbl.find_opt conns fd with
          | Some c when not c.Conn.closing -> read_conn t c ~chunk ~now
          | _ -> ())
        rd;
      (* Completions: promote into each connection's output in order. *)
      List.iter
        (fun { cc; cseq; cresp } ->
          if cc.Conn.alive then Conn.complete cc cseq cresp)
        (take_completions t);
      (* Writes: flush whoever is writable, plus anyone whose output
         appeared just now (their first flush shouldn't wait a tick). *)
      Hashtbl.iter
        (fun fd (c : Conn.t) ->
          if Conn.wants_write c && (List.mem fd wr || not (List.mem fd !wrs))
          then match Conn.flush ~chunk c with `Ok -> () | `Closed -> close_conn c)
        conns;
      loop ()
    end
  in
  loop ()

let serve_fds server fds =
  let t = create server in
  Fun.protect ~finally:(fun () -> destroy t) (fun () -> run t ~listen:None fds)

let serve_forever server addr =
  let domain = Unix.domain_of_sockaddr addr in
  let lfd = Unix.socket domain Unix.SOCK_STREAM 0 in
  Unix.setsockopt lfd Unix.SO_REUSEADDR true;
  (match addr with
  | Unix.ADDR_UNIX path -> ( try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
  | _ -> ());
  Unix.bind lfd addr;
  Unix.listen lfd 128;
  Unix.set_nonblock lfd;
  let t = create server in
  (* SIGTERM → Server.request_drain → this hook → one pipe write: the
     reactor wakes immediately instead of on its next poll tick. *)
  let hook = Server.add_drain_hook server (fun () -> wake t) in
  Fun.protect
    ~finally:(fun () ->
      Server.remove_drain_hook server hook;
      destroy t;
      (try Unix.close lfd with Unix.Unix_error _ -> ());
      match addr with
      | Unix.ADDR_UNIX path -> (
        try Unix.unlink path with Unix.Unix_error _ | Sys_error _ -> ())
      | _ -> ())
    (fun () -> run t ~listen:(Some lfd) []);
  Server.drain_and_stop server
