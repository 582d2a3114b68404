(* Per-connection reactor state: the incremental decoder on the read side,
   a grow-only output buffer on the write side, and the pipelining
   bookkeeping in between.

   Pipelining contract: every decoded frame gets a sequence number in
   arrival order; responses complete in *any* order (different workers,
   different models, refusals inline) and park in [pending] until their
   turn, then promote into [out] — so the bytes on the wire are always the
   responses in request order, whatever the completion order was.

   All mutation happens on the reactor thread (workers hand responses back
   through the event loop's completion queue), so none of this needs a
   lock. *)

type t = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  scratch : Buffer.t;  (* response body staging; reused every response *)
  out : Buffer.t;      (* framed bytes awaiting the socket; grow-only *)
  mutable out_off : int;       (* bytes of [out] already written *)
  mutable next_seq : int;      (* seq for the next decoded frame *)
  mutable next_write : int;    (* seq owed to the wire next *)
  pending : (int, Protocol.response) Hashtbl.t;  (* done, out of order *)
  mutable inflight : int;      (* submitted, not yet completed *)
  mutable closing : bool;      (* stop reading; flush, then close *)
  mutable alive : bool;        (* false once the fd is closed *)
  mutable last_progress : float;  (* last read byte (stall detection) *)
}

let create ?(now = Unix.gettimeofday ()) fd =
  { fd;
    dec = Protocol.decoder ();
    scratch = Buffer.create 256;
    out = Buffer.create 4096;
    out_off = 0;
    next_seq = 0;
    next_write = 0;
    pending = Hashtbl.create 8;
    inflight = 0;
    closing = false;
    alive = true;
    last_progress = now }


let begin_request c =
  let seq = c.next_seq in
  c.next_seq <- seq + 1;
  c.inflight <- c.inflight + 1;
  seq

(* Promote every contiguously-completed response into the output buffer. *)
let rec promote c =
  match Hashtbl.find_opt c.pending c.next_write with
  | None -> ()
  | Some resp ->
    Hashtbl.remove c.pending c.next_write;
    c.next_write <- c.next_write + 1;
    Protocol.buffer_response ~scratch:c.scratch ~out:c.out resp;
    promote c

let complete c seq resp =
  c.inflight <- c.inflight - 1;
  Hashtbl.replace c.pending seq resp;
  promote c

let unwritten c = Buffer.length c.out - c.out_off
let wants_write c = unwritten c > 0
let idle c = c.inflight = 0 && unwritten c = 0
let mid_frame c = Protocol.decoder_buffered c.dec > 0

let flush ~chunk c =
  let n = Int.min (Bytes.length chunk) (unwritten c) in
  if n = 0 then `Ok
  else begin
    Buffer.blit c.out c.out_off chunk 0 n;
    match Unix.write c.fd chunk 0 n with
    | written ->
      c.out_off <- c.out_off + written;
      if unwritten c = 0 then begin
        (* Fully drained: rewind without releasing storage, so a warm
           connection never re-grows its buffer. *)
        Buffer.clear c.out;
        c.out_off <- 0
      end;
      `Ok
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> `Ok
    | exception Unix.Unix_error _ -> `Closed
  end
