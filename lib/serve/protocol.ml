(* Length-prefixed frames whose bodies are Checkpoint.Wire field streams —
   the serving protocol deliberately reuses the snapshot format's codec so
   there is exactly one binary-field discipline in the tree.

   Multi-model routing rides on an OPTIONAL trailing [model_id] string on
   every routed request: PR-8-era frames simply end where the old body
   ended, and the decoder maps the absent field to "default" ([Drain]: to
   "" = daemon-wide, preserving the old drain semantics exactly).  New
   fields must therefore only ever be appended, and only decoded through
   [Wire.at_end] probes. *)

module Wire = Checkpoint.Wire

type request =
  | Health
  | Transform of { deadline_ms : int; views : Mat.t array; model_id : string }
  | Predict of { deadline_ms : int; views : Mat.t array; model_id : string }
  | Ingest of { views : Mat.t array; model_id : string }
  | Refit of { deadline_ms : int; model_id : string }
  | Swap of { path : string; model_id : string }
  | Drain of { model_id : string }
  | List_models
  | Model_health of { model_id : string }

type model_info = {
  mi_id : string;
  mi_version : int;
  mi_r : int;
  mi_breaker : string;
  mi_draining : bool;
}

type model_health = {
  mh_id : string;
  mh_version : int;
  mh_r : int;
  mh_dims : int array;
  mh_queue_depth : int;
  mh_queue_capacity : int;
  mh_workers : int;
  mh_breaker : string;
  mh_retry_after_ms : int;
  mh_failures : int;
  mh_respawns : int;
  mh_ingested : int;
  mh_since_fit : int;
  mh_last_refit : string;
  mh_draining : bool;
}

type response =
  | R_health of {
      version : int;
      r : int;
      dims : int array;
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
  | R_deadline of { stage : string; elapsed_ms : int }
  | R_error of { code : string; message : string }
  | R_unavailable of { model_id : string; retry_after_ms : int }
  | R_models of model_info array
  | R_model_health of model_health

let max_frame_bytes = 64 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Body codec. *)

let add_mat b (m : Mat.t) =
  Wire.add_int b m.Mat.rows;
  Wire.add_int b m.Mat.cols;
  Wire.add_f_array b m.Mat.data

let get_mat c =
  let rows, cols, data = Wire.get_shape c "mat" in
  Mat.unsafe_of_flat ~rows ~cols data

let add_views b views =
  Wire.add_int b (Array.length views);
  Array.iter (add_mat b) views

let get_views c =
  (* An encoded matrix takes at least its three header words. *)
  let n = Wire.get_count c ~min_bytes:24 "view count" in
  Array.init n (fun _ -> get_mat c)

let add_int_array b a =
  Wire.add_int b (Array.length a);
  Array.iter (Wire.add_int b) a

let get_int_array c =
  let n = Wire.get_count c ~min_bytes:8 "int array length" in
  Array.init n (fun _ -> Wire.get_int c)

(* The wire-compat probe: a PR-8 frame ends exactly where the old body
   ended, so "no bytes left" decodes to the given default model. *)
let get_model_id ?(default = "default") c =
  if Wire.at_end c then default else Wire.get_string c

let request_to_string req =
  let b = Buffer.create 256 in
  (match req with
  | Health -> Wire.add_int b 1
  | Transform { deadline_ms; views; model_id } ->
    Wire.add_int b 2;
    Wire.add_int b deadline_ms;
    add_views b views;
    Wire.add_string b model_id
  | Predict { deadline_ms; views; model_id } ->
    Wire.add_int b 3;
    Wire.add_int b deadline_ms;
    add_views b views;
    Wire.add_string b model_id
  | Ingest { views; model_id } ->
    Wire.add_int b 4;
    add_views b views;
    Wire.add_string b model_id
  | Refit { deadline_ms; model_id } ->
    Wire.add_int b 5;
    Wire.add_int b deadline_ms;
    Wire.add_string b model_id
  | Swap { path; model_id } ->
    Wire.add_int b 6;
    Wire.add_string b path;
    Wire.add_string b model_id
  | Drain { model_id } ->
    Wire.add_int b 7;
    Wire.add_string b model_id
  | List_models -> Wire.add_int b 8
  | Model_health { model_id } ->
    Wire.add_int b 9;
    Wire.add_string b model_id);
  Buffer.contents b

let request_of_cursor c =
  let req =
    match Wire.get_int c with
    | 1 -> Health
    | 2 ->
      let deadline_ms = Wire.get_int c in
      let views = get_views c in
      Transform { deadline_ms; views; model_id = get_model_id c }
    | 3 ->
      let deadline_ms = Wire.get_int c in
      let views = get_views c in
      Predict { deadline_ms; views; model_id = get_model_id c }
    | 4 ->
      let views = get_views c in
      Ingest { views; model_id = get_model_id c }
    | 5 ->
      let deadline_ms = Wire.get_int c in
      Refit { deadline_ms; model_id = get_model_id c }
    | 6 ->
      let path = Wire.get_string c in
      Swap { path; model_id = get_model_id c }
    | 7 ->
      (* An old Drain frame carries nothing: "" = drain the whole daemon,
         exactly what PR-8 clients asked for. *)
      Drain { model_id = get_model_id ~default:"" c }
    | 8 -> List_models
    | 9 -> Model_health { model_id = Wire.get_string c }
    | _ -> raise (Wire.Decode "bad request tag")
  in
  Wire.expect_end c;
  req

let request_of_string s =
  match request_of_cursor (Wire.cursor s) with
  | req -> Ok req
  | exception Wire.Decode what -> Error what

let add_model_info b { mi_id; mi_version; mi_r; mi_breaker; mi_draining } =
  Wire.add_string b mi_id;
  Wire.add_int b mi_version;
  Wire.add_int b mi_r;
  Wire.add_string b mi_breaker;
  Wire.add_bool b mi_draining

let get_model_info c =
  let mi_id = Wire.get_string c in
  let mi_version = Wire.get_int c in
  let mi_r = Wire.get_nat c "model r" in
  let mi_breaker = Wire.get_string c in
  let mi_draining = Wire.get_bool c in
  { mi_id; mi_version; mi_r; mi_breaker; mi_draining }

let add_model_health b h =
  Wire.add_string b h.mh_id;
  Wire.add_int b h.mh_version;
  Wire.add_int b h.mh_r;
  add_int_array b h.mh_dims;
  Wire.add_int b h.mh_queue_depth;
  Wire.add_int b h.mh_queue_capacity;
  Wire.add_int b h.mh_workers;
  Wire.add_string b h.mh_breaker;
  Wire.add_int b h.mh_retry_after_ms;
  Wire.add_int b h.mh_failures;
  Wire.add_int b h.mh_respawns;
  Wire.add_int b h.mh_ingested;
  Wire.add_int b h.mh_since_fit;
  Wire.add_string b h.mh_last_refit;
  Wire.add_bool b h.mh_draining

let get_model_health c =
  let mh_id = Wire.get_string c in
  let mh_version = Wire.get_int c in
  let mh_r = Wire.get_nat c "health r" in
  let mh_dims = get_int_array c in
  let mh_queue_depth = Wire.get_nat c "queue depth" in
  let mh_queue_capacity = Wire.get_nat c "queue capacity" in
  let mh_workers = Wire.get_nat c "workers" in
  let mh_breaker = Wire.get_string c in
  let mh_retry_after_ms = Wire.get_nat c "retry-after" in
  let mh_failures = Wire.get_nat c "failures" in
  let mh_respawns = Wire.get_nat c "respawns" in
  let mh_ingested = Wire.get_nat c "ingested" in
  let mh_since_fit = Wire.get_nat c "since_fit" in
  let mh_last_refit = Wire.get_string c in
  let mh_draining = Wire.get_bool c in
  { mh_id;
    mh_version;
    mh_r;
    mh_dims;
    mh_queue_depth;
    mh_queue_capacity;
    mh_workers;
    mh_breaker;
    mh_retry_after_ms;
    mh_failures;
    mh_respawns;
    mh_ingested;
    mh_since_fit;
    mh_last_refit;
    mh_draining }

let add_response b resp =
  match resp with
  | R_health
      { version;
        r;
        dims;
        queue_depth;
        queue_capacity;
        workers;
        ingested;
        since_fit;
        draining } ->
    Wire.add_int b 1;
    Wire.add_int b version;
    Wire.add_int b r;
    add_int_array b dims;
    Wire.add_int b queue_depth;
    Wire.add_int b queue_capacity;
    Wire.add_int b workers;
    Wire.add_int b ingested;
    Wire.add_int b since_fit;
    Wire.add_bool b draining
  | R_matrix m ->
    Wire.add_int b 2;
    add_mat b m
  | R_scores s ->
    Wire.add_int b 3;
    Wire.add_f_array b s
  | R_ok { version; note } ->
    Wire.add_int b 4;
    Wire.add_int b version;
    Wire.add_string b note
  | R_shed { depth; capacity } ->
    Wire.add_int b 5;
    Wire.add_int b depth;
    Wire.add_int b capacity
  | R_deadline { stage; elapsed_ms } ->
    Wire.add_int b 6;
    Wire.add_string b stage;
    Wire.add_int b elapsed_ms
  | R_error { code; message } ->
    Wire.add_int b 7;
    Wire.add_string b code;
    Wire.add_string b message
  | R_unavailable { model_id; retry_after_ms } ->
    Wire.add_int b 8;
    Wire.add_string b model_id;
    Wire.add_int b retry_after_ms
  | R_models infos ->
    Wire.add_int b 9;
    Wire.add_int b (Array.length infos);
    Array.iter (add_model_info b) infos
  | R_model_health h ->
    Wire.add_int b 10;
    add_model_health b h

let response_to_string resp =
  let b = Buffer.create 256 in
  add_response b resp;
  Buffer.contents b

let response_of_cursor c =
  let resp =
    match Wire.get_int c with
    | 1 ->
      let version = Wire.get_int c in
      let r = Wire.get_nat c "health r" in
      let dims = get_int_array c in
      let queue_depth = Wire.get_nat c "queue depth" in
      let queue_capacity = Wire.get_nat c "queue capacity" in
      let workers = Wire.get_nat c "workers" in
      let ingested = Wire.get_nat c "ingested" in
      let since_fit = Wire.get_nat c "since_fit" in
      let draining = Wire.get_bool c in
      R_health
        { version;
          r;
          dims;
          queue_depth;
          queue_capacity;
          workers;
          ingested;
          since_fit;
          draining }
    | 2 -> R_matrix (get_mat c)
    | 3 -> R_scores (Wire.get_f_array c)
    | 4 ->
      let version = Wire.get_int c in
      let note = Wire.get_string c in
      R_ok { version; note }
    | 5 ->
      let depth = Wire.get_nat c "shed depth" in
      let capacity = Wire.get_nat c "shed capacity" in
      R_shed { depth; capacity }
    | 6 ->
      let stage = Wire.get_string c in
      let elapsed_ms = Wire.get_int c in
      R_deadline { stage; elapsed_ms }
    | 7 ->
      let code = Wire.get_string c in
      let message = Wire.get_string c in
      R_error { code; message }
    | 8 ->
      let model_id = Wire.get_string c in
      let retry_after_ms = Wire.get_nat c "retry-after" in
      R_unavailable { model_id; retry_after_ms }
    | 9 ->
      (* A model_info is five words. *)
      let n = Wire.get_count c ~min_bytes:40 "model count" in
      R_models (Array.init n (fun _ -> get_model_info c))
    | 10 -> R_model_health (get_model_health c)
    | _ -> raise (Wire.Decode "bad response tag")
  in
  Wire.expect_end c;
  resp

let response_of_string s =
  match response_of_cursor (Wire.cursor s) with
  | resp -> Ok resp
  | exception Wire.Decode what -> Error what

(* ------------------------------------------------------------------ *)
(* Incremental frame decoding — the reactor's read path.  A decoder is a
   grow-only byte accumulator plus a cursor: feed it whatever the socket
   produced (possibly half a header, possibly twelve frames) and pull
   complete frames out one at a time.  Storage is compacted/doubled only
   when a feed does not fit, so a long-lived connection converges on zero
   per-frame allocation beyond the frame bodies themselves. *)

type decoder = {
  mutable d_buf : Bytes.t;
  mutable d_off : int;  (* start of unconsumed bytes *)
  mutable d_end : int;  (* end of valid bytes *)
}

let decoder () = { d_buf = Bytes.create 65536; d_off = 0; d_end = 0 }
let decoder_buffered d = d.d_end - d.d_off

let decoder_feed d src off len =
  if len < 0 || off < 0 || off + len > Bytes.length src then
    invalid_arg "Protocol.decoder_feed";
  let live = decoder_buffered d in
  if len > Bytes.length d.d_buf - d.d_end then
    if live + len <= Bytes.length d.d_buf then begin
      (* Enough total room: slide the live bytes back to the origin. *)
      Bytes.blit d.d_buf d.d_off d.d_buf 0 live;
      d.d_off <- 0;
      d.d_end <- live
    end
    else begin
      let cap = ref (2 * Bytes.length d.d_buf) in
      while live + len > !cap do
        cap := 2 * !cap
      done;
      let nb = Bytes.create !cap in
      Bytes.blit d.d_buf d.d_off nb 0 live;
      d.d_buf <- nb;
      d.d_off <- 0;
      d.d_end <- live
    end;
  Bytes.blit src off d.d_buf d.d_end len;
  d.d_end <- d.d_end + len

let decoder_next d =
  let live = decoder_buffered d in
  if live < 4 then `Await
  else
    let len = Int32.to_int (Bytes.get_int32_le d.d_buf d.d_off) land 0xFFFFFFFF in
    if len > max_frame_bytes then `Oversize len
    else if live < 4 + len then `Await
    else begin
      let body = Bytes.sub_string d.d_buf (d.d_off + 4) len in
      d.d_off <- d.d_off + 4 + len;
      if d.d_off = d.d_end then begin
        d.d_off <- 0;
        d.d_end <- 0
      end;
      `Frame body
    end

(* ------------------------------------------------------------------ *)
(* Buffered frame encoding — the reactor's write path.  Responses are
   encoded straight into per-connection buffers ([scratch] for the body,
   [out] for the framed byte stream): both are grow-only, so a warm
   connection encodes every response without allocating a fresh bytes —
   the regression test in test_event_loop pins this down by counting
   minor words. *)

let add_frame b body =
  let n = String.length body in
  if n > max_frame_bytes then invalid_arg "Protocol.add_frame: frame too large";
  Buffer.add_int32_le b (Int32.of_int n);
  Buffer.add_string b body

let buffer_response ~scratch ~out resp =
  Buffer.clear scratch;
  add_response scratch resp;
  let n = Buffer.length scratch in
  if n > max_frame_bytes then invalid_arg "Protocol.buffer_response: frame too large";
  Buffer.add_int32_le out (Int32.of_int n);
  Buffer.add_buffer out scratch

let buffer_request b req = add_frame b (request_to_string req)

(* ------------------------------------------------------------------ *)
(* Framing over file descriptors. *)

type read_result = Frame of string | Closed | Timeout | Oversize of int

(* Fill [buf.(off .. off+len)] from [fd] before [deadline] (absolute). *)
let rec read_exact fd buf off len ~deadline =
  if len = 0 then `Ok
  else
    let left = deadline -. Unix.gettimeofday () in
    if left <= 0. then `Timeout
    else
      match Unix.select [ fd ] [] [] left with
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf off len ~deadline
      | [], _, _ -> `Timeout
      | _ -> (
        match Unix.read fd buf off len with
        | 0 -> `Closed
        | n -> read_exact fd buf (off + n) (len - n) ~deadline
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_exact fd buf off len ~deadline)

let read_frame ?(timeout_s = 30.) fd =
  if Robust.Inject.(active Slow_client) then Timeout
  else begin
    let deadline = Unix.gettimeofday () +. timeout_s in
    let hdr = Bytes.create 4 in
    match read_exact fd hdr 0 4 ~deadline with
    | `Closed -> Closed
    | `Timeout -> Timeout
    | `Ok ->
      let len = Int32.to_int (Bytes.get_int32_le hdr 0) land 0xFFFFFFFF in
      if len > max_frame_bytes then Oversize len
      else begin
        let body = Bytes.create len in
        match read_exact fd body 0 len ~deadline with
        | `Closed -> Closed
        | `Timeout -> Timeout
        | `Ok -> Frame (Bytes.unsafe_to_string body)
      end
  end

let write_frame fd body =
  let n = String.length body in
  if n > max_frame_bytes then invalid_arg "Protocol.write_frame: frame too large";
  let msg = Bytes.create (4 + n) in
  Bytes.set_int32_le msg 0 (Int32.of_int n);
  Bytes.blit_string body 0 msg 4 n;
  let total = 4 + n in
  let written = ref 0 in
  while !written < total do
    match Unix.write fd msg !written (total - !written) with
    | k -> written := !written + k
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

let call ?timeout_s fd req =
  write_frame fd (request_to_string req);
  match read_frame ?timeout_s fd with
  | Closed -> failwith "Protocol.call: connection closed"
  | Timeout -> failwith "Protocol.call: timed out"
  | Oversize n -> failwith (Printf.sprintf "Protocol.call: oversize reply (%d bytes)" n)
  | Frame body -> (
    match response_of_string body with
    | Ok resp -> resp
    | Error what -> failwith ("Protocol.call: malformed reply: " ^ what))
