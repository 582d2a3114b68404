(* The reactor suite: incremental frame decoding, request pipelining,
   cross-request GEMM micro-batching, and the slow-loris defence.

   Headline guarantees proven here:

   - the incremental decoder yields the same frames whatever the chunking
     (byte-by-byte, all-at-once, across frame boundaries), and refuses
     oversize declarations without allocating;
   - the buffered write path is grow-only: after warm-up, encoding a
     response allocates no fresh buffer storage (alloc-count regression);
   - N pipelined requests on one connection produce byte-identical
     responses, in request order, to the same N sent sequentially — for
     batch_max ∈ {1, 4, 32} and domain pools 1 and 4 (qcheck);
   - a client that stalls mid-frame is dropped after io_timeout_s while a
     sibling connection on the same reactor is served, promptly and
     bitwise-correct, throughout the stall;
   - each crafted decoder probe gets a typed bad-request and its connection
     is closed, while a sibling's pipelined replies stay byte-identical to
     the sequential reference and a new connection is served afterwards;
   - concurrent same-model requests actually coalesce into stacked-column
     GEMM batches, and the batched responses are bitwise identical to the
     library's own per-request transforms. *)

let check_true msg condition = Alcotest.(check bool) msg true condition

let mat_equal_bits a b =
  fst (Mat.dims a) = fst (Mat.dims b)
  && snd (Mat.dims a) = snd (Mat.dims b)
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.Mat.data b.Mat.data

let synth_views ~views ~dim ~n ~seed =
  let rng = Rng.create seed in
  let latent = Mat.init 4 n (fun _ _ -> Rng.gaussian rng) in
  let out = Array.make views (Mat.create 0 0) in
  for p = 0 to views - 1 do
    let mix = Mat.init dim 4 (fun _ _ -> Rng.gaussian rng) in
    let noise = Mat.init dim n (fun _ _ -> 0.5 *. Rng.gaussian rng) in
    out.(p) <- Mat.add (Mat.mul mix latent) noise
  done;
  out

let fit_model ?(rank = 2) ?(seed = 3) () =
  Tcca.fit ~r:rank (synth_views ~views:3 ~dim:6 ~n:40 ~seed)

let cfg ?(workers = 2) ?(queue = 64) ?(batch_max = 32) ?(batch_window_us = 0)
    ?(io_timeout = 30.) () =
  { Server.default_config with
    workers;
    queue_capacity = queue;
    batch_max;
    batch_window_us;
    io_timeout_s = io_timeout }

let with_server ?model c f =
  let t = Server.create ?model c in
  Fun.protect ~finally:(fun () -> Server.drain_and_stop t) (fun () -> f t)

(* ------------------------------------------------------------------ *)
(* Incremental decoder *)

let frame body =
  let b = Buffer.create 64 in
  Protocol.add_frame b body;
  Buffer.contents b

let feed_str d s off len = Protocol.decoder_feed d (Bytes.of_string s) off len

let test_decoder_chunking () =
  let bodies = [ "alpha"; ""; String.make 1000 'x'; "tail" ] in
  let stream = String.concat "" (List.map frame bodies) in
  (* Every chunk size from 1 (byte-by-byte) upward yields the same frames. *)
  List.iter
    (fun chunk ->
      let d = Protocol.decoder () in
      let got = ref [] in
      let rec drain () =
        match Protocol.decoder_next d with
        | `Frame f ->
          got := f :: !got;
          drain ()
        | `Await -> ()
        | `Oversize _ -> Alcotest.fail "spurious oversize"
      in
      let off = ref 0 in
      while !off < String.length stream do
        let len = min chunk (String.length stream - !off) in
        feed_str d stream !off len;
        drain ();
        off := !off + len
      done;
      check_true
        (Printf.sprintf "chunk %d reproduces all frames" chunk)
        (List.rev !got = bodies);
      check_true "decoder fully drained" (Protocol.decoder_buffered d = 0))
    [ 1; 3; 7; String.length stream ]

let test_decoder_oversize () =
  let d = Protocol.decoder () in
  let b = Buffer.create 8 in
  Buffer.add_int32_le b (Int32.of_int (Protocol.max_frame_bytes + 1));
  feed_str d (Buffer.contents b) 0 4;
  (match Protocol.decoder_next d with
  | `Oversize n -> check_true "declared length reported" (n = Protocol.max_frame_bytes + 1)
  | _ -> Alcotest.fail "oversize header must be refused");
  (* A half header is just `Await. *)
  let d2 = Protocol.decoder () in
  feed_str d2 "\x10\x00" 0 2;
  match Protocol.decoder_next d2 with
  | `Await -> ()
  | _ -> Alcotest.fail "half a header is not a frame"

(* ------------------------------------------------------------------ *)
(* Alloc regression: the write path reuses its buffers. *)

let test_buffered_encoding_alloc () =
  let resp = Protocol.R_ok { version = 3; note = "warm connection" } in
  let scratch = Buffer.create 256 in
  let out = Buffer.create 4096 in
  let encode () =
    Protocol.buffer_response ~scratch ~out resp;
    if Buffer.length out > 1 lsl 16 then Buffer.clear out
    (* like a flushed connection: clear keeps storage *)
  in
  for _ = 1 to 100 do encode () done;
  (* After warm-up both buffers have their steady-state capacity: the only
     per-response allocations left are the codec's boxed int64 temporaries,
     a handful of words.  Rebuilding a Buffer + string per frame (the old
     write path) costs well over 100 words per response — the threshold
     splits the two regimes with a wide margin. *)
  let n = 1000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do encode () done;
  let words_per_resp = (Gc.minor_words () -. before) /. float_of_int n in
  check_true
    (Printf.sprintf "%.1f minor words/response (limit 60)" words_per_resp)
    (words_per_resp < 60.)

(* ------------------------------------------------------------------ *)
(* Pipelining ≡ sequential, bitwise, in order (qcheck) *)

let pipeline_model = fit_model ~rank:2 ~seed:17 ()

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

(* Run [reqs] pipelined over one reactor connection; return response
   bodies in arrival order. *)
let run_pipelined t reqs =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> Event_loop.serve_fds t [ server ]) () in
  let bodies =
    Fun.protect
      ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
      (fun () ->
        let b = Buffer.create 4096 in
        List.iter (Protocol.buffer_request b) reqs;
        write_all client (Buffer.contents b);
        List.map
          (fun _ ->
            match Protocol.read_frame ~timeout_s:30. client with
            | Protocol.Frame body -> body
            | _ -> Alcotest.fail "pipelined response missing")
          reqs)
  in
  Thread.join th;
  bodies

let qcheck_pipelined_equals_sequential =
  QCheck.Test.make ~count:6
    ~name:"pipelined ≡ sequential, bitwise in order (batch_max 1/4/32, pools 1/4)"
    QCheck.(pair (int_range 0 1000) (int_range 2 10))
    (fun (seed, nreqs) ->
      let m = pipeline_model in
      let reqs =
        List.init nreqs (fun i ->
            Protocol.Transform
              { deadline_ms = -1;
                views = synth_views ~views:3 ~dim:6 ~n:(1 + ((seed + i) mod 4))
                          ~seed:(seed + (7 * i));
                model_id = "default" })
      in
      let saved = Parallel.num_domains () in
      Fun.protect
        ~finally:(fun () -> Parallel.set_num_domains saved)
        (fun () ->
          List.for_all
            (fun pool ->
              Parallel.set_num_domains pool;
              List.for_all
                (fun batch_max ->
                  with_server ~model:m (cfg ~batch_max ()) (fun t ->
                      (* The reference: the same requests, one at a time,
                         through full dispatch. *)
                      let expected =
                        List.map
                          (fun r -> Protocol.response_to_string (Server.handle t r))
                          reqs
                      in
                      let got = run_pipelined t reqs in
                      List.equal String.equal expected got))
                [ 1; 4; 32 ])
            [ 1; 4 ]))

(* ------------------------------------------------------------------ *)
(* Slow-loris: a mid-frame staller is dropped; its sibling is served. *)

let test_slow_loris_sibling_unaffected () =
  let m = fit_model () in
  with_server ~model:m (cfg ~io_timeout:0.4 ()) (fun t ->
      let loris_c, loris_s = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let good_c, good_s = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let th =
        Thread.create (fun () -> Event_loop.serve_fds t [ loris_s; good_s ]) ()
      in
      (* The loris: half a frame header, then silence. *)
      write_all loris_c "\x10\x00";
      (* The sibling pipelines real work through the stall and must see
         every response, promptly and bitwise-correct. *)
      let reqs =
        List.init 8 (fun i ->
            Protocol.Transform
              { deadline_ms = -1;
                views = synth_views ~views:3 ~dim:6 ~n:(2 + (i mod 3)) ~seed:(50 + i);
                model_id = "default" })
      in
      let b = Buffer.create 4096 in
      List.iter (Protocol.buffer_request b) reqs;
      let t0 = Unix.gettimeofday () in
      write_all good_c (Buffer.contents b);
      List.iter
        (fun req ->
          match Protocol.read_frame ~timeout_s:5. good_c with
          | Protocol.Frame body -> (
            match (Protocol.response_of_string body, req) with
            | Ok (Protocol.R_matrix z), Protocol.Transform { views; _ } ->
              check_true "sibling served bitwise during stall"
                (mat_equal_bits z (Tcca.transform m views))
            | _ -> Alcotest.fail "sibling must get its matrix")
          | _ -> Alcotest.fail "sibling starved during slow-loris stall")
        reqs;
      let sibling_elapsed = Unix.gettimeofday () -. t0 in
      check_true "sibling latency unaffected by the stall (well under io_timeout)"
        (sibling_elapsed < 0.35);
      (* The staller is dropped once io_timeout_s passes mid-frame. *)
      (match Protocol.read_frame ~timeout_s:5. loris_c with
      | Protocol.Closed -> ()
      | _ -> Alcotest.fail "stalled connection must be dropped");
      (try Unix.close loris_c with Unix.Unix_error _ -> ());
      (try Unix.close good_c with Unix.Unix_error _ -> ());
      Thread.join th)

(* ------------------------------------------------------------------ *)
(* Crafted decoder probes: each costs its own connection, nothing else. *)

let test_decoder_probes_over_reactor () =
  with_server ~model:(fit_model ()) (cfg ()) (fun t ->
      let reqs =
        List.init 6 (fun i ->
            Protocol.Transform
              { deadline_ms = -1;
                views = synth_views ~views:3 ~dim:6 ~n:(1 + (i mod 3)) ~seed:(120 + i);
                model_id = "default" })
      in
      let expected = List.map (fun r -> Protocol.response_to_string (Server.handle t r)) reqs in
      let probes =
        List.map
          (fun (name, fields) ->
            let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            (name, Test_support.probe_body fields, client, server))
          Test_support.decoder_probes
      in
      let sib_c, sib_s = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let th =
        Thread.create
          (fun () -> Event_loop.serve_fds t (sib_s :: List.map (fun (_, _, _, s) -> s) probes))
          ()
      in
      List.iter (fun (_, body, c, _) -> Protocol.write_frame c body) probes;
      let b = Buffer.create 4096 in
      List.iter (Protocol.buffer_request b) reqs;
      write_all sib_c (Buffer.contents b);
      List.iter
        (fun (name, _, c, _) ->
          (match Protocol.read_frame ~timeout_s:5. c with
          | Protocol.Frame body -> (
            match Protocol.response_of_string body with
            | Ok (Protocol.R_error { code = "bad-request"; _ }) -> ()
            | _ -> Alcotest.failf "%s: expected a typed bad-request" name)
          | _ -> Alcotest.failf "%s: no reply" name);
          (match Protocol.read_frame ~timeout_s:5. c with
          | Protocol.Closed -> ()
          | _ -> Alcotest.failf "%s: the connection must be closed" name);
          Unix.close c)
        probes;
      let got =
        List.map
          (fun _ ->
            match Protocol.read_frame ~timeout_s:30. sib_c with
            | Protocol.Frame body -> body
            | _ -> Alcotest.fail "sibling reply missing")
          reqs
      in
      check_true "sibling replies ≡ sequential reference, bytewise"
        (List.equal String.equal expected got);
      Unix.close sib_c;
      Thread.join th;
      check_true "a new connection is served afterwards"
        (List.equal String.equal expected (run_pipelined t reqs)))

(* ------------------------------------------------------------------ *)
(* Micro-batching: concurrent requests actually coalesce, bitwise. *)

let test_batching_coalesces_bitwise () =
  let m = fit_model () in
  (* One worker + a 50 ms batching window: the worker pops the first job,
     lingers, and must sweep the stragglers into a single stacked GEMM. *)
  with_server ~model:m
    (cfg ~workers:1 ~batch_max:32 ~batch_window_us:50_000 ())
    (fun t ->
      let k = 8 in
      let inputs =
        Array.init k (fun i -> synth_views ~views:3 ~dim:6 ~n:(1 + (i mod 3)) ~seed:(90 + i))
      in
      let mu = Mutex.create () in
      let cond = Condition.create () in
      let got = Array.make k None in
      let remaining = ref k in
      Array.iteri
        (fun i views ->
          Server.submit t
            (Protocol.Transform { deadline_ms = -1; views; model_id = "default" })
            (fun resp ->
              Mutex.lock mu;
              got.(i) <- Some resp;
              decr remaining;
              Condition.signal cond;
              Mutex.unlock mu))
        inputs;
      Mutex.lock mu;
      while !remaining > 0 do
        Condition.wait cond mu
      done;
      Mutex.unlock mu;
      Array.iteri
        (fun i resp ->
          match resp with
          | Some (Protocol.R_matrix z) ->
            check_true "batched response ≡ library transform, bitwise"
              (mat_equal_bits z (Tcca.transform m inputs.(i)))
          | _ -> Alcotest.fail "batched request must be served")
        got;
      match Server.batch_stats t "default" with
      | Some (batches, jobs) ->
        check_true
          (Printf.sprintf "requests coalesced (batches %d, jobs %d)" batches jobs)
          (batches >= 1 && jobs >= 2)
      | None -> Alcotest.fail "default model must exist")

(* Drain hooks: request_drain must fire them (the reactor's wake path). *)
let test_drain_hook_fires () =
  with_server ~model:(fit_model ()) (cfg ()) (fun t ->
      let fired = Atomic.make 0 in
      let id = Atomic.make (-1) in
      Atomic.set id (Server.add_drain_hook t (fun () -> Atomic.incr fired));
      Server.request_drain t;
      check_true "hook fired on drain" (Atomic.get fired = 1);
      Server.remove_drain_hook t (Atomic.get id);
      Server.request_drain t;
      check_true "removed hook stays silent" (Atomic.get fired = 1))

let () =
  Alcotest.run "event_loop"
    [ ( "decoder",
        [ Alcotest.test_case "chunk-independent" `Quick test_decoder_chunking;
          Alcotest.test_case "oversize refused" `Quick test_decoder_oversize ] );
      ( "write-path",
        [ Alcotest.test_case "grow-only buffers" `Quick test_buffered_encoding_alloc ] );
      ( "pipelining",
        [ QCheck_alcotest.to_alcotest qcheck_pipelined_equals_sequential ] );
      ( "slow-loris",
        [ Alcotest.test_case "sibling unaffected" `Quick
            test_slow_loris_sibling_unaffected ] );
      ( "decoder-probes",
        [ Alcotest.test_case "refused per connection over a live reactor" `Quick
            test_decoder_probes_over_reactor ] );
      ( "batching",
        [ Alcotest.test_case "coalesces bitwise" `Quick test_batching_coalesces_bitwise;
          Alcotest.test_case "drain hook fires" `Quick test_drain_hook_fires ] ) ]
