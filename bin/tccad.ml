(* The serving daemon and its client.

   dune exec bin/tccad.exe -- serve --listen unix:/tmp/tccad.sock --state-dir /tmp/tccad
   dune exec bin/tccad.exe -- serve --model m.tccm --listen tcp:7070 --workers 4
   dune exec bin/tccad.exe -- health  --connect unix:/tmp/tccad.sock
   dune exec bin/tccad.exe -- list-models --connect unix:/tmp/tccad.sock
   dune exec bin/tccad.exe -- ingest  --connect unix:/tmp/tccad.sock --model a --seed 1 -n 200 --views 3 --dim 12
   dune exec bin/tccad.exe -- refit   --connect unix:/tmp/tccad.sock --model a
   dune exec bin/tccad.exe -- transform --connect unix:/tmp/tccad.sock --model a --seed 7 -n 16
   dune exec bin/tccad.exe -- swap    --connect unix:/tmp/tccad.sock --model b /path/model.tccm
   dune exec bin/tccad.exe -- drain   --connect unix:/tmp/tccad.sock [--model a]

   Every client subcommand targets one model of the daemon's registry via
   --model (default "default", the PR-8 single-model slot); drain without
   --model stops the whole daemon.  The client generates deterministic
   synthetic views from a seed (same generator as tcca_experiments fit), so
   two [transform --seed S] calls against the same model print
   byte-identical output — the property the daemon kill-and-resume CI check
   asserts, per model. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Addresses: unix:PATH or tcp:PORT (loopback). *)

let sockaddr_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "unix" ->
    Ok (Unix.ADDR_UNIX (String.sub s (i + 1) (String.length s - i - 1)))
  | Some i when String.sub s 0 i = "tcp" -> (
    match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
    | Some port when port > 0 && port < 65536 ->
      Ok (Unix.ADDR_INET (Unix.inet_addr_loopback, port))
    | _ -> Error (`Msg "tcp address needs a port number"))
  | _ -> Error (`Msg "address must be unix:PATH or tcp:PORT")

let addr_conv =
  let parse s = sockaddr_of_string s in
  let print ppf = function
    | Unix.ADDR_UNIX p -> Format.fprintf ppf "unix:%s" p
    | Unix.ADDR_INET (_, port) -> Format.fprintf ppf "tcp:%d" port
  in
  Arg.conv (parse, print)

(* ------------------------------------------------------------------ *)
(* serve *)

let setup_logs () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Info)

let serve_cmd =
  let model =
    Arg.(value & opt (some string) None & info [ "model" ] ~docv:"FILE"
           ~doc:"Model file (TCCM) to serve as \"default\"; otherwise recover from --state-dir.")
  in
  let listen =
    Arg.(value & opt addr_conv (Unix.ADDR_UNIX "/tmp/tccad.sock")
         & info [ "listen" ] ~docv:"ADDR" ~doc:"unix:PATH or tcp:PORT.")
  in
  let state_dir =
    Arg.(value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR"
           ~doc:"State root (one subdirectory per model; created if missing).")
  in
  let workers =
    Arg.(value & opt (some int) None & info [ "workers" ] ~docv:"N"
           ~doc:"Compute threads per model (default: the domain-pool size).")
  in
  let queue =
    Arg.(value & opt int 64 & info [ "queue" ] ~docv:"N"
           ~doc:"Per-model request-queue capacity.")
  in
  let deadline =
    Arg.(value & opt int 5000 & info [ "default-deadline-ms" ] ~docv:"MS"
           ~doc:"Deadline for requests that do not carry one (negative = unlimited).")
  in
  let io_timeout =
    Arg.(value & opt float 30. & info [ "io-timeout" ] ~docv:"S"
           ~doc:"Per-connection frame-read timeout.")
  in
  let refit_iters =
    Arg.(value & opt int 100 & info [ "refit-iters" ] ~docv:"K" ~doc:"Max ALS sweeps per refit.")
  in
  let refit_tol =
    Arg.(value & opt float 1e-6 & info [ "refit-tol" ] ~docv:"T" ~doc:"Refit ALS tolerance.")
  in
  let eps =
    Arg.(value & opt float 1e-2 & info [ "eps" ] ~docv:"E" ~doc:"Whitening regularizer.")
  in
  let rank =
    Arg.(value & opt int 4 & info [ "rank" ] ~docv:"R" ~doc:"Rank for cold-start refits.")
  in
  let breaker_failures =
    Arg.(value & opt int 5 & info [ "breaker-failures" ] ~docv:"N"
           ~doc:"Consecutive failures that trip a model's circuit breaker.")
  in
  let breaker_cooldown =
    Arg.(value & opt int 1000 & info [ "breaker-cooldown-ms" ] ~docv:"MS"
           ~doc:"Open-breaker cooldown before half-open probes.")
  in
  let max_respawns =
    Arg.(value & opt int 4 & info [ "max-respawns" ] ~docv:"N"
           ~doc:"Crashed-worker respawn budget per model.")
  in
  let batch_max =
    Arg.(value & opt int 32 & info [ "batch-max" ] ~docv:"N"
           ~doc:"Most concurrent transform/predict requests one GEMM \
                 micro-batch may stack (1 disables coalescing).")
  in
  let batch_window =
    Arg.(value & opt int 0 & info [ "batch-window-us" ] ~docv:"US"
           ~doc:"How long a worker lingers for batch stragglers once its \
                 queue runs dry, in microseconds (0: no added latency).")
  in
  let action model listen state_dir workers queue deadline io_timeout refit_iters
      refit_tol eps rank breaker_failures breaker_cooldown max_respawns batch_max
      batch_window =
    setup_logs ();
    let cfg =
      { Server.default_config with
        workers = (match workers with Some w -> w | None -> Server.default_config.Server.workers);
        queue_capacity = queue;
        default_deadline_ms = deadline;
        io_timeout_s = io_timeout;
        state_dir;
        refit_options = { Cp_als.default_options with max_iter = refit_iters; tol = refit_tol };
        eps;
        rank;
        breaker =
          { Breaker.default_config with
            failure_threshold = breaker_failures;
            open_cooldown_s = float_of_int breaker_cooldown /. 1000. };
        max_respawns;
        batch_max;
        batch_window_us = batch_window }
    in
    match
      match model with
      | None -> Ok None
      | Some path -> (
        match Model_store.load ~path with
        | Ok m -> Ok (Some m)
        | Error e -> Error (Checkpoint.load_error_to_string e))
    with
    | Error msg -> `Error (false, "--model: " ^ msg)
    | Ok model ->
      let t = Server.create ?model cfg in
      (* Graceful drain on SIGTERM/SIGINT: flip the (atomic) drain flag and
         fire the drain hooks — the reactor's hook is one self-pipe write,
         so it wakes immediately, flushes in-flight work and snapshots
         before exiting. *)
      let handler = Sys.Signal_handle (fun _ -> Server.request_drain t) in
      Sys.set_signal Sys.sigterm handler;
      Sys.set_signal Sys.sigint handler;
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      Event_loop.serve_forever t listen;
      `Ok ()
  in
  Cmd.v
    (Cmd.info "serve" ~doc:"Run the serving daemon.")
    Term.(ret
            (const action $ model $ listen $ state_dir $ workers $ queue $ deadline
             $ io_timeout $ refit_iters $ refit_tol $ eps $ rank $ breaker_failures
             $ breaker_cooldown $ max_respawns $ batch_max $ batch_window))

(* ------------------------------------------------------------------ *)
(* client plumbing *)

let connect_arg =
  Arg.(value & opt addr_conv (Unix.ADDR_UNIX "/tmp/tccad.sock")
       & info [ "connect" ] ~docv:"ADDR" ~doc:"Daemon address (unix:PATH or tcp:PORT).")

let model_arg =
  Arg.(value & opt string "default" & info [ "model" ] ~docv:"ID"
       ~doc:"Target model id in the daemon's registry.")

(* Every client subcommand's error mapping: a refused or broken connection
   and a [Failure] from the exchange both end the subcommand in an error. *)
let client f =
  try f () with
  | Unix.Unix_error (e, _, _) -> `Error (false, "connect: " ^ Unix.error_message e)
  | Failure msg -> `Error (false, msg)

let with_conn addr f =
  let fd = Unix.socket (Unix.domain_of_sockaddr addr) Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd addr;
      f fd)

(* Same generator as tcca_experiments' fit harness: a shared 4-dim latent
   signal plus per-view noise, a pure function of (views, dim, n, seed). *)
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

let synth_from_dims ~dims ~n ~seed =
  (* Per-view dims may differ after a swap; generate at the max and slice.
     (All in-tree models use homogeneous dims, where this is exact.) *)
  let views = Array.length dims in
  let dmax = Array.fold_left max 1 dims in
  let full = synth_views ~views ~dim:dmax ~n ~seed in
  Array.map2 (fun v d -> Mat.init d n (fun i j -> Mat.get v i j)) full dims

let fetch_dims fd ~model_id =
  match Protocol.call fd (Protocol.Model_health { model_id }) with
  | Protocol.R_model_health { mh_dims; _ } when Array.length mh_dims > 0 -> Ok mh_dims
  | Protocol.R_model_health _ ->
    Error (Printf.sprintf "model %S is cold: no dims to generate against" model_id)
  | Protocol.R_error { code; message } ->
    Error (Printf.sprintf "[%s] %s" code message)
  | _ -> Error "unexpected model-health reply"

let print_response = function
  | Protocol.R_health
      { version; r; dims; queue_depth; queue_capacity; workers; ingested; since_fit;
        draining } ->
    Printf.printf "version %d  r %d  dims [%s]  queue %d/%d  workers %d  ingested %d  since-fit %d  draining %b\n"
      version r
      (String.concat ";" (Array.to_list (Array.map string_of_int dims)))
      queue_depth queue_capacity workers ingested since_fit draining;
    `Ok ()
  | Protocol.R_matrix m ->
    Printf.printf "matrix %d %d\n" m.Mat.rows m.Mat.cols;
    Array.iter (fun v -> Printf.printf "%.17g\n" v) m.Mat.data;
    `Ok ()
  | Protocol.R_scores s ->
    Printf.printf "scores %d\n" (Array.length s);
    Array.iter (fun v -> Printf.printf "%.17g\n" v) s;
    `Ok ()
  | Protocol.R_ok { version; note } ->
    Printf.printf "ok version %d: %s\n" version note;
    `Ok ()
  | Protocol.R_shed { depth; capacity } ->
    `Error (false, Printf.sprintf "shed: queue %d/%d full — retry later" depth capacity)
  | Protocol.R_deadline { stage; elapsed_ms } ->
    `Error (false, Printf.sprintf "deadline exceeded at %s after %d ms" stage elapsed_ms)
  | Protocol.R_unavailable { model_id; retry_after_ms } ->
    `Error
      ( false,
        Printf.sprintf "unavailable: model %S breaker open — retry in %d ms" model_id
          retry_after_ms )
  | Protocol.R_models infos ->
    Array.iter
      (fun { Protocol.mi_id; mi_version; mi_r; mi_breaker; mi_draining } ->
        Printf.printf "%s version %d r %d breaker %s draining %b\n" mi_id mi_version
          mi_r mi_breaker mi_draining)
      infos;
    `Ok ()
  | Protocol.R_model_health h ->
    Printf.printf
      "model %s  version %d  r %d  dims [%s]  queue %d/%d  workers %d  breaker %s  \
       retry-after %d ms  failures %d  respawns %d  ingested %d  since-fit %d  \
       last-refit %s  draining %b\n"
      h.Protocol.mh_id h.Protocol.mh_version h.Protocol.mh_r
      (String.concat ";" (Array.to_list (Array.map string_of_int h.Protocol.mh_dims)))
      h.Protocol.mh_queue_depth h.Protocol.mh_queue_capacity h.Protocol.mh_workers
      h.Protocol.mh_breaker h.Protocol.mh_retry_after_ms h.Protocol.mh_failures
      h.Protocol.mh_respawns h.Protocol.mh_ingested h.Protocol.mh_since_fit
      h.Protocol.mh_last_refit h.Protocol.mh_draining;
    `Ok ()
  | Protocol.R_error { code; message } ->
    `Error (false, Printf.sprintf "error [%s]: %s" code message)

(* ------------------------------------------------------------------ *)
(* health: per-model table, non-zero exit iff any breaker is open. *)

let health_cmd =
  let action connect =
    client (fun () ->
        with_conn connect (fun fd ->
            match Protocol.call fd Protocol.List_models with
            | Protocol.R_models infos ->
              let healths =
                Array.to_list infos
                |> List.filter_map (fun { Protocol.mi_id; _ } ->
                       match
                         Protocol.call fd (Protocol.Model_health { model_id = mi_id })
                       with
                       | Protocol.R_model_health h -> Some h
                       | _ -> None)
              in
              Printf.printf "%-16s %-9s %7s %3s %7s %7s %8s %9s %8s  %s\n" "MODEL"
                "BREAKER" "VERSION" "R" "QUEUE" "WORKERS" "INGESTED" "SINCE-FIT"
                "RESPAWNS" "LAST-REFIT";
              List.iter
                (fun h ->
                  Printf.printf "%-16s %-9s %7d %3d %3d/%-3d %7d %8d %9d %8d  %s%s\n"
                    h.Protocol.mh_id h.Protocol.mh_breaker h.Protocol.mh_version
                    h.Protocol.mh_r h.Protocol.mh_queue_depth
                    h.Protocol.mh_queue_capacity h.Protocol.mh_workers
                    h.Protocol.mh_ingested h.Protocol.mh_since_fit
                    h.Protocol.mh_respawns h.Protocol.mh_last_refit
                    (if h.Protocol.mh_draining then "  [draining]" else ""))
                healths;
              let open_models =
                List.filter (fun h -> h.Protocol.mh_breaker = "open") healths
              in
              if open_models = [] then `Ok ()
              else
                `Error
                  ( false,
                    Printf.sprintf "breaker open: %s"
                      (String.concat ", "
                         (List.map (fun h -> h.Protocol.mh_id) open_models)) )
            | resp -> print_response resp))
  in
  Cmd.v
    (Cmd.info "health"
       ~doc:"Per-model health table; exits non-zero iff any circuit breaker is open.")
    Term.(ret (const action $ connect_arg))

let list_models_cmd =
  let action connect =
    client (fun () ->
        with_conn connect (fun fd -> print_response (Protocol.call fd Protocol.List_models)))
  in
  Cmd.v (Cmd.info "list-models" ~doc:"List the models in the daemon's registry.")
    Term.(ret (const action $ connect_arg))

let model_health_cmd =
  let action connect model_id =
    client (fun () ->
        with_conn connect (fun fd ->
            print_response (Protocol.call fd (Protocol.Model_health { model_id }))))
  in
  Cmd.v (Cmd.info "model-health" ~doc:"Full health record for one model.")
    Term.(ret (const action $ connect_arg $ model_arg))

let drain_cmd =
  let model =
    Arg.(value & opt string "" & info [ "model" ] ~docv:"ID"
         ~doc:"Drain only this model (its siblings keep serving); without it, \
               drain and stop the whole daemon.")
  in
  let action connect model_id =
    client (fun () ->
        with_conn connect (fun fd ->
            print_response (Protocol.call fd (Protocol.Drain { model_id }))))
  in
  Cmd.v
    (Cmd.info "drain" ~doc:"Drain one model, or the whole daemon without --model.")
    Term.(ret (const action $ connect_arg $ model))

let swap_cmd =
  let path = Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE") in
  let action connect model_id path =
    client (fun () ->
        with_conn connect (fun fd ->
            print_response (Protocol.call fd (Protocol.Swap { path; model_id }))))
  in
  Cmd.v (Cmd.info "swap" ~doc:"Hot-swap one model from a file.")
    Term.(ret (const action $ connect_arg $ model_arg $ path))

let refit_cmd =
  let deadline =
    Arg.(value & opt int (-1) & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Refit deadline (negative = server default).")
  in
  let action connect model_id deadline_ms =
    client (fun () ->
        with_conn connect (fun fd ->
            print_response
              (Protocol.call ~timeout_s:600. fd (Protocol.Refit { deadline_ms; model_id }))))
  in
  Cmd.v (Cmd.info "refit" ~doc:"Warm-started incremental refit from ingested samples.")
    Term.(ret (const action $ connect_arg $ model_arg $ deadline))

let seed_arg = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S" ~doc:"Data seed.")
let n_arg = Arg.(value & opt int 16 & info [ "n" ] ~docv:"N" ~doc:"Instances.")

let ingest_cmd =
  let views =
    Arg.(value & opt (some int) None & info [ "views" ] ~docv:"M"
           ~doc:"View count (required when the model is cold).")
  in
  let dim =
    Arg.(value & opt (some int) None & info [ "dim" ] ~docv:"D"
           ~doc:"Per-view dimension (required when the model is cold).")
  in
  let action connect model_id seed n views dim =
    client (fun () ->
        with_conn connect (fun fd ->
            let dims =
              match (views, dim) with
              | Some m, Some d -> Ok (Array.make m d)
              | _ -> fetch_dims fd ~model_id
            in
            match dims with
            | Error msg -> `Error (false, msg ^ " (pass --views and --dim)")
            | Ok dims ->
              let batch = synth_from_dims ~dims ~n ~seed in
              print_response
                (Protocol.call fd (Protocol.Ingest { views = batch; model_id }))))
  in
  Cmd.v (Cmd.info "ingest" ~doc:"Ingest a deterministic synthetic sample batch.")
    Term.(ret (const action $ connect_arg $ model_arg $ seed_arg $ n_arg $ views $ dim))

let batch_query_cmd name doc mk =
  let deadline =
    Arg.(value & opt int (-1) & info [ "deadline-ms" ] ~docv:"MS"
           ~doc:"Request deadline (negative = server default).")
  in
  let action connect model_id seed n deadline_ms =
    client (fun () ->
        with_conn connect (fun fd ->
            match fetch_dims fd ~model_id with
            | Error msg -> `Error (false, msg)
            | Ok dims ->
              let batch = synth_from_dims ~dims ~n ~seed in
              print_response (Protocol.call fd (mk ~deadline_ms ~views:batch ~model_id))))
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(ret (const action $ connect_arg $ model_arg $ seed_arg $ n_arg $ deadline))

let transform_cmd =
  batch_query_cmd "transform" "Project a deterministic synthetic batch (%.17g output)."
    (fun ~deadline_ms ~views ~model_id -> Protocol.Transform { deadline_ms; views; model_id })

let predict_cmd =
  batch_query_cmd "predict" "Score a deterministic synthetic batch (%.17g output)."
    (fun ~deadline_ms ~views ~model_id -> Protocol.Predict { deadline_ms; views; model_id })

(* ------------------------------------------------------------------ *)
(* load: multi-connection pipelined load generator.

   Opens C connections, writes every request frame up front (full
   pipelining), then reads the responses back — verifying each response
   body is byte-identical to a sequentially-obtained reference for the
   same request, in request order.  Requests cycle through 4 variants
   (different seed and column count) so an ordering bug cannot hide.
   With --stall-connections, K extra sockets send half a frame header and
   then stall — the slow-loris probe; --stall-wait asserts the daemon
   drops them while the load traffic above stays byte-perfect. *)

let load_cmd =
  let connections =
    Arg.(value & opt int 32 & info [ "connections" ] ~docv:"C"
           ~doc:"Concurrent client connections.")
  in
  let per_conn =
    Arg.(value & opt int 64 & info [ "per-conn" ] ~docv:"N"
           ~doc:"Pipelined requests per connection.")
  in
  let stall =
    Arg.(value & opt int 0 & info [ "stall-connections" ] ~docv:"K"
           ~doc:"Extra connections that send half a frame header and stall \
                 (slow-loris probe).")
  in
  let stall_wait =
    Arg.(value & opt float 0. & info [ "stall-wait" ] ~docv:"S"
           ~doc:"After the load completes, wait up to S seconds for the \
                 daemon to drop the stalled connections; exit non-zero if \
                 it keeps any (0: just close them).")
  in
  let action connect model_id seed n connections per_conn stall stall_wait =
    Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
    let write_all fd s =
      let b = Bytes.unsafe_of_string s in
      let len = Bytes.length b in
      let off = ref 0 in
      while !off < len do
        off := !off + Unix.write fd b !off (len - !off)
      done
    in
    let connect_fd () =
      let fd = Unix.socket (Unix.domain_of_sockaddr connect) Unix.SOCK_STREAM 0 in
      Unix.connect fd connect;
      fd
    in
    client @@ fun () ->
      (* Reference pass: one sequential connection captures the expected
         bytes for each request variant. *)
      let variants = 4 in
      let reqs, refs =
        with_conn connect (fun fd ->
            match fetch_dims fd ~model_id with
            | Error msg -> Error msg
            | Ok dims ->
              let reqs =
                Array.init variants (fun v ->
                    Protocol.Transform
                      { deadline_ms = -1;
                        views = synth_from_dims ~dims ~n:(n + v) ~seed:(seed + v);
                        model_id })
              in
              let refs =
                Array.map
                  (fun req ->
                    Protocol.write_frame fd (Protocol.request_to_string req);
                    match Protocol.read_frame fd with
                    | Protocol.Frame body -> body
                    | _ -> failwith "load: no reply to reference request")
                  reqs
              in
              Ok (reqs, refs))
        |> function
        | Error msg -> failwith ("load: " ^ msg)
        | Ok x -> x
      in
      (* One shared blob of per_conn pipelined frames. *)
      let blob =
        let b = Buffer.create 65536 in
        for i = 0 to per_conn - 1 do
          Protocol.buffer_request b reqs.(i mod variants)
        done;
        Buffer.contents b
      in
      let stallers =
        List.init stall (fun _ ->
            let fd = connect_fd () in
            (* Two bytes of a four-byte header, then silence. *)
            write_all fd "\x10\x00";
            fd)
      in
      let mismatches = Atomic.make 0 in
      let errors = Atomic.make 0 in
      let latencies = Array.make (connections * per_conn) 0. in
      let t_start = Unix.gettimeofday () in
      let worker c =
        try
          let fd = connect_fd () in
          Fun.protect
            ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
            (fun () ->
              let t0 = Unix.gettimeofday () in
              write_all fd blob;
              for i = 0 to per_conn - 1 do
                match Protocol.read_frame ~timeout_s:60. fd with
                | Protocol.Frame body ->
                  latencies.((c * per_conn) + i) <- Unix.gettimeofday () -. t0;
                  if not (String.equal body refs.(i mod variants)) then begin
                    Atomic.incr mismatches;
                    match Protocol.response_of_string body with
                    | Ok (Protocol.R_error { code; message }) ->
                      Printf.eprintf "conn %d req %d: error [%s] %s\n%!" c i code
                        message
                    | Ok (Protocol.R_shed { depth; capacity }) ->
                      (* Not corruption: the daemon's queue overflowed and it
                         shed the request.  Raise --queue (the full pipelined
                         burst is connections x per-conn) or lower the load. *)
                      Printf.eprintf "conn %d req %d: shed (queue %d/%d)\n%!" c i
                        depth capacity
                    | Ok (Protocol.R_unavailable { retry_after_ms; _ }) ->
                      Printf.eprintf "conn %d req %d: unavailable (retry %d ms)\n%!"
                        c i retry_after_ms
                    | Ok (Protocol.R_deadline { stage; elapsed_ms }) ->
                      Printf.eprintf "conn %d req %d: deadline (%s, %d ms)\n%!" c i
                        stage elapsed_ms
                    | Ok _ -> Printf.eprintf "conn %d req %d: wrong bytes\n%!" c i
                    | Error e ->
                      Printf.eprintf "conn %d req %d: undecodable: %s\n%!" c i e
                  end
                | _ ->
                  Atomic.incr errors;
                  raise Exit
              done)
        with _ -> Atomic.incr errors
      in
      let threads = List.init connections (fun c -> Thread.create worker c) in
      List.iter Thread.join threads;
      let wall = Unix.gettimeofday () -. t_start in
      let total = connections * per_conn in
      Array.sort compare latencies;
      let pct p = latencies.(min (total - 1) (total * p / 100)) in
      Printf.printf
        "%d connections x %d pipelined requests: %d ok, %d mismatched, %d errors\n"
        connections per_conn
        (total - Atomic.get mismatches - Atomic.get errors)
        (Atomic.get mismatches) (Atomic.get errors);
      Printf.printf "wall %.3f s  throughput %.0f req/s  p50 %.1f ms  p99 %.1f ms\n"
        wall
        (float_of_int total /. wall)
        (pct 50 *. 1000.) (pct 99 *. 1000.);
      (* Slow-loris verdict: a stalled connection must be dropped (EOF on
         its socket) within the wait window. *)
      let kept = ref 0 in
      if stall > 0 && stall_wait > 0. then begin
        let deadline = Unix.gettimeofday () +. stall_wait in
        let dropped fd =
          let rec wait () =
            let left = deadline -. Unix.gettimeofday () in
            if left <= 0. then false
            else
              match Unix.select [ fd ] [] [] left with
              | [], _, _ -> wait ()
              | _ -> (
                match Unix.read fd (Bytes.create 64) 0 64 with
                | 0 -> true
                | _ -> wait ()
                | exception Unix.Unix_error _ -> true)
          in
          wait ()
        in
        List.iter (fun fd -> if not (dropped fd) then incr kept) stallers;
        Printf.printf "stalled connections: %d sent, %d dropped by daemon\n" stall
          (stall - !kept)
      end;
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) stallers;
      if Atomic.get mismatches > 0 || Atomic.get errors > 0 then
        `Error (false, "load: responses diverged from sequential reference")
      else if !kept > 0 then
        `Error (false, Printf.sprintf "load: %d stalled connections not dropped" !kept)
      else `Ok ()
  in
  Cmd.v
    (Cmd.info "load"
       ~doc:"Pipelined multi-connection load generator; verifies every response \
             byte-identical to a sequential reference, in order.")
    Term.(ret
            (const action $ connect_arg $ model_arg $ seed_arg $ n_arg $ connections
             $ per_conn $ stall $ stall_wait))

let () =
  let doc = "Fault-tolerant multi-model TCCA serving daemon" in
  let info = Cmd.info "tccad" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ serve_cmd; health_cmd; list_models_cmd; model_health_cmd; transform_cmd;
            predict_cmd; ingest_cmd; refit_cmd; swap_cmd; drain_cmd; load_cmd ]))
