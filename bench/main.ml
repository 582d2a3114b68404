(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Sec. 5) at a container-friendly scale, plus the ablations and
   a Bechamel micro-benchmark of each experiment's dominant kernel.

   Usage:
     dune exec bench/main.exe                  # everything
     dune exec bench/main.exe fig3 fig7 micro  # a subset
     dune exec bench/main.exe --list           # available ids
     dune exec bench/main.exe micro --smoke --json out.json
                                               # CI: short quota, JSON artifact

   The `par/*` micros pin each kernel that is row-partitioned across the
   `Parallel` domain pool (see DESIGN.md §"Domain-parallel compute pool");
   compare runs with TCCA_DOMAINS=1 vs TCCA_DOMAINS=4 to measure the
   speedup — outputs are bitwise identical either way.

   Paper-scale runs (bigger dimensions, more seeds) live in
   bin/tcca_experiments.exe. *)

let params = Figures.quick

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table/figure, covering
   the operation that dominates that experiment's cost.                *)

(* One pinned micro per kernel that the Parallel pool row-partitions, sized
   well above the sequential cutoff so the pool actually engages.  fig7
   (covariance tensor) and fig9 (MTTKRP) pin the remaining two. *)
let parallel_kernel_tests () =
  let r = Rng.create 4242 in
  let mk rows cols = Mat.init rows cols (fun _ _ -> Rng.gaussian r) in
  let a = mk 192 160 and b = mk 160 176 in
  let at = mk 160 192 in
  let c = mk 176 160 in
  let wide = mk 48 300 in
  let open Bechamel in
  [ Test.make ~name:"par/mul-192x160x176" (Staged.stage (fun () -> Mat.mul a b));
    Test.make ~name:"par/mul_tn-192x160x176" (Staged.stage (fun () -> Mat.mul_tn at b));
    Test.make ~name:"par/mul_nt-192x176x160" (Staged.stage (fun () -> Mat.mul_nt a c));
    Test.make ~name:"par/gram-192x160" (Staged.stage (fun () -> Mat.gram a));
    Test.make ~name:"par/tgram-160x192" (Staged.stage (fun () -> Mat.tgram at));
    Test.make ~name:"par/pairwise-sql2-300"
      (Staged.stage (fun () -> Distance.pairwise Distance.Sq_l2 wide));
    Test.make ~name:"par/pairwise-chi2-300"
      (Staged.stage (fun () -> Distance.pairwise Distance.Chi2 wide)) ]

(* Symmetric eigensolver micros: the two-stage tridiagonal solver at
   typical whitener sizes, and the tall-matrix SVD route that rides on
   it. *)
let eig_tests () =
  let open Bechamel in
  let r = Rng.create 777 in
  let spd d =
    let x = Mat.init d (2 * d) (fun _ _ -> Rng.gaussian r) in
    Mat.add_scaled_identity 1e-3 (Mat.scale (1. /. float_of_int (2 * d)) (Mat.gram x))
  in
  let a64 = spd 64 and a192 = spd 192 in
  let tall = Mat.init 2048 64 (fun _ _ -> Rng.gaussian r) in
  [ Test.make ~name:"eig/tridiagonal-d64" (Staged.stage (fun () -> Eigen.decompose a64));
    Test.make ~name:"eig/tridiagonal-d192" (Staged.stage (fun () -> Eigen.decompose a192));
    Test.make ~name:"svd/tall-2048x64" (Staged.stage (fun () -> Svd.decompose tall)) ]

(* Serving-path micro (PR "tccad"): one framed transform round trip — encode
   request, socketpair hop, queue + worker dispatch, compute, encode reply —
   at serving-realistic size (d = 200, r = 10, batch 64).  The fixture is
   shared between the Bechamel throughput measurement and the latency-
   percentile pass, and lives for the process (the bench exits right
   after). *)
let serve_fixture =
  lazy
    (let rng = Rng.create 20200 in
     let mk rows cols = Mat.init rows cols (fun _ _ -> Rng.gaussian rng) in
     let views = Array.init 2 (fun _ -> mk 200 256) in
     let model =
       Tcca.fit ~solver:(Tcca.Als { Cp_als.default_options with max_iter = 25 }) ~r:10 views
     in
     let server =
       Server.create ~model { Server.default_config with workers = 2; queue_capacity = 64 }
     in
     let client, sock = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     ignore (Thread.create (fun () -> Event_loop.serve_fds server [ sock ]) ());
     let batch = Array.init 2 (fun _ -> mk 200 64) in
     let req = Protocol.Transform { deadline_ms = -1; views = batch; model_id = "default" } in
     (client, req))

let serve_call () =
  let client, req = Lazy.force serve_fixture in
  match Protocol.call client req with
  | Protocol.R_matrix _ -> ()
  | _ -> failwith "bench: serve/transform-batch got a non-matrix reply"

(* Multi-model routing micro: the same round trip, but against a registry
   holding two models, alternating the target per call — so the measured
   cost includes registry lookup, per-model breaker admission, and the
   cache churn of two live model entries.  The second model is hot-swapped
   in from a file, so it gets its own entry, queue and workers exactly as
   in production. *)
let route_fixture =
  lazy
    (let rng = Rng.create 20300 in
     let mk rows cols = Mat.init rows cols (fun _ _ -> Rng.gaussian rng) in
     let views = Array.init 2 (fun _ -> mk 200 256) in
     let model =
       Tcca.fit ~solver:(Tcca.Als { Cp_als.default_options with max_iter = 25 }) ~r:10 views
     in
     let server =
       Server.create ~model { Server.default_config with workers = 2; queue_capacity = 64 }
     in
     let client, sock = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
     ignore (Thread.create (fun () -> Event_loop.serve_fds server [ sock ]) ());
     let tmp = Filename.temp_file "tccad-bench" ".tccm" in
     Model_store.save ~path:tmp model;
     (match Protocol.call client (Protocol.Swap { path = tmp; model_id = "alt" }) with
     | Protocol.R_ok _ -> ()
     | _ -> failwith "bench: serve/route-transform fixture swap failed");
     (try Sys.remove tmp with Sys_error _ -> ());
     let batch = Array.init 2 (fun _ -> mk 200 64) in
     let reqs =
       [| Protocol.Transform { deadline_ms = -1; views = batch; model_id = "default" };
          Protocol.Transform { deadline_ms = -1; views = batch; model_id = "alt" } |]
     in
     (client, reqs))

let route_counter = ref 0

let route_call () =
  let client, reqs = Lazy.force route_fixture in
  let req = reqs.(!route_counter land 1) in
  incr route_counter;
  match Protocol.call client req with
  | Protocol.R_matrix _ -> ()
  | _ -> failwith "bench: serve/route-transform got a non-matrix reply"

(* Concurrent pipelined micro (PR "event loop"): 32 connections, each
   pipelining 64 transforms through ONE reactor, with cross-request GEMM
   micro-batching on.  Requests are deliberately small (single-column
   transforms) so per-request overhead — syscalls, wakeups, GEMM packing —
   is what the micro actually measures; that is exactly the regime
   micro-batching is for.  The model is deliberately tiny (r = 8, d = 16):
   per-request FLOPs are negligible next to per-request dispatch, so the
   numbers isolate the serving layer itself — the bigger-model regimes are
   covered by serve/transform-batch and serve/route-transform above.  One
   client thread drives all 32 connections through per-connection
   incremental decoders — with pipelining, connection concurrency no
   longer needs a thread per connection on either side of the socket. *)
let c32_conns = 32
let c32_per_conn = 64

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let len = Bytes.length b in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd b !off (len - !off)
  done

let c32_fixture =
  lazy
    (let rng = Rng.create 20400 in
     let mk rows cols = Mat.init rows cols (fun _ _ -> Rng.gaussian rng) in
     let views = Array.init 2 (fun _ -> mk 16 256) in
     let model =
       Tcca.fit ~solver:(Tcca.Als { Cp_als.default_options with max_iter = 25 }) ~r:8 views
     in
     let batch = Array.init 2 (fun _ -> mk 16 1) in
     let req = Protocol.Transform { deadline_ms = -1; views = batch; model_id = "default" } in
     (* The measured server: one reactor over all 32 fds, batching on.
        The queue is deep enough to hold the whole sweep, so coalescing
        runs at its configured width instead of queue-drain width. *)
     let server =
       Server.create ~model
         { Server.default_config with
           workers = 2;
           queue_capacity = 4096;
           batch_max = 128 }
     in
     let pairs =
       Array.init c32_conns (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0)
     in
     ignore
       (Thread.create
          (fun () -> Event_loop.serve_fds server (Array.to_list (Array.map snd pairs)))
          ());
     let blob =
       let b = Buffer.create 65536 in
       for _ = 1 to c32_per_conn do
         Protocol.buffer_request b req
       done;
       Buffer.contents b
     in
     (* What every response must be, bitwise: batch-of-1 dispatch. *)
     let expected = Protocol.response_to_string (Server.handle server req) in
     (Array.map fst pairs, blob, expected))

(* One client thread, 32 pipelined connections: write every blob, then
   select over the sockets, feeding one incremental decoder per
   connection.  The whole sweep fits in the server queue, so the writes
   cannot deadlock against unread responses (the reactor buffers them). *)
let c32_sweep ~verify lats =
  let clients, blob, expected = Lazy.force c32_fixture in
  let total = c32_conns * c32_per_conn in
  let t0 = Unix.gettimeofday () in
  Array.iter (fun fd -> write_all fd blob) clients;
  let decs = Array.map (fun _ -> Protocol.decoder ()) clients in
  let got = Array.make c32_conns 0 in
  let chunk = Bytes.create 65536 in
  let completed = ref 0 in
  while !completed < total do
    let rds = ref [] in
    Array.iteri (fun i fd -> if got.(i) < c32_per_conn then rds := fd :: !rds) clients;
    let rd, _, _ = Unix.select !rds [] [] 5.0 in
    if rd = [] then failwith "bench: c32 sweep stalled";
    List.iter
      (fun fd ->
        let i = ref 0 in
        Array.iteri (fun k c -> if c = fd then i := k) clients;
        let n = Unix.read fd chunk 0 (Bytes.length chunk) in
        if n = 0 then failwith "bench: c32 connection closed early";
        Protocol.decoder_feed decs.(!i) chunk 0 n;
        let more = ref true in
        while !more do
          match Protocol.decoder_next decs.(!i) with
          | `Frame body ->
            (match lats with
            | Some l -> l.(!completed) <- (Unix.gettimeofday () -. t0) *. 1e9
            | None -> ());
            if verify && not (String.equal body expected) then
              failwith "bench: c32 response not bitwise-identical to batch-1 dispatch";
            got.(!i) <- got.(!i) + 1;
            incr completed
          | `Oversize _ -> failwith "bench: c32 oversize response"
          | `Await -> more := false
        done)
      rd
  done;
  Unix.gettimeofday () -. t0

let c32_call () = ignore (c32_sweep ~verify:false None)

(* Verified sweeps with per-response completion times — prints the
   throughput, returns (p50, p99).  Takes the best of three sweeps: on one
   CPU a single sweep's wall time is at the mercy of whatever else the
   scheduler slots in, and best-of-N is the standard way to ask "how fast
   is this architecture" rather than "how unlucky was this run".  The
   percentiles come from the best sweep for the same reason. *)
let c32_report () =
  let total = c32_conns * c32_per_conn in
  let lats = Array.make total nan in
  let pipelined_s =
    let best = ref infinity in
    for _ = 1 to 3 do
      let l = Array.make total nan in
      let s = c32_sweep ~verify:true (Some l) in
      if s < !best then begin
        best := s;
        Array.blit l 0 lats 0 total
      end
    done;
    !best
  in
  Printf.printf "serve/concurrent-transform-c32: pipelined+batched %.0f req/s\n%!"
    (float_of_int total /. pipelined_s);
  Array.sort compare lats;
  let pick q = lats.(min (total - 1) (int_of_float (float_of_int total *. q))) in
  (pick 0.50, pick 0.99)

(* p50/p99 request latency over [samples] sequential calls on the same
   connection — the schema /3 fields riding on the serve records. *)
let latency_percentiles ~samples call =
  ignore (call ()); (* warm the fixture outside the timed window *)
  let lat =
    Array.init samples (fun _ ->
        let t0 = Unix.gettimeofday () in
        call ();
        (Unix.gettimeofday () -. t0) *. 1e9)
  in
  Array.sort compare lat;
  let pick q =
    lat.(min (samples - 1) (int_of_float (Float.of_int samples *. q)))
  in
  (pick 0.50, pick 0.99)

let serve_tests () =
  let open Bechamel in
  [ Test.make ~name:"serve/transform-batch" (Staged.stage serve_call);
    Test.make ~name:"serve/route-transform" (Staged.stage route_call);
    Test.make ~name:"serve/concurrent-transform-c32" (Staged.stage c32_call) ]

let micro_tests () =
  let world = Secstr.world Secstr.Quick in
  let rng = Rng.create 99 in
  let data = Synth.sample world rng ~n:400 in
  let views = data.Multiview.views in
  let centered = fst (Preprocess.center_views views) in
  let covariance = Tcca.covariance_tensor centered in
  let prepared = Tcca.prepare ~eps:1e-2 views in
  let nus = Synth.sample (Nuswide.world Nuswide.Quick) rng ~n:300 in
  let kernel_config =
    Kernel_protocol.default_config ~n_subset:120 (Nuswide.world Nuswide.Quick)
  in
  let small_kernels =
    Kernel_protocol.build_kernels kernel_config
      (Synth.sample (Nuswide.world Nuswide.Quick) rng ~n:120)
  in
  let ktcca_prepared = Ktcca.prepare ~eps:1e-4 small_kernels in
  let factors =
    Array.map
      (fun v -> Mat.init (fst (Mat.dims v)) 8 (fun i j -> sin (float_of_int ((i * 7) + j))))
      views
  in
  let embedding = Tcca.transform (Tcca.fit_prepared ~r:8 prepared) views in
  let labels = data.Multiview.labels in
  (* Operator-representation micros (PR "materialization-free TCCA"): the
     factored path vs the dense kernel on the same whitened tensor.  The
     mttkrp pair is 4 views at dₚ = 30 (810 000 dense entries — still
     materializable, so both sides can run); the 5-view dₚ = 40 fit
     (102 400 000 dense entries) exists only factored. *)
  let op_rng = Rng.create 515 in
  let op_mat rows cols = Mat.init rows cols (fun _ _ -> Rng.gaussian op_rng) in
  let op_factored =
    Op_tensor.factored ~weight:(1. /. 200.) (Array.init 4 (fun _ -> op_mat 30 200))
  in
  let op_dense = Op_tensor.to_tensor op_factored in
  let op_us = Array.init 4 (fun _ -> op_mat 30 8) in
  let mk_views m d n = Array.init m (fun _ -> op_mat d n) in
  let bench_als = Tcca.Als { Cp_als.default_options with max_iter = 20 } in
  let pinned route views =
    let saved = Op_tensor.pinned_route () in
    Op_tensor.pin_route (Some route);
    Fun.protect
      ~finally:(fun () -> Op_tensor.pin_route saved)
      (fun () -> Tcca.prepare ~eps:1e-2 views)
  in
  let tcca_dense_p = pinned `Dense (mk_views 3 30 300) in
  let tcca_fact_p = pinned `Factored (mk_views 3 30 300) in
  let tcca_many_p = Tcca.prepare ~eps:1e-2 (mk_views 5 40 200) in
  assert (not (Tcca.materialized tcca_many_p));
  (* The factored Gram pass, the kernel that dominates a factored fit: ‖M‖²
     and all three HOSVD mode Grams of 3 views at dₚ = 60, N = 1 000.  Its
     own generator leaves the fixtures above unchanged. *)
  let gram_pass_op =
    let r = Rng.create 1000 in
    Op_tensor.factored ~weight:1e-3
      (Array.init 3 (fun _ -> Mat.init 60 1000 (fun _ _ -> Rng.gaussian r)))
  in
  (* Sketched scaling path (PR "sketched scaling path"): the partial-Cholesky
     Nyström pipeline at sizes where the N×N Gram would be prohibitive.  The
     oracles are RBF over synthetic features, so fitting needs no bandwidth
     pass and a kernel column is one O(N·d) sweep — nothing N×N is ever
     allocated inside these kernels; the n20000 entry is the acceptance
     measurement for "N = 20 000 in seconds". *)
  let sketch_rng = Rng.create 4242 in
  let sketch_oracles n =
    Array.init 3 (fun _ ->
        let v = Mat.init 8 n (fun _ _ -> Rng.gaussian sketch_rng) in
        Kernel.oracle (Kernel.fit ~precompute:false (Kernel.Rbf 0.05) v))
  in
  let pchol_oracle = (sketch_oracles 4096).(0) in
  let ny_oracles_4096 = sketch_oracles 4096 in
  let ny_oracles_20k = sketch_oracles 20_000 in
  let rand_svd_a = Mat.init 4096 512 (fun _ _ -> Rng.gaussian sketch_rng) in
  let open Bechamel in
  [ (* Fig. 3 / Table 1: TCCA fit on SecStr-sim (decomposition only). *)
    Test.make ~name:"fig3/tcca-cp-als-r8"
      (Staged.stage (fun () -> Tcca.fit_prepared ~r:8 prepared));
    (* Fig. 4 / Table 2: two-view CCA fit (the Ads baseline family). *)
    Test.make ~name:"fig4/cca-pair-fit"
      (Staged.stage (fun () -> Cca.fit ~eps:1e-2 ~r:8 views.(0) views.(1)));
    (* Fig. 5 / Table 3: CCA-LS multi-view fit on NUS-WIDE-sim. *)
    Test.make ~name:"fig5/cca-ls-fit"
      (Staged.stage (fun () -> Cca_ls.fit ~eps:1e-2 ~r:8 nus.Multiview.views));
    (* Fig. 6 / Table 4: KTCCA decomposition on the kernel tensor. *)
    Test.make ~name:"fig6/ktcca-cp-als-r6"
      (Staged.stage (fun () -> Ktcca.fit_prepared ~r:6 ktcca_prepared));
    (* Fig. 7: covariance-tensor accumulation (the N-dependent pass). *)
    Test.make ~name:"fig7/covariance-tensor"
      (Staged.stage (fun () -> Tcca.covariance_tensor centered));
    (* Fig. 8: whitening — the inverse-square-root of a view covariance. *)
    Test.make ~name:"fig8/inv-sqrt-whitener"
      (Staged.stage
         (let cov =
            Mat.add_scaled_identity 1e-2 (Mat.scale (1. /. 400.) (Mat.gram centered.(0)))
          in
          fun () -> Matfun.inv_sqrt_psd cov));
    (* Fig. 9: the MTTKRP kernel of one ALS sweep. *)
    Test.make ~name:"fig9/mttkrp"
      (Staged.stage (fun () -> Op_tensor.mttkrp (Op_tensor.Dense covariance) factors 0));
    (* Operator representations: same MTTKRP contraction, dense walk over
       ∏dₚ entries vs the factored O(N·Σdₚ·r) GEMM path. *)
    Test.make ~name:"op/mttkrp-dense"
      (Staged.stage (fun () -> Op_tensor.mttkrp (Op_tensor.Dense op_dense) op_us 0));
    Test.make ~name:"op/mttkrp-factored"
      (Staged.stage (fun () -> Op_tensor.mttkrp op_factored op_us 0));
    Test.make ~name:"op/gram-pass-factored"
      (Staged.stage (fun () -> Op_tensor.norm2_and_mode_grams gram_pass_op));
    (* End-to-end fit on a dense-feasible shape, both representations … *)
    Test.make ~name:"tcca/fit-dense"
      (Staged.stage (fun () -> Tcca.fit_prepared ~solver:bench_als ~r:8 tcca_dense_p));
    Test.make ~name:"tcca/fit-factored"
      (Staged.stage (fun () -> Tcca.fit_prepared ~solver:bench_als ~r:8 tcca_fact_p));
    (* … and the many-view shape only the factored operator can hold. *)
    Test.make ~name:"tcca/fit-factored-5view-d40"
      (Staged.stage (fun () -> Tcca.fit_prepared ~solver:bench_als ~r:8 tcca_many_p));
    (* Robustness guardrails (PR "numerics guardrail layer"): what the checked
       paths add on healthy inputs.  The finite guards are the only per-fit
       additions that scale with data size; the injection probe is the
       constant-time check every guarded stage pays even with injection off;
       jittered Cholesky and the checked whitener should match their unguarded
       twins (fig8) to measurement noise — attempt 0 is the same arithmetic. *)
    Test.make ~name:"robust/all-finite-factored"
      (Staged.stage (fun () -> Op_tensor.all_finite op_factored));
    Test.make ~name:"robust/all-finite-dense"
      (Staged.stage (fun () -> Op_tensor.all_finite (Op_tensor.Dense op_dense)));
    Test.make ~name:"robust/inject-probe-disabled"
      (Staged.stage (fun () -> Robust.Inject.(active Als_nan)));
    Test.make ~name:"robust/cholesky-jittered-spd"
      (Staged.stage
         (let spd =
            let x = op_mat 60 120 in
            Mat.add_scaled_identity 1. (Mat.scale (1. /. 120.) (Mat.gram x))
          in
          fun () -> Cholesky.decompose_jittered spd));
    Test.make ~name:"robust/inv-sqrt-checked"
      (Staged.stage
         (let cov =
            Mat.add_scaled_identity 1e-2 (Mat.scale (1. /. 400.) (Mat.gram centered.(0)))
          in
          fun () -> Matfun.inv_sqrt_psd_checked ~shift:1e-2 ~stage:"bench" cov));
    (* Crash-safety (PR "checkpoint/resume"): the cost of one per-sweep
       snapshot (encode + CRC + atomic write) and of loading it back, on a
       state sized like the tcca/fit-dense solve (3 × 30×8 factors), plus the
       checkpointed twin of tcca/fit-dense at the recommended cadence
       (every 25 sweeps) — its ratio to the plain fit is the overhead the
       <5% budget in DESIGN.md §8 refers to (asserted after full-quota
       runs, reported in smoke mode).  Snapshotting every sweep on a
       sub-millisecond solve is dominated by file I/O by construction;
       that per-snapshot cost is what robust/checkpoint-write measures. *)
    Test.make ~name:"robust/checkpoint-write"
      (Staged.stage
         (let path = Filename.temp_file "tcca_bench_ckpt" ".bin" in
          let state =
            { Checkpoint.rs_init_random = None;
              rs_iterations = 10;
              rs_previous_fit = 0.5;
              rs_best_fit = 0.5;
              rs_drops = 0;
              rs_converged = false;
              rs_failure = None;
              rs_weights = Array.make 8 1.;
              rs_factors =
                Array.init 3 (fun _ ->
                    { Checkpoint.rows = 30; cols = 8; data = Array.init 240 float_of_int });
              rs_history = Array.init 10 (fun i -> float_of_int i /. 10.) }
          in
          let snapshot =
            { Checkpoint.fingerprint = "bench/1";
              domains = Parallel.num_domains ();
              attempt = 0;
              completed = [];
              current = state }
          in
          fun () -> Checkpoint.save ~path snapshot));
    Test.make ~name:"robust/resume-load"
      (Staged.stage
         (let path = Filename.temp_file "tcca_bench_ckpt_load" ".bin" in
          let state =
            { Checkpoint.rs_init_random = Some 7;
              rs_iterations = 10;
              rs_previous_fit = 0.5;
              rs_best_fit = 0.5;
              rs_drops = 0;
              rs_converged = false;
              rs_failure = None;
              rs_weights = Array.make 8 1.;
              rs_factors =
                Array.init 3 (fun _ ->
                    { Checkpoint.rows = 30; cols = 8; data = Array.init 240 float_of_int });
              rs_history = Array.init 10 (fun i -> float_of_int i /. 10.) }
          in
          Checkpoint.save ~path
            { Checkpoint.fingerprint = "bench/1";
              domains = Parallel.num_domains ();
              attempt = 0;
              completed = [ state ];
              current = state };
          fun () -> Checkpoint.load ~path));
    Test.make ~name:"tcca/fit-checkpointed"
      (Staged.stage
         (let path = Filename.temp_file "tcca_bench_fit_ckpt" ".bin" in
          fun () ->
            Tcca.fit_prepared ~solver:bench_als
              ~checkpoint:(Checkpoint.config ~every:25 ~resume:false path)
              ~r:8 tcca_dense_p));
    (* Sketched scaling path: rank-revealing partial Cholesky on a kernel
       oracle, the Nyström KTCCA pipeline end to end (pchol → ℓ-space
       whitening → CP → duals), and the randomized range-finder SVD behind
       Pca's route for tall views. *)
    Test.make ~name:"sketch/pchol-n4096-l256"
      (Staged.stage (fun () -> Pchol.decompose ~rank:256 ~tol:0. pchol_oracle));
    Test.make ~name:"ktcca/nystrom-n4096"
      (Staged.stage (fun () ->
           Ktcca.fit_oracles
             ~approx:(Ktcca.Nystrom { rank = 64; tol = 1e-8 })
             ~r:6 ny_oracles_4096));
    (* ℓ = 32 keeps the ℓ-space materialization (32³ entries × N CP
       components) comfortably inside the single-digit-seconds budget. *)
    Test.make ~name:"ktcca/nystrom-n20000"
      (Staged.stage (fun () ->
           Ktcca.fit_oracles
             ~approx:(Ktcca.Nystrom { rank = 32; tol = 1e-8 })
             ~r:6 ny_oracles_20k));
    Test.make ~name:"svd/randomized-4096x512"
      (Staged.stage (fun () -> Svd.randomized ~rank:32 rand_svd_a));
    (* Fig. 10: Gram-matrix construction (chi-squared kernel). *)
    Test.make ~name:"fig10/chi2-gram"
      (Staged.stage (fun () ->
           Kernel.gram
             (Kernel.fit (Kernel.Exp_distance Distance.Chi2) nus.Multiview.views.(0))));
    (* Classification stages shared by all tables. *)
    Test.make ~name:"tables/rls-fit"
      (Staged.stage (fun () -> Rls.fit ~gamma:1e-2 embedding labels));
    Test.make ~name:"tables/knn-predict"
      (Staged.stage
         (let model = Knn.fit ~k:5 embedding labels in
          fun () -> Knn.predict model embedding)) ]
    @ parallel_kernel_tests ()
    @ eig_tests ()
    @ serve_tests ()

(* Nominal flop counts for the GEMM-shaped micros, so every run reports the
   achieved GFLOP/s next to wall time.  mul-family products count 2·m·k·n;
   the symmetric kernels compute the upper triangle and mirror the rest,
   counted as n·(n+1)·k; the MTTKRP pair follows the operation counts in
   DESIGN.md §7 (the factored count is the three side GEMMs, the Hadamard
   combine, and the final projection).  The Gram pass counts its nominal
   2·N²·Σdₚ (the upper half of each view Gram, then one product per mode
   by the upper half of its chain) plus the dₖ × b × dₖ products, N·dₖ²
   multiply-adds per mode over all blocks.  Kernels without a
   closed-form count report null. *)
let flops_of_kernel =
  let mulf m k n = 2 * m * k * n in
  let syrkf n k = n * (n + 1) * k in
  function
  | "par/mul-192x160x176" | "par/mul_tn-192x160x176" | "par/mul_nt-192x176x160" ->
    Some (mulf 192 160 176)
  | "par/gram-192x160" | "par/tgram-160x192" -> Some (syrkf 192 160)
  (* One multiply-add per entry per instance: N = 400 on 60³ views. *)
  | "fig7/covariance-tensor" -> Some (2 * 400 * 60 * 60 * 60)
  | "op/mttkrp-dense" -> Some (2 * 8 * 810_000)
  | "op/mttkrp-factored" -> Some ((3 * mulf 200 30 8) + (3 * 200 * 8) + mulf 30 200 8)
  | "op/gram-pass-factored" -> Some ((2 * 1000 * 1000 * (3 * 60)) + (3 * mulf 60 1000 60))
  (* Randomized SVD: six m×n×k GEMM passes (sketch, 2×2 power-iteration
     half-steps, final B = QᵀA) at k = rank + oversample = 40; the small
     k-space eig is not counted. *)
  | "svd/randomized-4096x512" -> Some (6 * mulf 4096 512 40)
  (* Partial Cholesky: the residual-column update at step k is 2·N·k flops;
     summed over ℓ = 256 steps (kernel-entry evaluations not counted). *)
  | "sketch/pchol-n4096-l256" -> Some (4096 * 256 * 255)
  | _ -> None

(* flops per nanosecond is numerically GFLOP/s. *)
let gflops_of ~name ~ns =
  match flops_of_kernel name with
  | Some flops when Float.is_finite ns && ns > 0. -> Some (float_of_int flops /. ns)
  | _ -> None

(* JSON artifact for the CI bench-regression pipeline: a flat list of
   (kernel, ns/run, r², GFLOP/s) plus enough metadata (sha, domain count,
   smoke flag) to compare runs PR-over-PR.  Hand-rolled — the names are
   plain ASCII.  Schema tcca-bench/2 added the "gflops" field; it is
   emitted on every record (null when no flop count applies) so the
   sequential scanner in scripts/bench_compare.ml never reads a field from
   the wrong record.  Schema /3 adds optional "p50_ns"/"p99_ns" request-
   latency percentiles on the serve micros ([percentiles] is an assoc from
   kernel name); records without them are unchanged, and the scanner
   accepts /1 and /2 artifacts as before. *)
let write_json ~path ~smoke ?(percentiles = []) results =
  let oc = open_out path in
  let sha = match Sys.getenv_opt "GITHUB_SHA" with Some s -> s | None -> "local" in
  Printf.fprintf oc "{\n  \"schema\": \"tcca-bench/3\",\n  \"sha\": %S,\n" sha;
  Printf.fprintf oc "  \"domains\": %d,\n  \"smoke\": %b,\n  \"results\": [\n"
    (Parallel.num_domains ()) smoke;
  let num v = if Float.is_finite v then Printf.sprintf "%.3f" v else "null" in
  List.iteri
    (fun i (name, ns, r2) ->
      let gf = match gflops_of ~name ~ns with Some g -> num g | None -> "null" in
      let lat =
        match List.assoc_opt name percentiles with
        | Some (p50, p99) ->
          Printf.sprintf ", \"p50_ns\": %s, \"p99_ns\": %s" (num p50) (num p99)
        | None -> ""
      in
      Printf.fprintf oc
        "    {\"name\": %S, \"ns_per_run\": %s, \"r_square\": %s, \"gflops\": %s%s}%s\n" name
        (num ns) (num r2) gf lat
        (if i = List.length results - 1 then "" else ","))
    results;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "bench results written to %s\n%!" path

let run_micro ~smoke ~json () =
  let open Bechamel in
  let tests = micro_tests () in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    (* Smoke mode trades statistical quality for CI wall-clock: enough runs
       to catch order-of-magnitude regressions, not enough for a tight OLS. *)
    if smoke then Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None ~stabilize:false ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None ~stabilize:false ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let table =
    Tableau.create
      ~title:
        (Printf.sprintf "Micro-benchmarks (Bechamel, monotonic clock, %d domain%s)"
           (Parallel.num_domains ())
           (if Parallel.num_domains () = 1 then "" else "s"))
      ~columns:[ "kernel"; "time/run"; "r^2"; "GFLOP/s" ]
  in
  let collected = ref [] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg instances test in
      let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name ols_result ->
          let time_ns =
            match Analyze.OLS.estimates ols_result with
            | Some (t :: _) -> t
            | _ -> nan
          in
          let r2 = match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan in
          collected := (name, time_ns, r2) :: !collected;
          let pretty =
            if time_ns > 1e9 then Printf.sprintf "%.2f s" (time_ns /. 1e9)
            else if time_ns > 1e6 then Printf.sprintf "%.2f ms" (time_ns /. 1e6)
            else if time_ns > 1e3 then Printf.sprintf "%.2f us" (time_ns /. 1e3)
            else Printf.sprintf "%.0f ns" time_ns
          in
          let gf =
            match gflops_of ~name ~ns:time_ns with
            | Some g -> Printf.sprintf "%.2f" g
            | None -> "-"
          in
          Tableau.add_text_row table name [ pretty; Printf.sprintf "%.3f" r2; gf ])
        results)
    tests;
  Tableau.print table;
  (* Latency percentiles for the serve micros: measured per-request on the
     live fixtures, printed always and carried into the JSON artifact as
     the schema /3 fields. *)
  let percentiles =
    let samples = if smoke then 120 else 400 in
    List.map
      (fun (name, measure) ->
        let p50, p99 = measure () in
        Printf.printf "%s latency: p50 %.0f ns, p99 %.0f ns\n%!" name p50 p99;
        (name, (p50, p99)))
      [ ("serve/transform-batch", fun () -> latency_percentiles ~samples serve_call);
        ("serve/route-transform", fun () -> latency_percentiles ~samples route_call);
        ("serve/concurrent-transform-c32", c32_report) ]
  in
  (match json with
  | Some path -> write_json ~path ~smoke ~percentiles (List.rev !collected)
  | None -> ());
  (* Checkpointing contract: snapshotting every sweep must stay within a 5%
     per-sweep overhead of the plain fit.  Smoke-mode numbers on shared
     runners are too noisy to gate on, so there the ratio is only printed;
     a full-quota run (the local/perf workflow) enforces it. *)
  let lookup name =
    List.find_map (fun (n, t, _) -> if n = name then Some t else None) !collected
  in
  match (lookup "tcca/fit-dense", lookup "tcca/fit-checkpointed") with
  | Some plain, Some ckpt when plain > 0. && Float.is_finite ckpt ->
    let overhead = (ckpt /. plain) -. 1. in
    Printf.printf "checkpoint overhead: fit-checkpointed / fit-dense = %+.2f%%\n%!"
      (100. *. overhead);
    if (not smoke) && overhead > 0.05 then begin
      Printf.printf "bench: FAIL — checkpointed fit overhead %.2f%% exceeds the 5%% budget\n%!"
        (100. *. overhead);
      exit 1
    end
  | _ -> ()

(* ------------------------------------------------------------------ *)

let run_id id =
  Printf.printf ">>> %s — %s\n%!" id (Figures.describe id);
  let seconds = Measure.time (fun () -> List.iter print_endline (Figures.run params id)) in
  Printf.printf "<<< %s done in %.1fs\n\n%!" id seconds

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Flags can appear anywhere: --smoke, --json FILE; the rest are ids. *)
  let rec parse smoke json ids = function
    | [] -> (smoke, json, List.rev ids)
    | "--smoke" :: rest -> parse true json ids rest
    | "--json" :: path :: rest -> parse smoke (Some path) ids rest
    | "--json" :: [] -> failwith "bench: --json needs a file argument"
    | id :: rest -> parse smoke json (id :: ids) rest
  in
  let smoke, json, ids = parse false None [] args in
  let run_micro = run_micro ~smoke ~json in
  match ids with
  | [ "--list" ] ->
    List.iter (fun id -> Printf.printf "%-12s %s\n" id (Figures.describe id)) Figures.all_ids;
    print_endline "micro        Bechamel micro-benchmarks of each experiment's dominant kernel"
  | [] ->
    List.iter run_id Figures.all_ids;
    run_micro ()
  | ids -> List.iter (fun id -> if id = "micro" then run_micro () else run_id id) ids
