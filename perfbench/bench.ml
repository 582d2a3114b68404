(* The fit and serve benchmark.

     bench.exe --workload W --seed N --seconds S --trace 0|1

   generates the workload's inputs from the seed, runs it for about S
   seconds, checks every output and prints one "metric" line per figure,
   then the result line: a JSON object with the end-to-end metrics
   (--trace 0) or the per-layer metrics (--trace 1).  It exits non-zero
   when any check fails.  perfbench/run.sh builds this program and the
   tccad daemon before running it; see perfbench/README.md.

   Every time is read from the monotonic clock.  Sys.time is process CPU
   time summed over domains and would overstate a parallel fit. *)

open Perfbench_core

let workloads = [ "fit-factored"; "fit-nystrom"; "serve-read"; "serve-mixed" ]
let workload = ref ""
let seed = ref 1
let seconds = ref 20.
let trace = ref 0
let setup_repeats = 5

let usage = "bench.exe --workload W --seed N --seconds S --trace 0|1"

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

(* ------------------------------------------------------------------ *)
(* Clock, process facts and results *)

let now = Trace.now_ns
let since = Trace.seconds_since

let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

let span = Trace.with_span

let first_line cmd =
  match Unix.open_process_in cmd with
  | ic ->
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  | exception Unix.Unix_error _ -> "unknown"

(* VmHWM: the high-water mark of the process's resident set. *)
let peak_rss_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let rec find () =
        let line = input_line ic in
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.
        | None -> find ()
      in
      find ())

let attempted = ref 0
let failed = ref 0
let correct = ref true

let passes name ok detail =
  Printf.printf "check %s %s %s\n%!" name (if ok then "ok" else "FAILED") detail;
  if not ok then correct := false;
  ok

let check name ok detail = ignore (passes name ok detail)

(* Figures for the result line, by metric name. *)
let values : (string, float) Hashtbl.t = Hashtbl.create 64
let set name v = Hashtbl.replace values name v

let unit_of name =
  match
    List.find_opt (fun (x : Metrics.metric) -> x.name = name) (Metrics.end_to_end @ Metrics.per_layer)
  with
  | Some x -> x.unit_
  | None -> invalid_arg ("unit_of: no metric " ^ name)

let line ?(note = "") kind name unit_ v =
  Printf.printf "%s %s %.6g %s%s\n%!" kind name v unit_ (if note = "" then "" else "  " ^ note)

(* Print an end-to-end figure and keep it for the result line. *)
let record ?note name v =
  set name v;
  line ?note "metric" name (unit_of name) v

let print_fail_ratio () =
  line "metric" "fail_ratio" "ratio"
    (float_of_int !failed /. float_of_int (max 1 !attempted))
    ~note:(Printf.sprintf "%d of %d operations failed" !failed !attempted)

(* Set up [setup_repeats] times and report the median; [discard] releases
   every result but the last, outside the timed region. *)
let setups ?(discard = ignore) f =
  let times = Array.make setup_repeats 0. in
  let last = ref None in
  for i = 0 to setup_repeats - 1 do
    Option.iter discard !last;
    let r, dt = timed f in
    times.(i) <- dt;
    last := Some r
  done;
  (Option.get !last, Pick.median times)

let digest_floats arrays =
  let b = Buffer.create 65536 in
  List.iter (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x))) arrays;
  Digest.to_hex (Digest.string (Buffer.contents b))

let mat_data m = m.Mat.data
let cols m = snd (Mat.dims m)

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)) a b

let same_mats a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> same_bits (mat_data x) (mat_data y)) a b

(* Megabytes allocated while [f] runs.  Full collections before and after
   bring the runtime's counters up to date. *)
let allocated_mb f =
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  Gc.full_major ();
  let w0 = words () in
  let r = f () in
  Gc.full_major ();
  (r, (words () -. w0) *. float_of_int (Sys.word_size / 8) /. 1e6)

let warnings () = List.length (Robust.drain_warnings ())

(* ------------------------------------------------------------------ *)
(* Inputs *)

(* A workload draws its instances from one fixed world, the dataset's
   default, and the seed picks the draw: every run measures the same
   dataset, and seeds vary only its sample. *)
let sample_views world rng n = (Synth.sample world rng ~n).Multiview.views
let rng_stream k = Rng.create ((!seed * 1_000_003) + k)

(* ------------------------------------------------------------------ *)
(* Fit workloads *)

let eps = 1e-2
let tcca_r = 8
let fit_n = 2000
let nystrom_n = 10_000
let nystrom = Ktcca.Nystrom { rank = 64; tol = 1e-8 }
let ktcca_r = 6

(* Writing 5 to clear_refs resets VmHWM to the current resident set (a
   no-op where the kernel refuses), so the set-up's garbage is not counted. *)
let reset_peak_rss () =
  try Out_channel.with_open_bin "/proc/self/clear_refs" (fun oc -> output_string oc "5")
  with Sys_error _ -> ()

(* Fit until the window closes; always at least once.  Each fit starts on
   a collected heap, outside the timer, so that it does not pay for its
   predecessor's garbage.  Returns each fit's result and time, and the
   peak RSS of the first fit, which is what a process that fits once
   needs: the heap keeps a little of every fit, so a peak over the window
   would grow with the number of fits it held. *)
let fit_loop fit =
  let t0 = now () in
  let rss = ref 0. in
  let rec go acc =
    if acc <> [] && since t0 >= !seconds then List.rev acc
    else begin
      Gc.compact ();
      if acc = [] then reset_peak_rss ();
      let r, dt = timed (fun () -> try fit () with e -> Error (Printexc.to_string e)) in
      if acc = [] then rss := peak_rss_mb "self";
      go ((r, dt) :: acc)
    end
  in
  let results = go [] in
  (results, !rss)

let report_fits ~setup_s ~digest ~checks (results, rss) =
  let times = Array.of_list (List.map snd results) in
  List.iter (function Error e, _ -> Printf.printf "fit failed: %s\n" e | _ -> ()) results;
  let ok = List.filter_map (fun (r, _) -> Result.to_option r) results in
  let digests = List.map digest ok in
  let first = match digests with d :: _ -> d | [] -> "" in
  check "fits-bitwise-identical"
    (List.for_all (String.equal first) digests)
    (Printf.sprintf "digest %s over %d fits" first (List.length ok));
  let sound = match ok with m :: _ -> checks m | [] -> false in
  (* A fit fails if it raised, returned Error, differs from the run's
     first fit, or fails an output check. *)
  attempted := List.length results;
  failed := !attempted - List.length (List.filter (fun d -> sound && String.equal d first) digests);
  correct := !failed = 0;
  record "setup_s" setup_s ~note:(Printf.sprintf "median of %d set-ups" setup_repeats);
  record "fit_s" (Pick.median times)
    ~note:
      (Printf.sprintf "median of n=%d: %s" (Array.length times)
         (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") times))));
  record "peak_rss_mb" rss ~note:"benchmark process VmHWM during its first fit";
  print_fail_ratio ()

let tcca_digest m =
  let p = Tcca.to_parts m in
  digest_floats
    (Array.to_list p.Tcca.pt_means
    @ List.map mat_data (Array.to_list p.Tcca.pt_projections)
    @ List.map mat_data (Array.to_list p.Tcca.pt_factors)
    @ [ p.Tcca.pt_correlations ])

let centered views = Array.map (fun v -> Mat.sub_col_vec v (Mat.row_means v)) views

(* C̃ₚₚ = (1/N) X̄ₚX̄ₚᵀ + εI, as Tcca whitens it without shrinkage. *)
let regularized_covs xs =
  Array.map
    (fun x -> Mat.add_scaled_identity eps (Mat.scale (1. /. float_of_int (cols x)) (Mat.gram x)))
    xs

(* Worst |hᵀC̃ₚₚh − 1| over every canonical vector. *)
let normalization_error covs m =
  let worst = ref 0. in
  Array.iteri
    (fun p h ->
      let g = Mat.mul_tn h (Mat.mul covs.(p) h) in
      for k = 0 to cols h - 1 do
        worst := Float.max !worst (Float.abs (Mat.get g k k -. 1.))
      done)
    (Tcca.canonical_vectors m);
  !worst

let factored_inputs () =
  setups (fun () -> sample_views (Secstr.world Secstr.Paper) (rng_stream 1) fit_n)

let fit_factored () =
  let views, setup_s = factored_inputs () in
  let covs = regularized_covs (centered views) in
  let results =
    fit_loop (fun () ->
        Result.map_error Robust.failure_to_string (Tcca.fit_checked ~r:tcca_r views))
  in
  report_fits ~setup_s ~digest:tcca_digest results ~checks:(fun m ->
      let e = normalization_error covs m in
      passes "canonical-vectors-normalized" (e <= 1e-9) (Printf.sprintf "worst |h'Ch-1| %.3g" e))

let nystrom_oracles views =
  Array.map (fun v -> Kernel.oracle (Kernel.fit ~precompute:false (Kernel.Rbf 0.05) v)) views

let nystrom_inputs () =
  setups (fun () ->
      let world = Nuswide.world Nuswide.Quick in
      nystrom_oracles (sample_views world (rng_stream 2) nystrom_n))

let ktcca_digest m =
  digest_floats (Ktcca.correlations m :: List.map mat_data (Array.to_list (Ktcca.dual_weights m)))

let nystrom_checks m =
  let ranks =
    match Ktcca.model_sketch_info m with Some i -> i.Ktcca.achieved_ranks | None -> [||]
  in
  let full =
    passes "nystrom-ranks"
      (ranks <> [||] && Array.for_all (( = ) 64) ranks)
      ("ranks " ^ String.concat "," (Array.to_list (Array.map string_of_int ranks)))
  in
  let c = Ktcca.correlations m in
  let descending = ref true in
  Array.iteri (fun k x -> if k > 0 && x > c.(k - 1) then descending := false) c;
  full
  && passes "correlations-finite-descending"
    (Array.for_all Float.is_finite c && !descending)
    (String.concat "," (Array.to_list (Array.map (Printf.sprintf "%.6g") c)))

let fit_nystrom () =
  let oracles, setup_s = nystrom_inputs () in
  let results =
    fit_loop (fun () ->
        Result.map_error Robust.failure_to_string
          (Ktcca.fit_oracles_checked ~approx:nystrom ~r:ktcca_r oracles))
  in
  report_fits ~setup_s ~digest:ktcca_digest ~checks:nystrom_checks results

(* ------------------------------------------------------------------ *)
(* Traced fit runs.  Spans wrap calls into each layer's public functions;
   the replays rebuild the operator the fit decomposes from public calls,
   and check that they decompose it to the fit's own bits. *)

(* The share of an end-to-end figure that the named spans account for. *)
let explained metric share names =
  Printf.printf "explained %s %.4f by %s\n" metric share (String.concat "+" names)

let overhead name unit_ v = Printf.printf "overhead %s %.6g %s\n" name v unit_

let explain ~fit_s names =
  explained "fit_s" (List.fold_left (fun acc c -> acc +. Trace.total_s c) 0. names /. fit_s) names

(* Single-domain fit and the speedup of the default pool over it. *)
let one_domain ~fit_s fit =
  let d0 = Parallel.num_domains () in
  Parallel.set_num_domains 1;
  let (), t1 =
    Fun.protect
      ~finally:(fun () -> Parallel.set_num_domains d0)
      (fun () -> timed (fun () -> span "runtime.fit_1dom" (fun () -> ignore (fit ()))))
  in
  set "runtime.fit_1dom_s" t1;
  set "runtime.parallel_speedup" (t1 /. fit_s)

let mttkrp_sweep op factors =
  for k = 0 to Array.length factors - 1 do
    span "tensor.mttkrp" (fun () -> ignore (Op_tensor.mttkrp op factors k))
  done;
  set "tensor.mttkrp_sweep_s" (Trace.total_s "tensor.mttkrp")

(* The norm and the HOSVD's mode Grams of the operator a fit decomposes. *)
let operator_kernels op =
  let (_ : float), mb =
    allocated_mb (fun () -> span "tensor.norm2" (fun () -> Op_tensor.norm2 op))
  in
  set "tensor.norm2_s" (Trace.total_s "tensor.norm2");
  set "tensor.norm2_alloc_mb" mb;
  let (), mb =
    allocated_mb (fun () ->
        for k = 0 to Op_tensor.order op - 1 do
          span "tensor.mode_gram" (fun () -> ignore (Op_tensor.mode_gram op k))
        done)
  in
  set "tensor.mode_gram_s" (Trace.total_s "tensor.mode_gram");
  set "tensor.mode_gram_alloc_mb" mb

let als_info (info : Cp_als.info) =
  set "tensor.sweeps" (float_of_int info.Cp_als.iterations);
  set "tensor.als_runs" (float_of_int (List.length info.Cp_als.runs))

let traced_fit_factored () =
  let views, _ = factored_inputs () in
  ignore (warnings ());
  Gc.compact ();
  let m0, untraced = timed (fun () -> Tcca.fit ~r:tcca_r views) in
  let w0 = warnings () in
  Trace.enabled := true;
  Gc.compact ();
  let m, traced =
    timed (fun () ->
        span "fit" (fun () ->
            let raw = span "mvcca.tcca_prepare_raw" (fun () -> Tcca.prepare_raw views) in
            let prep =
              span "mvcca.tcca_prepare_of_raw" (fun () -> Tcca.prepare_of_raw ~eps raw)
            in
            span "mvcca.tcca_fit_prepared" (fun () -> Tcca.fit_prepared ~r:tcca_r prep)))
  in
  let w1 = warnings () in
  check "staged-fit-equals-fit" (tcca_digest m = tcca_digest m0) ("digest " ^ tcca_digest m);
  List.iter
    (fun s -> set (s ^ "_s") (Trace.total_s s))
    [ "mvcca.tcca_prepare_raw"; "mvcca.tcca_prepare_of_raw"; "mvcca.tcca_fit_prepared" ];
  (* The operator, rebuilt: centered views, whiteners, factored M. *)
  let xs = centered views in
  let covs = regularized_covs xs in
  let ws = span "linalg.whiten" (fun () -> Array.map Matfun.inv_sqrt_psd covs) in
  set "linalg.whiten_s" (Trace.total_s "linalg.whiten");
  let zs = Array.map2 Mat.mul ws xs in
  let op = Op_tensor.factored ~weight:(1. /. float_of_int fit_n) zs in
  operator_kernels op;
  let k, info = span "tensor.decompose_op" (fun () -> Cp_als.decompose_op ~rank:tcca_r op) in
  als_info info;
  let factors = (Tcca.to_parts m).Tcca.pt_factors in
  check "replay-matches-fit"
    (same_mats k.Kruskal.factors factors)
    "Cp_als.decompose_op on the rebuilt operator vs the fit's factors";
  mttkrp_sweep op factors;
  let d = fst (Mat.dims zs.(0)) in
  let (_ : Mat.t), t = timed (fun () -> span "linalg.tgram" (fun () -> Mat.tgram zs.(0))) in
  set "linalg.tgram_gflops" (float_of_int (fit_n * (fit_n + 1) * d) /. t /. 1e9);
  one_domain ~fit_s:untraced (fun () -> Tcca.fit ~r:tcca_r views);
  set "runtime.robust_warnings" (float_of_int (w0 + w1 + warnings ()));
  line "traced" "fit_s" "s" traced ~note:"the staged fit, with spans";
  explain ~fit_s:untraced
    [ "mvcca.tcca_prepare_raw"; "mvcca.tcca_prepare_of_raw"; "mvcca.tcca_fit_prepared" ];
  explain ~fit_s:untraced [ "linalg.whiten"; "tensor.norm2"; "tensor.mode_gram" ];
  overhead "fit_s" "s" (traced -. untraced);
  attempted := 3

(* Oracles that count and time the kernel columns the fit asks for. *)
let counting oracles =
  Array.map
    (fun o ->
      { o with
        Pchol.o_column =
          (fun j -> span "kernel.column" (fun () -> o.Pchol.o_column j)) })
    oracles

let traced_fit_nystrom () =
  let oracles, _ = nystrom_inputs () in
  ignore (warnings ());
  Gc.compact ();
  let m0, untraced = timed (fun () -> Ktcca.fit_oracles ~approx:nystrom ~r:ktcca_r oracles) in
  let w0 = warnings () in
  Trace.enabled := true;
  Gc.compact ();
  let m, traced =
    timed (fun () ->
        span "fit" (fun () ->
            let prep =
              span "mvcca.ktcca_prepare" (fun () ->
                  Ktcca.prepare_oracles ~approx:nystrom (counting oracles))
            in
            span "mvcca.ktcca_fit_prepared" (fun () -> Ktcca.fit_prepared ~r:ktcca_r prep)))
  in
  let w1 = warnings () in
  check "staged-fit-equals-fit" (ktcca_digest m = ktcca_digest m0) ("digest " ^ ktcca_digest m);
  ignore (nystrom_checks m);
  set "mvcca.ktcca_prepare_s" (Trace.total_s "mvcca.ktcca_prepare");
  set "mvcca.ktcca_fit_prepared_s" (Trace.total_s "mvcca.ktcca_fit_prepared");
  set "kernel.columns" (float_of_int (List.length (Trace.named "kernel.column")));
  set "kernel.column_s" (Trace.total_s "kernel.column");
  (* The ℓ-space operator, rebuilt: partial Cholesky, centering, whitening
     of FᵀF + εI, then Zₚ = Gₚ⁻¹Fₚᵀ. *)
  let pchols =
    Array.map
      (fun o ->
        match span "linalg.pchol" (fun () -> Pchol.decompose ~rank:64 ~tol:1e-8 o) with
        | Ok (f, _) -> f
        | Error e -> failwith (Robust.failure_to_string e))
      oracles
  in
  let ranks = Array.map cols pchols in
  let flops = Array.fold_left (fun acc l -> acc +. float_of_int (nystrom_n * l * (l - 1))) 0. ranks in
  set "linalg.pchol_s" (Trace.total_s "linalg.pchol");
  set "linalg.pchol_gflops" (flops /. Trace.total_s "linalg.pchol" /. 1e9);
  set "linalg.pchol_rank" (float_of_int (Array.fold_left min max_int ranks));
  let zs =
    Array.map
      (fun f0 ->
        let n, l = Mat.dims f0 in
        let means = Array.init l (fun j -> Vec.mean (Mat.col f0 j)) in
        let f = Mat.init n l (fun i j -> Mat.get f0 i j -. means.(j)) in
        match Cholesky.decompose_jittered (Mat.add_scaled_identity 1e-4 (Mat.tgram f)) with
        | Ok (g, _) -> Mat.mul (Cholesky.inverse_lower g) (Mat.transpose f)
        | Error e -> failwith (Robust.failure_to_string e))
      pchols
  in
  let op = Op_tensor.factored ~weight:(1. /. float_of_int nystrom_n) zs in
  let dense = Op_tensor.dense (span "tensor.to_tensor" (fun () -> Op_tensor.to_tensor op)) in
  set "tensor.to_tensor_s" (Trace.total_s "tensor.to_tensor");
  operator_kernels dense;
  let k, info = Cp_als.decompose_op ~rank:ktcca_r dense in
  als_info info;
  let factors =
    match Ktcca.warm_solver m with
    | Tcca.Als { Cp_als.init = Cp_als.Warm fs; _ } -> fs
    | _ -> [||]
  in
  check "replay-matches-fit" (same_mats k.Kruskal.factors factors)
    "Cp_als.decompose_op on the rebuilt l-space operator vs the fit's factors";
  mttkrp_sweep dense factors;
  one_domain ~fit_s:untraced (fun () -> Ktcca.fit_oracles ~approx:nystrom ~r:ktcca_r oracles);
  set "runtime.robust_warnings" (float_of_int (w0 + w1 + warnings ()));
  line "traced" "fit_s" "s" traced ~note:"the staged fit, with spans";
  explain ~fit_s:untraced [ "mvcca.ktcca_prepare"; "mvcca.ktcca_fit_prepared" ];
  explain ~fit_s:untraced [ "linalg.pchol"; "tensor.to_tensor" ];
  overhead "fit_s" "s" (traced -. untraced);
  attempted := 3

(* ------------------------------------------------------------------ *)
(* Serve workloads: tccad in its own process on a Unix socket, one
   load-generator thread, closed-loop connections. *)

let run_dir = ".perfbench"
let serve_n = 2000
let read_variants = 64
let ingest_n = 64
let refit_every = 4
let sibling = "b"

let tccad_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat Filename.parent_dir_name (Filename.concat "bin" "tccad.exe"))

(* The daemon's own settings, for the in-process replays: tccad serve's
   defaults with --workers 2 --queue 4096. *)
let daemon_config =
  { Server.default_config with
    Server.workers = 2;
    queue_capacity = 4096;
    rank = 4;
    refit_options = { Cp_als.default_options with max_iter = 100; tol = 1e-6 };
    breaker = { Breaker.default_config with failure_threshold = 5; open_cooldown_s = 1. } }

type daemon = { pid : int; sock : string }

let live_daemons = ref []

let stop_daemon d =
  if List.mem d.pid !live_daemons then begin
    live_daemons := List.filter (( <> ) d.pid) !live_daemons;
    (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
    let deadline = now () in
    let rec wait () =
      match Unix.waitpid [ Unix.WNOHANG ] d.pid with
      | 0, _ ->
        if since deadline > 10. then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        Unix.sleepf 0.005;
        wait ()
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    wait ()
  end

let () = at_exit (fun () -> List.iter (fun pid -> stop_daemon { pid; sock = "" }) !live_daemons)

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX sock) with
  | () -> fd
  | exception e ->
    Unix.close fd;
    raise e

(* Start tccad on a fresh socket and wait for its first Health reply. *)
let start_daemon model_path =
  if not (Sys.file_exists tccad_exe) then die "tccad not built at %s" tccad_exe;
  let sock = Filename.concat run_dir (Printf.sprintf "%s-%d.sock" !workload (Unix.getpid ())) in
  let log =
    Unix.openfile
      (Filename.concat run_dir (!workload ^ "-tccad.log"))
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let pid =
    Unix.create_process tccad_exe
      [| tccad_exe; "serve"; "--model"; model_path; "--listen"; "unix:" ^ sock;
         "--workers"; "2"; "--queue"; "4096" |]
      Unix.stdin log log
  in
  Unix.close log;
  live_daemons := pid :: !live_daemons;
  let d = { pid; sock } in
  let t0 = now () in
  let rec health () =
    if since t0 > 60. then failwith "tccad did not answer Health within 60 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ ->
      live_daemons := List.filter (( <> ) pid) !live_daemons;
      failwith "tccad exited during start-up");
    match connect sock with
    | fd ->
      let r = Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> Protocol.call fd Health) in
      (match r with
      | Protocol.R_health { version; _ } when version >= 1 -> ()
      | _ -> failwith "tccad answered Health without a model")
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      Unix.sleepf 0.005;
      health ()
  in
  health ();
  d

type serve_inputs = {
  daemon : daemon;
  model_path : string;
  model : Tcca.t;  (** As loaded back from the .tccm file the daemon serves. *)
  reads : Protocol.request array;
  expected : string array;  (** The reply bytes each read must get. *)
  ingests : Protocol.request array;
  ingest_views : Mat.t array array;
}

let serve_setup () =
  let model_path = Filename.concat run_dir (Printf.sprintf "%s-%d.tccm" !workload (Unix.getpid ())) in
  let daemon, setup_s =
    setups
      ~discard:(fun (d, _, _) -> stop_daemon d)
      (fun () ->
        let world = Secstr.world Secstr.Quick in
        let train = sample_views world (rng_stream 3) serve_n in
        let rng = rng_stream 4 in
        let reads = Array.init read_variants (fun _ -> sample_views world rng (1 + Rng.int rng 16)) in
        let ingest_views = Array.init 16 (fun _ -> sample_views world rng ingest_n) in
        let m = Tcca.fit ~r:tcca_r train in
        Model_store.save ~path:model_path m;
        (start_daemon model_path, reads, ingest_views))
  in
  let d, reads, ingest_views = daemon in
  let model =
    match Model_store.load ~path:model_path with
    | Ok m -> m
    | Error e -> failwith (Checkpoint.load_error_to_string e)
  in
  let expected =
    Array.map (fun v -> Protocol.response_to_string (R_matrix (Tcca.transform model v))) reads
  in
  let reads =
    Array.map (fun views -> Protocol.Transform { deadline_ms = -1; views; model_id = "default" }) reads
  in
  let ingests =
    Array.map (fun views -> Protocol.Ingest { views; model_id = sibling }) ingest_views
  in
  ({ daemon = d; model_path; model; reads; expected; ingests; ingest_views }, setup_s)

(* One connection of the load generator.  Requests go out through a
   nonblocking socket; replies come back in request order. *)
type kind = Read of int | Ingest | Refit

type conn = {
  fd : Unix.file_descr;
  dec : Protocol.decoder;
  out : Buffer.t;
  mutable out_off : int;
  pending : (int * int64 * kind) Queue.t;  (** request id, send time, kind *)
  mutable sent : int;
  depth : int;  (** Requests this closed loop keeps in flight. *)
  next : int -> kind;  (** The request to send after [sent] of them. *)
}

let conn fd (depth, next) =
  Unix.set_nonblock fd;
  { fd; dec = Protocol.decoder (); out = Buffer.create 65536; out_off = 0;
    pending = Queue.create (); sent = 0; depth; next }

(* Readers draw each Transform from the seeded variants; the writer sends
   [refit_every] Ingests, then a Refit. *)
let reader inp ~depth k =
  let rng = rng_stream k in
  (depth, fun _ -> Read (Rng.int rng (Array.length inp.reads)))

let writer = (1, fun sent -> if sent mod (refit_every + 1) = refit_every then Refit else Ingest)

let readers inp =
  if !workload = "serve-mixed" then [ reader inp ~depth:32 5 ]
  else [ reader inp ~depth:16 5; reader inp ~depth:16 6 ]

let load_specs inp = readers inp @ if !workload = "serve-mixed" then [ writer ] else []

type tally = {
  outcomes : Outcome.counts;
  mutable read_lat : float list;  (** seconds *)
  mutable ingest_lat : float list;
  mutable refit_lat : float list;
  mutable reads_in_window : int;
}

let tally () =
  { outcomes = Outcome.counts (); read_lat = []; ingest_lat = []; refit_lat = [];
    reads_in_window = 0 }

let next_req_id = ref 0

let send inp c =
  let kind = c.next c.sent in
  let req =
    match kind with
    | Read v -> inp.reads.(v)
    | Ingest -> inp.ingests.(c.sent mod Array.length inp.ingests)
    | Refit -> Protocol.Refit { deadline_ms = -1; model_id = sibling }
  in
  Protocol.buffer_request c.out req;
  c.sent <- c.sent + 1;
  incr next_req_id;
  Queue.push (!next_req_id, now (), kind) c.pending

(* Wrong bytes are a failed read; say how wrong on stderr, a few times. *)
let mismatches_shown = ref 0

let explain_mismatch v body expected =
  if !mismatches_shown < 5 then begin
    incr mismatches_shown;
    match (Protocol.response_of_string body, Protocol.response_of_string expected) with
    | Ok (R_matrix a), Ok (R_matrix b) when Mat.dims a = Mat.dims b ->
      let worst = ref 0. in
      Array.iteri (fun i x -> worst := Float.max !worst (Float.abs (x -. b.Mat.data.(i)))) a.Mat.data;
      Printf.eprintf "perfbench: read of variant %d: %dx%d reply off by up to %g\n%!" v
        (fst (Mat.dims a)) (snd (Mat.dims a)) !worst
    | _ -> Printf.eprintf "perfbench: read of variant %d: not the expected reply\n%!" v
  end

let on_reply inp t ~in_window (id, sent_at, kind) body =
  let at = now () in
  let lat = Int64.to_float (Int64.sub at sent_at) *. 1e-9 in
  Trace.add "serve.request" ~req:id ~start_ns:sent_at ~end_ns:at;
  match kind with
  | Read v ->
    let o = Outcome.of_read ~expected:inp.expected.(v) body in
    if o = Outcome.Mismatch then explain_mismatch v body inp.expected.(v);
    Outcome.bump t.outcomes o;
    t.read_lat <- lat :: t.read_lat;
    if in_window then t.reads_in_window <- t.reads_in_window + 1
  | Ingest ->
    Outcome.bump t.outcomes (Outcome.of_write body);
    t.ingest_lat <- lat :: t.ingest_lat
  | Refit ->
    Outcome.bump t.outcomes (Outcome.of_write body);
    t.refit_lat <- lat :: t.refit_lat

let write_some c =
  let len = Buffer.length c.out - c.out_off in
  if len > 0 then
    match Unix.write_substring c.fd (Buffer.contents c.out) c.out_off len with
    | n ->
      c.out_off <- c.out_off + n;
      if c.out_off = Buffer.length c.out then begin
        Buffer.clear c.out;
        c.out_off <- 0
      end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()

(* Drive the closed loops for [window] seconds, sending each connection's
   next request as soon as a reply frees a slot.  Requests in flight when
   the window closes are still awaited and checked.  Returns the window's
   length in seconds. *)
let drive inp t conns ~window =
  let chunk = Bytes.create 65536 in
  let t0 = now () in
  let open_ () = since t0 < window in
  let fill c =
    while Queue.length c.pending < c.depth && open_ () do
      send inp c
    done
  in
  List.iter fill conns;
  let window_end = ref None in
  let busy () = List.exists (fun c -> not (Queue.is_empty c.pending)) conns in
  let writing c = Buffer.length c.out > c.out_off in
  while busy () do
    if !window_end = None && not (open_ ()) then window_end := Some (since t0);
    if since t0 > window +. 60. then failwith "serve: replies stalled for 60 s";
    let wr = List.filter_map (fun c -> if writing c then Some c.fd else None) conns in
    let r, w, _ =
      try Unix.select (List.map (fun c -> c.fd) conns) wr [] 0.05
      with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    List.iter (fun c -> if List.mem c.fd w then write_some c) conns;
    List.iter
      (fun c ->
        if List.mem c.fd r then
          match Unix.read c.fd chunk 0 (Bytes.length chunk) with
          | 0 -> failwith "serve: the daemon closed the connection"
          | n ->
            Protocol.decoder_feed c.dec chunk 0 n;
            let rec frames () =
              match Protocol.decoder_next c.dec with
              | `Frame body ->
                on_reply inp t ~in_window:(open_ ()) (Queue.pop c.pending) body;
                fill c;
                frames ()
              | `Await -> ()
              | `Oversize n -> failwith (Printf.sprintf "serve: oversize reply (%d bytes)" n)
            in
            frames ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ())
      conns;
    List.iter (fun c -> if writing c then write_some c) conns
  done;
  match !window_end with Some w -> w | None -> since t0

(* One measured window against the daemon. *)
let serve_window inp ~window =
  let t = tally () in
  let conns = List.map (fun spec -> conn (connect inp.daemon.sock) spec) (load_specs inp) in
  let w =
    Fun.protect
      ~finally:(fun () -> List.iter (fun c -> Unix.close c.fd) conns)
      (fun () -> drive inp t conns ~window)
  in
  (t, w)

let read_figures t w =
  let lat = Array.of_list t.read_lat in
  (Array.length lat, float_of_int t.reads_in_window /. w, Pick.median lat *. 1e3)

(* The read side's figures, and the writer's for serve-mixed; a traced
   window prints them as "traced" lines, kept apart from the result. *)
let report_serve ?(traced = false) t w =
  let n, rps, p50 = read_figures t w in
  let lat = Array.of_list t.read_lat in
  let emit ?note name v =
    if traced then line ?note "traced" name (unit_of name) v else record ?note name v
  in
  emit "serve_rps" rps ~note:(Printf.sprintf "%d replies in %.2f s" t.reads_in_window w);
  emit "serve_p50_ms" p50 ~note:(Printf.sprintf "n=%d" n);
  (match Pick.tail lat with
  | Some (q, v) when q >= 990 ->
    emit "serve_p99_ms" (Pick.percentile lat 990 *. 1e3)
      ~note:(Printf.sprintf "n=%d; highest supported %s %.6g ms" n (Pick.label q) (v *. 1e3))
  | Some (q, v) ->
    Printf.printf "metric serve_p99_ms unsupported by n=%d; highest supported %s %.6g ms\n" n
      (Pick.label q) (v *. 1e3)
  | None -> Printf.printf "metric serve_p99_ms unsupported by n=%d\n" n);
  let median_of l = Pick.median (Array.of_list l) in
  if t.ingest_lat <> [] then
    emit "ingest_ms" (median_of t.ingest_lat *. 1e3)
      ~note:(Printf.sprintf "median of n=%d" (List.length t.ingest_lat));
  if t.refit_lat <> [] then
    emit "refit_s" (median_of t.refit_lat)
      ~note:(Printf.sprintf "median of n=%d" (List.length t.refit_lat));
  List.iter
    (fun o -> line "outcome" (Outcome.metric o) "count" (float_of_int (Outcome.count t.outcomes o)))
    Outcome.all;
  (rps, p50)

let tally_failures t =
  let total = Array.fold_left ( + ) 0 t.outcomes and bad = Outcome.failed t.outcomes in
  attempted := !attempted + total;
  failed := !failed + bad;
  check "replies-as-expected" (bad = 0)
    (Printf.sprintf "%d of %d replies were not the expected bytes or R_ok" bad total)

let finish_serve inp =
  let rss = peak_rss_mb (string_of_int inp.daemon.pid) in
  stop_daemon inp.daemon;
  (try Sys.remove inp.model_path with Sys_error _ -> ());
  rss

let serve () =
  let inp, setup_s = serve_setup () in
  record "setup_s" setup_s ~note:(Printf.sprintf "median of %d set-ups" setup_repeats);
  let t, w = serve_window inp ~window:!seconds in
  ignore (report_serve t w);
  tally_failures t;
  record "peak_rss_mb" (finish_serve inp) ~note:"daemon VmHWM";
  print_fail_ratio ()

(* Mean microseconds per call of [f v] over every read variant [v], [reps]
   times, each call in its own span. *)
let per_call_us name reps f =
  for _ = 1 to reps do
    for v = 0 to read_variants - 1 do
      span name (fun () -> f v)
    done
  done;
  Trace.total_s name /. float_of_int (reps * read_variants) *. 1e6

let views_of = function
  | Protocol.Transform { views; _ } -> views
  | _ -> invalid_arg "views_of"

(* The serve path's layers, replayed in-process on the workload's frames
   and model.  Returns decode + handle + encode per request, in µs. *)
let serve_layers inp ~rps =
  let bodies = Array.map Protocol.request_to_string inp.reads in
  let zs = Array.map (fun r -> Tcca.transform inp.model (views_of r)) inp.reads in
  let decode =
    per_call_us "serve.decode_request" 20 (fun v -> ignore (Protocol.request_of_string bodies.(v)))
  in
  let encode =
    per_call_us "serve.encode_response" 20 (fun v ->
        ignore (Protocol.response_to_string (R_matrix zs.(v))))
  in
  let srv = Server.create ~model:inp.model daemon_config in
  Fun.protect
    ~finally:(fun () -> Server.drain_and_stop srv)
    (fun () ->
      let handle =
        per_call_us "serve.handle" 5 (fun v ->
            let body = Protocol.response_to_string (Server.handle srv inp.reads.(v)) in
            if not (String.equal body inp.expected.(v)) then
              check "in-process-handle" false (Printf.sprintf "variant %d" v))
      in
      let transform =
        per_call_us "mvcca.transform" 5 (fun v ->
            ignore (Tcca.transform inp.model (views_of inp.reads.(v))))
      in
      set "serve.decode_request_us" decode;
      set "serve.encode_response_us" encode;
      set "serve.handle_us" handle;
      set "mvcca.transform_us" transform;
      set "serve.queue_wait_us" (handle -. transform);
      set "serve.unattributed_us" ((1e6 /. rps) -. (decode +. handle +. encode));
      (* Batch width: the workload's read loops, replayed for a second
         through an in-process reactor on socket pairs. *)
      let b0, j0 = Option.value ~default:(0, 0) (Server.batch_stats srv "default") in
      let specs = readers inp in
      let pairs = List.map (fun _ -> Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0) specs in
      let reactor = Thread.create (Event_loop.serve_fds srv) (List.map snd pairs) in
      let conns = List.map2 (fun (client, _) spec -> conn client spec) pairs specs in
      let t = tally () in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun c -> Unix.close c.fd) conns;
          Thread.join reactor)
        (fun () -> ignore (drive inp t conns ~window:1.));
      tally_failures t;
      let b1, j1 = Option.value ~default:(0, 0) (Server.batch_stats srv "default") in
      set "serve.batch_width" (float_of_int (j1 - j0) /. float_of_int (max 1 (b1 - b0)));
      decode +. handle +. encode)

(* The writer's refits, replayed in-process stage by stage: the daemon's
   own sequence of Builder folds, finalize, prepare and warm fit. *)
let refit_layers inp =
  let dims = Array.map (fun v -> fst (Mat.dims v)) inp.ingest_views.(0) in
  let b = Tcca.Builder.create ~dims in
  let live = ref None and sweeps = ref [] and runs = ref [] and warned = ref 0 in
  let batch = ref 0 in
  for _cycle = 1 to 4 do
    for _ = 1 to refit_every do
      let views = inp.ingest_views.(!batch mod Array.length inp.ingest_views) in
      incr batch;
      span "mvcca.builder_add_batch" (fun () -> Tcca.Builder.add_batch b views)
    done;
    let raw = span "mvcca.builder_finalize" (fun () -> Tcca.Builder.finalize b) in
    let prep = span "mvcca.refit_prepare" (fun () -> Tcca.prepare_of_raw ~eps raw) in
    let options = daemon_config.Server.refit_options in
    let solver, r =
      match !live with
      | Some m -> (Tcca.warm_solver ~options m, Tcca.r m)
      | None -> (Tcca.Als options, daemon_config.Server.rank)
    in
    let m = span "mvcca.refit_fit" (fun () -> Tcca.fit_prepared ~solver ~r prep) in
    warned := !warned + warnings ();
    (* Sweeps and runs of the warm refits, as the daemon reports them. *)
    (match
       Scanf.sscanf_opt (Tcca.solver_info m) "als: %d iters, fit %f, converged %B, runs %d"
         (fun it _ _ rn -> (it, rn))
     with
    | Some (it, rn) when !live <> None ->
      sweeps := float_of_int it :: !sweeps;
      runs := float_of_int rn :: !runs
    | _ -> ());
    live := Some m
  done;
  List.iter
    (fun s ->
      set (s ^ "_ms") (Trace.total_s s /. float_of_int (List.length (Trace.named s)) *. 1e3))
    [ "mvcca.builder_add_batch"; "mvcca.builder_finalize"; "mvcca.refit_prepare";
      "mvcca.refit_fit" ];
  set "tensor.sweeps" (Pick.median (Array.of_list !sweeps));
  set "tensor.als_runs" (Pick.median (Array.of_list !runs));
  set "runtime.robust_warnings" (float_of_int !warned)

let traced_serve () =
  let inp, _ = serve_setup () in
  (* The same load twice, half the window each: untraced, then traced. *)
  let t0, w0 = serve_window inp ~window:(!seconds /. 2.) in
  tally_failures t0;
  let _, rps0, p50_0 = read_figures t0 w0 in
  Trace.enabled := true;
  let t1, w1 = span "serve.window" (fun () -> serve_window inp ~window:(!seconds /. 2.)) in
  tally_failures t1;
  let rps1, p50_1 = report_serve ~traced:true t1 w1 in
  List.iter
    (fun o ->
      set (Outcome.metric o)
        (float_of_int (Outcome.count t0.outcomes o + Outcome.count t1.outcomes o)))
    Outcome.all;
  ignore (finish_serve inp);
  let own = serve_layers inp ~rps:rps0 in
  if !workload = "serve-mixed" then refit_layers inp;
  let own_names = [ "serve.decode_request"; "serve.handle"; "serve.encode_response" ] in
  explained "serve_rps" (own /. (1e6 /. rps0)) own_names;
  explained "serve_p50_ms" (own /. (p50_0 *. 1e3)) own_names;
  overhead "serve_p50_ms" "ms" (p50_1 -. p50_0);
  overhead "serve_rps" "1/s" (rps1 -. rps0)

(* Self time of every span that has children: the part of it that none of
   its child spans cover. *)
let print_self_times () =
  let all = Trace.spans () in
  List.iter
    (fun (s : Trace.span) ->
      if List.exists (fun (c : Trace.span) -> c.parent = s.id) all then
        line "self" s.name "s" (Int64.to_float (Trace.self_ns all s) *. 1e-9)
          ~note:(Printf.sprintf "of %.6g s" (Int64.to_float (Trace.duration_ns s) *. 1e-9)))
    all

(* ------------------------------------------------------------------ *)

let main () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W  one of " ^ String.concat ", " workloads);
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1  per-layer traced run") ]
    (fun a -> die "unexpected argument %S" a)
    usage;
  if not (List.mem !workload workloads) then die "unknown workload %S (%s)" !workload usage;
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if not (!seconds > 0.) then die "--seconds must be positive";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if not (Sys.file_exists run_dir) then Sys.mkdir run_dir 0o755;
  Printf.printf "provenance workload=%s seed=%d seconds=%g trace=%d domains=%d nproc=%s ocaml=%s git=%s\n%!"
    !workload !seed !seconds !trace (Parallel.num_domains ()) (first_line "nproc")
    Sys.ocaml_version
    (if Sys.file_exists ".git" then first_line "git rev-parse --short HEAD 2>/dev/null" else "unknown");
  if !trace = 0 then
    match !workload with
    | "fit-factored" -> fit_factored ()
    | "fit-nystrom" -> fit_nystrom ()
    | _ -> serve ()
  else begin
    at_exit (fun () ->
        Trace.write (Filename.concat run_dir (Printf.sprintf "trace-%s-%d.jsonl" !workload !seed)));
    (match !workload with
    | "fit-factored" -> traced_fit_factored ()
    | "fit-nystrom" -> traced_fit_nystrom ()
    | _ -> traced_serve ());
    print_self_times ()
  end;
  if not !correct then failed := max !failed 1;
  (* Per-layer figures a workload's layers never produced read 0. *)
  let result =
    if !trace = 0 then
      List.filter_map
        (fun (x : Metrics.metric) ->
          Option.map (fun v -> (x.name, x.unit_, v)) (Hashtbl.find_opt values x.name))
        (Metrics.reported Metrics.end_to_end !workload)
    else
      List.map
        (fun (x : Metrics.metric) ->
          let v = Option.value ~default:0. (Hashtbl.find_opt values x.name) in
          line "layer" x.name x.unit_ v
            ~note:(Printf.sprintf "moves %s on %s" x.moves (String.concat "," x.on));
          (x.name, x.unit_, v))
        (Metrics.reported Metrics.per_layer !workload)
  in
  print_endline (Metrics.result_line ~correct:!correct ~attempted:!attempted ~failed:!failed result);
  if not !correct then exit 1

let () =
  try main () with
  | Failure msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 1
  | e ->
    prerr_endline ("perfbench: " ^ Printexc.to_string e);
    exit 1
