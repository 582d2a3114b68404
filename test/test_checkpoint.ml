(* Crash-safe checkpoint/resume and deadline-aware degradation.

   Three layers under test: the wire format (Checkpoint), the cooperative
   budgets (Budget), and the end-to-end contract through Cp_als and
   Tcca.fit_checked — interrupt-at-sweep-k + resume must be bit-identical to
   an uninterrupted run (dense and factored operators, any pool size), and
   every way a snapshot can go bad must degrade to a cold start with a typed
   warning, never a crash or a silently wrong model.  CI runs this binary at
   TCCA_DOMAINS=1 and 4. *)

open Test_support

let tmp_ckpt () = Filename.temp_file "tcca_ckpt" ".bin"

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let sample_state ?(failure = None) () =
  { Checkpoint.rs_init_random = Some 17;
    rs_iterations = 5;
    rs_previous_fit = 0.75;
    rs_best_fit = 0.8;
    rs_drops = 2;
    rs_converged = false;
    rs_failure = failure;
    rs_weights = [| 1.5; 0.25 |];
    rs_factors =
      [| { Checkpoint.rows = 2; cols = 2; data = [| 1.; 2.; 3.; 4. |] };
         { Checkpoint.rows = 3; cols = 2; data = [| 0.5; -0.5; 0.; 1e-300; 2.; 3. |] } |];
    rs_history = [| 0.1; 0.5; 0.7; 0.74; 0.75 |] }

let sample ?failure () =
  { Checkpoint.fingerprint = "test/1 rank=2";
    domains = 4;
    attempt = 1;
    completed = [ sample_state () ];
    current = sample_state ?failure () }

(* ------------------------------------------------------------------ *)
(* Wire format *)

let test_roundtrip () =
  let path = tmp_ckpt () in
  (* Exercise every failure constructor through the tagged encoding, plus the
     infinities a fresh run carries in its fit fields. *)
  let failures =
    [ None;
      Some (Robust.Not_converged { stage = "cp_als"; sweeps = 7; residual = 0.5 });
      Some
        (Robust.Not_positive_definite
           { stage = "whiten"; pivot = 3; value = -1.; jitter_tried = 1e-8 });
      Some (Robust.Non_finite { stage = "cp_als"; where = "fit at sweep 2" });
      Some (Robust.Rank_deficient { view = 1; rank = 0; dim = 5 });
      Some
        (Robust.Deadline_exceeded
           { stage = "cp_als"; sweeps = 9; elapsed = 1.5; limit = "wall 2s" }) ]
  in
  List.iter
    (fun failure ->
      let t = sample ~failure () in
      let t =
        { t with
          Checkpoint.current =
            { t.Checkpoint.current with Checkpoint.rs_previous_fit = neg_infinity } }
      in
      Checkpoint.save ~path t;
      match Checkpoint.load ~path with
      | Ok t' -> check_true "roundtrip equal" (t = t')
      | Error e -> Alcotest.failf "load failed: %s" (Checkpoint.load_error_to_string e))
    failures;
  Sys.remove path

let test_truncated () =
  let path = tmp_ckpt () in
  Checkpoint.save ~path (sample ());
  let bytes = read_file path in
  (* Shorter than the header. *)
  write_file path (String.sub bytes 0 10);
  (match Checkpoint.load ~path with
  | Error Checkpoint.Truncated -> ()
  | _ -> Alcotest.fail "10-byte file must be Truncated");
  (* Header intact, payload torn. *)
  write_file path (String.sub bytes 0 (String.length bytes - 7));
  (match Checkpoint.load ~path with
  | Error Checkpoint.Truncated -> ()
  | _ -> Alcotest.fail "torn payload must be Truncated");
  Sys.remove path

let patch_byte s i f = String.mapi (fun j c -> if j = i then f c else c) s

let test_corrupt () =
  let path = tmp_ckpt () in
  Checkpoint.save ~path (sample ());
  let bytes = read_file path in
  (* Flip one payload byte: CRC must catch it. *)
  write_file path (patch_byte bytes 24 (fun c -> Char.chr (Char.code c lxor 0xFF)));
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Corrupt _) -> ()
  | _ -> Alcotest.fail "bit-flipped payload must be Corrupt");
  (* Bad magic. *)
  write_file path (patch_byte bytes 0 (fun _ -> 'X'));
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Corrupt _) -> ()
  | _ -> Alcotest.fail "bad magic must be Corrupt");
  Sys.remove path

let test_version_mismatch () =
  let path = tmp_ckpt () in
  Checkpoint.save ~path (sample ());
  let bytes = read_file path in
  (* The version field is bytes 4–7 (u32 LE); the CRC covers only the
     payload, so this is a clean version mismatch, not corruption. *)
  write_file path (patch_byte bytes 4 (fun c -> Char.chr (Char.code c + 1)));
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Version_mismatch { found; expected; direction }) ->
    check_true "found = version+1" (found = Checkpoint.version + 1);
    check_true "expected = current" (expected = Checkpoint.version);
    check_true "direction = Newer" (direction = Checkpoint.Newer)
  | _ -> Alcotest.fail "patched version must be Version_mismatch");
  (* And the other direction: a strictly older on-disk version. *)
  write_file path (patch_byte bytes 4 (fun c -> Char.chr (Char.code c - 1)));
  (match Checkpoint.load ~path with
  | Error (Checkpoint.Version_mismatch { direction = Checkpoint.Older; _ }) -> ()
  | _ -> Alcotest.fail "patched-down version must be Older");
  Sys.remove path

let test_crc32_known_vector () =
  (* The standard zlib/IEEE check value. *)
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926 (Checkpoint.crc32 "123456789")

let test_missing_file_is_cold_start () =
  let cfg = Checkpoint.config "/nonexistent/dir/never.ckpt" in
  check_true "absent file -> None" (Checkpoint.load_for_resume ~fingerprint:"x" cfg = None)

let test_fingerprint_mismatch_cold_start () =
  let path = tmp_ckpt () in
  Checkpoint.save ~path (sample ());
  Robust.clear_warnings ();
  let cfg = Checkpoint.config path in
  check_true "mismatch -> None"
    (Checkpoint.load_for_resume ~fingerprint:"other/2" cfg = None);
  check_true "mismatch warned"
    (List.exists
       (fun w -> String.length w >= 10 && String.sub w 0 10 = "Checkpoint")
       (Robust.recent_warnings ()));
  Robust.clear_warnings ();
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Budget unit semantics *)

let test_budget_unlimited () =
  check_true "unlimited" (Budget.is_unlimited Budget.unlimited);
  check_true "never expires"
    (Budget.expired ~stage:"t" ~sweeps:max_int Budget.unlimited = None);
  check_true "no wall" (Budget.remaining_seconds Budget.unlimited = None)

let test_budget_sweeps () =
  let b = Budget.create ~sweeps:3 () in
  check_true "not unlimited" (not (Budget.is_unlimited b));
  check_true "under" (Budget.expired ~stage:"t" ~sweeps:2 b = None);
  (match Budget.expired ~stage:"cp_als" ~sweeps:3 b with
  | Some (Robust.Deadline_exceeded { stage = "cp_als"; sweeps = 3; _ }) -> ()
  | _ -> Alcotest.fail "sweep limit must trip as Deadline_exceeded");
  (* Degenerate zero budgets expire at the first probe. *)
  check_true "zero sweeps"
    (Budget.expired ~stage:"t" ~sweeps:0 (Budget.create ~sweeps:0 ()) <> None);
  check_true "zero wall"
    (Budget.expired ~stage:"t" ~sweeps:0 (Budget.create ~wall_seconds:0. ()) <> None);
  (try
     ignore (Budget.create ~sweeps:(-1) ());
     Alcotest.fail "negative sweeps accepted"
   with Invalid_argument _ -> ())

let test_budget_deadline_now_inject () =
  let b = Budget.create ~wall_seconds:3600. () in
  check_true "healthy probe" (Budget.expired ~stage:"t" ~sweeps:1 b = None);
  Robust.Inject.(with_stage Deadline_now (fun () ->
      match Budget.expired ~stage:"t" ~sweeps:1 b with
      | Some (Robust.Deadline_exceeded { limit = "injected"; _ }) -> ()
      | _ -> Alcotest.fail "armed Deadline_now must expire every probe"))

(* ------------------------------------------------------------------ *)
(* Solver contract: deadlines *)

let tcca_views r = Array.map (fun d -> random_mat r d 40) [| 5; 4; 6 |]

let als_options = { Cp_als.default_options with max_iter = 25; tol = 0. }

let finite_model t views =
  Mat.all_finite (Tcca.transform t views) && Vec.all_finite (Tcca.correlations t)

let test_deadline_returns_best_so_far () =
  let r = rng () in
  let views = tcca_views r in
  Robust.clear_warnings ();
  match
    Tcca.fit_checked ~solver:(Tcca.Als als_options)
      ~budget:(Budget.create ~sweeps:4 ())
      ~r:2 views
  with
  | Error e -> Alcotest.failf "deadline must not be an error: %s" (Robust.failure_to_string e)
  | Ok t ->
    check_true "model finite" (finite_model t views);
    let note = Tcca.solver_info t in
    check_true "4 sweeps ran"
      (String.length note >= 8 && String.sub note 0 8 = "als: 4 i");
    check_true "note reports deadline" (contains note "deadline exceeded");
    check_true "warning pushed"
      (List.exists (fun w -> contains w "deadline") (Robust.recent_warnings ()));
    Robust.clear_warnings ()

let test_deadline_now_through_fit () =
  (* Expiry at the very first probe: the fit still returns a finite model
     (the initialization), never a crash. *)
  let r = rng () in
  let views = tcca_views r in
  Robust.Inject.(with_stage Deadline_now (fun () ->
      match
        Tcca.fit_checked ~solver:(Tcca.Als als_options)
          ~budget:(Budget.create ~wall_seconds:3600. ())
          ~r:2 views
      with
      | Ok t -> check_true "zero-sweep model finite" (finite_model t views)
      | Error e -> Alcotest.failf "injected deadline crashed: %s" (Robust.failure_to_string e)))

(* ------------------------------------------------------------------ *)
(* Solver contract: corrupt snapshots degrade to cold start *)

let fit_with_ckpt ?budget ~resume path views =
  Tcca.fit_checked ~solver:(Tcca.Als als_options) ?budget
    ~checkpoint:(Checkpoint.config ~resume path) ~r:2 views

let expect_ok = function
  | Ok t -> t
  | Error e -> Alcotest.failf "fit failed: %s" (Robust.failure_to_string e)

let test_torn_write_degrades_to_cold_start () =
  let path = tmp_ckpt () in
  let r = rng () in
  let views = tcca_views r in
  let reference = expect_ok (Tcca.fit_checked ~solver:(Tcca.Als als_options) ~r:2 views) in
  (* Every save lands torn at the final path — the file is always invalid. *)
  Robust.Inject.(with_stage Torn_checkpoint_write (fun () ->
      ignore (expect_ok (fit_with_ckpt ~resume:false path views))));
  check_true "torn file on disk" (Sys.file_exists path);
  check_true "torn file is unloadable"
    (match Checkpoint.load ~path with Error Checkpoint.Truncated -> true | _ -> false);
  Robust.clear_warnings ();
  let resumed = expect_ok (fit_with_ckpt ~resume:true path views) in
  check_true "cold-start warning"
    (List.exists
       (fun w -> String.length w >= 10 && String.sub w 0 10 = "Checkpoint")
       (Robust.recent_warnings ()));
  (* Cold start = same model as a fresh fit. *)
  check_mat ~eps:0. "cold start matches fresh fit"
    (Tcca.projections reference).(0) (Tcca.projections resumed).(0);
  Robust.clear_warnings ();
  Sys.remove path

let test_corrupt_checkpoint_degrades_to_cold_start () =
  let path = tmp_ckpt () in
  let r = rng () in
  let views = tcca_views r in
  let reference = expect_ok (Tcca.fit_checked ~solver:(Tcca.Als als_options) ~r:2 views) in
  Robust.Inject.(with_stage Corrupt_checkpoint (fun () ->
      ignore (expect_ok (fit_with_ckpt ~resume:false path views))));
  check_true "corrupt file is unloadable"
    (match Checkpoint.load ~path with Error (Checkpoint.Corrupt _) -> true | _ -> false);
  Robust.clear_warnings ();
  let resumed = expect_ok (fit_with_ckpt ~resume:true path views) in
  check_true "cold-start warning" (Robust.recent_warnings () <> []);
  check_mat ~eps:0. "cold start matches fresh fit"
    (Tcca.projections reference).(0) (Tcca.projections resumed).(0);
  Robust.clear_warnings ();
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* The tentpole property: interrupt at sweep k + resume == uninterrupted *)

let models_identical a b =
  let pa = Tcca.projections a and pb = Tcca.projections b in
  Array.length pa = Array.length pb
  && Array.for_all2 (Mat.equal ~eps:0.) pa pb
  && Vec.equal ~eps:0. (Tcca.correlations a) (Tcca.correlations b)

let resume_identity ~route ~k seed =
  let r = Rng.create seed in
  let views = tcca_views r in
  let fit ?budget ?checkpoint () =
    with_route route (fun () ->
        expect_ok
          (Tcca.fit_checked ~solver:(Tcca.Als als_options) ?budget ?checkpoint ~r:2 views))
  in
  let reference = fit () in
  let path = tmp_ckpt () in
  (* Interrupt: the sweep budget stops the solve at sweep k, with a snapshot
     taken every sweep. *)
  let _partial =
    fit
      ~budget:(Budget.create ~sweeps:k ())
      ~checkpoint:(Checkpoint.config ~resume:false path) ()
  in
  let resumed = fit ~checkpoint:(Checkpoint.config ~resume:true path) () in
  Sys.remove path;
  models_identical reference resumed

let prop_resume_bit_identical =
  qtest ~count:8 "interrupt+resume == uninterrupted (dense & factored)"
    QCheck2.Gen.(triple (int_range 1 20) bool (int_range 0 1000))
    (fun (k, dense, seed) ->
      resume_identity ~route:(if dense then `Dense else `Factored) ~k seed)

let test_resume_across_pool_sizes () =
  (* Snapshot under a 1-domain pool, resume under 4 domains: the kernels are
     bitwise pool-size-independent, so the resumed model must still equal the
     uninterrupted single-domain one. *)
  let saved = Parallel.num_domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_num_domains saved)
    (fun () ->
      let views = tcca_views (rng ()) in
      let fit ?budget ?checkpoint () =
        expect_ok
          (Tcca.fit_checked ~solver:(Tcca.Als als_options) ?budget ?checkpoint ~r:2 views)
      in
      Parallel.set_num_domains 1;
      let reference = fit () in
      let path = tmp_ckpt () in
      ignore
        (fit
           ~budget:(Budget.create ~sweeps:9 ())
           ~checkpoint:(Checkpoint.config ~resume:false path) ());
      Parallel.set_num_domains 4;
      let resumed = fit ~checkpoint:(Checkpoint.config ~resume:true path) () in
      Sys.remove path;
      check_true "resume at 4 domains == uninterrupted at 1" (models_identical reference resumed))

let test_resume_mid_restart () =
  (* Interrupt during restart 1 (the injected-NaN first run fails): resume
     must restore the restart position and the completed-run list, so the
     final runs report matches an uninterrupted multi-start solve. *)
  let r = rng () in
  let t = random_tensor r [| 4; 5; 3 |] in
  let options = { Cp_als.default_options with max_iter = 6; tol = 0.; restarts = 2 } in
  (* First run dies at sweep 1 (injected NaN is deterministic per sweep, so
     restarts fail too — giving a 3-run trace to compare). *)
  let uninterrupted =
    Robust.Inject.(
      with_stage Als_nan (fun () ->
          snd (Cp_als.decompose_op ~options ~rank:2 (Op_tensor.Dense t))))
  in
  let path = tmp_ckpt () in
  Robust.Inject.(with_stage Als_nan (fun () ->
      (* Budget of 2 total sweeps: run 1 dies at sweep 1, restart 1 starts and
         is interrupted by the budget at its own sweep 1 boundary. *)
      ignore
        (Cp_als.decompose_op ~options
           ~budget:(Budget.create ~sweeps:2 ())
           ~checkpoint:(Checkpoint.config ~resume:false path)
           ~rank:2 (Op_tensor.Dense t))));
  let _, resumed =
    Robust.Inject.(with_stage Als_nan (fun () ->
        Cp_als.decompose_op ~options
          ~checkpoint:(Checkpoint.config ~resume:true path)
          ~rank:2 (Op_tensor.Dense t)))
  in
  Sys.remove path;
  check_true "same run count"
    (List.length resumed.Cp_als.runs = List.length uninterrupted.Cp_als.runs);
  check_true "same restart inits"
    (List.map (fun r -> r.Cp_als.run_init) resumed.Cp_als.runs
    = List.map (fun r -> r.Cp_als.run_init) uninterrupted.Cp_als.runs);
  check_true "same fits"
    (List.for_all2
       (fun a b -> Int64.bits_of_float a.Cp_als.run_fit = Int64.bits_of_float b.Cp_als.run_fit)
       resumed.Cp_als.runs uninterrupted.Cp_als.runs)

let test_checkpointed_equals_plain () =
  (* Checkpointing must not perturb the arithmetic at all. *)
  let views = tcca_views (rng ()) in
  let reference = expect_ok (Tcca.fit_checked ~solver:(Tcca.Als als_options) ~r:2 views) in
  let path = tmp_ckpt () in
  let ckpt = expect_ok (fit_with_ckpt ~resume:false path views) in
  Sys.remove path;
  check_true "checkpointed == plain" (models_identical reference ckpt)

let test_ktcca_resume () =
  let r = rng () in
  let kernels = Array.init 3 (fun _ -> Mat.tgram (random_mat r 6 25)) in
  let fit ?budget ?checkpoint () =
    match
      Ktcca.fit_checked ~solver:(Tcca.Als als_options) ?budget ?checkpoint ~r:2 kernels
    with
    | Ok t -> t
    | Error e -> Alcotest.failf "ktcca fit failed: %s" (Robust.failure_to_string e)
  in
  let reference = fit () in
  let path = tmp_ckpt () in
  ignore
    (fit
       ~budget:(Budget.create ~sweeps:5 ())
       ~checkpoint:(Checkpoint.config ~resume:false path) ());
  let resumed = fit ~checkpoint:(Checkpoint.config ~resume:true path) () in
  Sys.remove path;
  check_true "ktcca resume identical"
    (Vec.equal ~eps:0. (Ktcca.correlations reference) (Ktcca.correlations resumed)
    && Array.for_all2 (Mat.equal ~eps:0.) (Ktcca.dual_weights reference)
         (Ktcca.dual_weights resumed))

let () =
  Robust.Inject.reset ();
  Alcotest.run "checkpoint"
    [ ( "wire-format",
        [ Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "truncated" `Quick test_truncated;
          Alcotest.test_case "corrupt" `Quick test_corrupt;
          Alcotest.test_case "version mismatch" `Quick test_version_mismatch;
          Alcotest.test_case "crc32 vector" `Quick test_crc32_known_vector;
          Alcotest.test_case "missing file" `Quick test_missing_file_is_cold_start;
          Alcotest.test_case "fingerprint mismatch" `Quick test_fingerprint_mismatch_cold_start ] );
      ( "budget",
        [ Alcotest.test_case "unlimited" `Quick test_budget_unlimited;
          Alcotest.test_case "sweeps" `Quick test_budget_sweeps;
          Alcotest.test_case "deadline-now inject" `Quick test_budget_deadline_now_inject ] );
      ( "deadline",
        [ Alcotest.test_case "best-so-far model" `Quick test_deadline_returns_best_so_far;
          Alcotest.test_case "expiry at sweep 0" `Quick test_deadline_now_through_fit ] );
      ( "degradation",
        [ Alcotest.test_case "torn write" `Quick test_torn_write_degrades_to_cold_start;
          Alcotest.test_case "corrupt checkpoint" `Quick
            test_corrupt_checkpoint_degrades_to_cold_start ] );
      ( "resume",
        [ Alcotest.test_case "checkpointed == plain" `Quick test_checkpointed_equals_plain;
          Alcotest.test_case "across pool sizes" `Quick test_resume_across_pool_sizes;
          Alcotest.test_case "mid-restart" `Quick test_resume_mid_restart;
          Alcotest.test_case "ktcca" `Quick test_ktcca_resume;
          prop_resume_bit_identical ] ) ]
