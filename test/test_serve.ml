(* The serving daemon's chaos suite: every robustness invariant of
   [lib/serve] proven in-process (Server.handle) and over real sockets
   (socketpair + serve_fds threads).  The headline guarantees:

   - no request hangs past its deadline (typed [R_deadline] instead);
   - queue overflow sheds typed replies while the daemon keeps serving;
   - a torn/corrupt/version-skewed hot swap never changes the serving
     version or the served projections (bitwise);
   - refit on unchanged data serves the bit-identical model at any pool
     size; a failed refit leaves the model untouched;
   - drain refuses new work, flushes in-flight jobs and snapshots;
   - recovery adopts the newest *valid* snapshot, skipping corrupt ones;
   - and, multi-model (PR 9): every fault above is *contained* — a torn
     swap, poisoned refit, crashed worker, tripped breaker, exhausted
     respawn budget or corrupt state dir on model A leaves model B's
     version counter and served projections bitwise unchanged, at any
     pool size; PR-8 wire frames (no model_id) still drive the daemon. *)

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

(* A retry policy with microscopic sleeps so give-up paths are instant. *)
let fast_retry = { Retry.default_policy with attempts = 2; base_delay = 1e-4; max_delay = 1e-3 }

let cfg ?(workers = 1) ?(queue = 8) ?state_dir ?(deadline = -1) ?breaker ?max_respawns () =
  { Server.default_config with
    workers;
    queue_capacity = queue;
    default_deadline_ms = deadline;
    state_dir;
    refit_retry = fast_retry;
    swap_retry = fast_retry;
    refit_options = { Cp_als.default_options with max_iter = 60 };
    breaker = (match breaker with Some b -> b | None -> Breaker.default_config);
    max_respawns =
      (match max_respawns with Some n -> n | None -> Server.default_config.Server.max_respawns) }

let with_server ?model c f =
  let t = Server.create ?model c in
  Fun.protect ~finally:(fun () -> Server.drain_and_stop t) (fun () -> f t)

let tmp_dir prefix =
  let d = Filename.temp_file prefix "" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* Shorthand: single-model requests against the PR-8 "default" slot. *)
let transform ?(model_id = "default") ?(deadline_ms = -1) t x =
  Server.handle t (Protocol.Transform { deadline_ms; views = x; model_id })

let expect_matrix msg = function
  | Protocol.R_matrix z -> z
  | r -> Alcotest.fail (msg ^ ": " ^ Protocol.response_to_string r)

let model_health t id =
  match Server.handle t (Protocol.Model_health { model_id = id }) with
  | Protocol.R_model_health h -> h
  | r -> Alcotest.fail ("model-health: " ^ Protocol.response_to_string r)

(* Register a second model on a live server through the production path: a
   durable model file hot-swapped into a fresh registry entry (own queue,
   workers, breaker). *)
let install_model t id m =
  let path = Filename.temp_file "tccm-install" ".tccm" in
  Model_store.save ~path m;
  (match Server.handle t (Protocol.Swap { path; model_id = id }) with
  | Protocol.R_ok _ -> ()
  | r -> Alcotest.fail ("install_model: " ^ Protocol.response_to_string r));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Protocol codec *)

let roundtrip_request r =
  match Protocol.request_of_string (Protocol.request_to_string r) with
  | Ok r' -> r'
  | Error e -> Alcotest.fail ("request roundtrip: " ^ e)

let roundtrip_response r =
  match Protocol.response_of_string (Protocol.response_to_string r) with
  | Ok r' -> r'
  | Error e -> Alcotest.fail ("response roundtrip: " ^ e)

let test_protocol_roundtrip () =
  let views = synth_views ~views:2 ~dim:3 ~n:5 ~seed:1 in
  (match roundtrip_request Protocol.Health with
  | Protocol.Health -> ()
  | _ -> Alcotest.fail "health");
  (match
     roundtrip_request (Protocol.Transform { deadline_ms = 250; views; model_id = "m1" })
   with
  | Protocol.Transform { deadline_ms = 250; views = vs; model_id = "m1" } ->
    check_true "views survive" (Array.for_all2 mat_equal_bits views vs)
  | _ -> Alcotest.fail "transform");
  (match roundtrip_request (Protocol.Swap { path = "/tmp/x.tccm"; model_id = "default" }) with
  | Protocol.Swap { path = "/tmp/x.tccm"; model_id = "default" } -> ()
  | _ -> Alcotest.fail "swap");
  (match roundtrip_request (Protocol.Drain { model_id = "" }) with
  | Protocol.Drain { model_id = "" } -> ()
  | _ -> Alcotest.fail "drain");
  (match roundtrip_request (Protocol.Drain { model_id = "m2" }) with
  | Protocol.Drain { model_id = "m2" } -> ()
  | _ -> Alcotest.fail "drain m2");
  (match roundtrip_request Protocol.List_models with
  | Protocol.List_models -> ()
  | _ -> Alcotest.fail "list_models");
  (match roundtrip_request (Protocol.Model_health { model_id = "m3" }) with
  | Protocol.Model_health { model_id = "m3" } -> ()
  | _ -> Alcotest.fail "model_health");
  (match
     roundtrip_response
       (Protocol.R_health
          { version = 7; r = 2; dims = [| 3; 3 |]; queue_depth = 1; queue_capacity = 8;
            workers = 2; ingested = 40; since_fit = 0; draining = false })
   with
  | Protocol.R_health { version = 7; dims = [| 3; 3 |]; since_fit = 0; _ } -> ()
  | _ -> Alcotest.fail "r_health");
  (match roundtrip_response (Protocol.R_matrix views.(0)) with
  | Protocol.R_matrix m -> check_true "matrix bits" (mat_equal_bits views.(0) m)
  | _ -> Alcotest.fail "r_matrix");
  (match roundtrip_response (Protocol.R_scores [| 1.5; -2.25 |]) with
  | Protocol.R_scores [| 1.5; -2.25 |] -> ()
  | _ -> Alcotest.fail "r_scores");
  (match roundtrip_response (Protocol.R_deadline { stage = "serve.transform"; elapsed_ms = 12 }) with
  | Protocol.R_deadline { stage = "serve.transform"; elapsed_ms = 12 } -> ()
  | _ -> Alcotest.fail "r_deadline");
  (match roundtrip_response (Protocol.R_shed { depth = 8; capacity = 8 }) with
  | Protocol.R_shed { depth = 8; capacity = 8 } -> ()
  | _ -> Alcotest.fail "r_shed");
  (match roundtrip_response (Protocol.R_unavailable { model_id = "m1"; retry_after_ms = 750 }) with
  | Protocol.R_unavailable { model_id = "m1"; retry_after_ms = 750 } -> ()
  | _ -> Alcotest.fail "r_unavailable");
  (match
     roundtrip_response
       (Protocol.R_models
          [| { Protocol.mi_id = "a"; mi_version = 3; mi_r = 2; mi_breaker = "closed";
               mi_draining = false };
             { Protocol.mi_id = "b"; mi_version = 0; mi_r = 0; mi_breaker = "open";
               mi_draining = true } |])
   with
  | Protocol.R_models [| { Protocol.mi_id = "a"; mi_version = 3; _ };
                         { Protocol.mi_id = "b"; mi_breaker = "open"; mi_draining = true; _ } |]
    -> ()
  | _ -> Alcotest.fail "r_models");
  (match
     roundtrip_response
       (Protocol.R_model_health
          { Protocol.mh_id = "a"; mh_version = 2; mh_r = 2; mh_dims = [| 6; 6; 6 |];
            mh_queue_depth = 1; mh_queue_capacity = 8; mh_workers = 2;
            mh_breaker = "half-open"; mh_retry_after_ms = 0; mh_failures = 0;
            mh_respawns = 1; mh_ingested = 40; mh_since_fit = 0;
            mh_last_refit = "installed v2"; mh_draining = false })
   with
  | Protocol.R_model_health
      { Protocol.mh_id = "a"; mh_breaker = "half-open"; mh_respawns = 1;
        mh_last_refit = "installed v2"; _ } -> ()
  | _ -> Alcotest.fail "r_model_health");
  (* Garbage never parses into a request. *)
  check_true "garbage refused" (Result.is_error (Protocol.request_of_string "\x63rud"));
  check_true "empty refused" (Result.is_error (Protocol.request_of_string ""))

(* PR-8 frames carry no model_id.  Hand-encode them with the same Wire
   primitives the old encoder used, and check the decoder maps the absent
   field to "default" ("" for Drain — daemon-wide, the old semantics). *)
let legacy_body build =
  let b = Buffer.create 128 in
  build b;
  Buffer.contents b

let add_legacy_views b views =
  Checkpoint.Wire.add_int b (Array.length views);
  Array.iter
    (fun (m : Mat.t) ->
      Checkpoint.Wire.add_int b m.Mat.rows;
      Checkpoint.Wire.add_int b m.Mat.cols;
      Checkpoint.Wire.add_f_array b m.Mat.data)
    views

let test_wire_compat_decodes_legacy () =
  let views = synth_views ~views:2 ~dim:3 ~n:4 ~seed:2 in
  (match
     Protocol.request_of_string
       (legacy_body (fun b ->
            Checkpoint.Wire.add_int b 2;
            Checkpoint.Wire.add_int b 125;
            add_legacy_views b views))
   with
  | Ok (Protocol.Transform { deadline_ms = 125; views = vs; model_id = "default" }) ->
    check_true "legacy transform views" (Array.for_all2 mat_equal_bits views vs)
  | _ -> Alcotest.fail "legacy transform must target \"default\"");
  (match
     Protocol.request_of_string
       (legacy_body (fun b ->
            Checkpoint.Wire.add_int b 4;
            add_legacy_views b views))
   with
  | Ok (Protocol.Ingest { model_id = "default"; _ }) -> ()
  | _ -> Alcotest.fail "legacy ingest must target \"default\"");
  (match
     Protocol.request_of_string
       (legacy_body (fun b ->
            Checkpoint.Wire.add_int b 5;
            Checkpoint.Wire.add_int b (-1)))
   with
  | Ok (Protocol.Refit { deadline_ms = -1; model_id = "default" }) -> ()
  | _ -> Alcotest.fail "legacy refit must target \"default\"");
  (match
     Protocol.request_of_string
       (legacy_body (fun b ->
            Checkpoint.Wire.add_int b 6;
            Checkpoint.Wire.add_string b "/tmp/m.tccm"))
   with
  | Ok (Protocol.Swap { path = "/tmp/m.tccm"; model_id = "default" }) -> ()
  | _ -> Alcotest.fail "legacy swap must target \"default\"");
  (match
     Protocol.request_of_string (legacy_body (fun b -> Checkpoint.Wire.add_int b 7))
   with
  | Ok (Protocol.Drain { model_id = "" }) -> ()
  | _ -> Alcotest.fail "legacy drain must be daemon-wide")

(* ------------------------------------------------------------------ *)
(* Decoder totality.  Crafted bodies that once escaped the decoder as
   exceptions — through the reactor, a crash of the whole daemon — or
   decoded as a phantom matrix ([Test_support.decoder_probes]).  Each must
   come back as a typed [Error]. *)

let test_decoder_probes_refused () =
  List.iter
    (fun (name, fields) ->
      match Protocol.request_of_string (Test_support.probe_body fields) with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: decoded Ok" name
      | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e))
    Test_support.decoder_probes

(* The decoder allocates O(frame bytes): every count it reads is bounded by
   the bytes left ([Checkpoint.Wire.get_count ~min_bytes]), so a frame of F
   bytes allocates at most 1.25·F + 512 bytes, whatever its counts claim
   (measured: at most 1.01·F + 31).  The frames: the four probes above, and
   one frame of each request and response kind, valid and then with one
   count field at a time overwritten by 2³², 2⁶⁰, max_int or the number of
   bytes left after it (the largest count a one-byte-per-item bound lets
   through).  The larger frames carry 2 KiB of numbers, so a float-array
   bound of one byte per item instead of eight allocates about 8·F on them.
   [Gc.allocated_bytes] also sees arrays allocated straight in the major
   heap; each decode is measured three times and the least taken, so an
   allocation by another thread cannot fail the case. *)
type wire_field = Count of int | Word of int | Real of float | Raw of string

let wire_string s = [ Count (String.length s); Raw s ]

let wire_mat rows cols =
  [ Count rows; Count cols; Count (rows * cols) ]
  @ List.init (rows * cols) (fun i -> Real (float_of_int i))

let wire_views = [ Count 2 ] @ wire_mat 8 16 @ wire_mat 16 8

let encode_fields fields =
  let b = Buffer.create 4096 in
  List.iter
    (function
      | Count v | Word v -> Checkpoint.Wire.add_int b v
      | Real v -> Checkpoint.Wire.add_f64 b v
      | Raw s -> Buffer.add_string b s)
    fields;
  Buffer.contents b

let field_bytes = function Count _ | Word _ | Real _ -> 8 | Raw s -> String.length s

(* One frame per count field and hostile value, with that field
   overwritten. *)
let overwritten_counts fields =
  let fields = Array.of_list fields in
  let total = Array.fold_left (fun acc f -> acc + field_bytes f) 0 fields in
  let frames = ref [] and offset = ref 0 in
  Array.iteri
    (fun i field ->
      offset := !offset + field_bytes field;
      match field with
      | Count _ ->
        List.iter
          (fun v ->
            let damaged = Array.copy fields in
            damaged.(i) <- Count v;
            frames := encode_fields (Array.to_list damaged) :: !frames)
          [ 1 lsl 32; 1 lsl 60; max_int; total - !offset ]
      | _ -> ())
    fields;
  encode_fields (Array.to_list fields) :: List.rev !frames

let request_frames =
  let model = wire_string "default" in
  [ [ Word 1 ];
    [ Word 2; Word 1000 ] @ wire_views @ model;
    [ Word 3; Word 1000 ] @ wire_views @ model;
    [ Word 4 ] @ wire_views @ model;
    [ Word 5; Word 1000 ] @ model;
    [ Word 6 ] @ wire_string "/models/m.tccm" @ model;
    [ Word 7 ] @ model;
    [ Word 8 ];
    [ Word 9 ] @ model ]

let response_frames =
  let ints n = Count n :: List.init n (fun i -> Word i) in
  let info id = wire_string id @ [ Word 3; Word 2 ] @ wire_string "closed" @ [ Word 0 ] in
  [ [ Word 1; Word 4; Word 2 ] @ ints 256 @ [ Word 1; Word 8; Word 2; Word 40; Word 0; Word 0 ];
    [ Word 2 ] @ wire_mat 16 16;
    [ Word 3; Count 256 ] @ List.init 256 (fun i -> Real (float_of_int i));
    [ Word 4; Word 7 ] @ wire_string "installed";
    [ Word 6 ] @ wire_string "queue" @ [ Word 12 ];
    [ Word 7 ] @ wire_string "bad_request" @ wire_string "malformed view";
    [ Word 8 ] @ wire_string "default" @ [ Word 250 ];
    [ Word 9; Count 2 ] @ info "default" @ info "b";
    [ Word 10 ] @ wire_string "default" @ [ Word 2; Word 2 ] @ ints 256
    @ [ Word 1; Word 8; Word 2 ] @ wire_string "half-open"
    @ [ Word 0; Word 0; Word 1; Word 40; Word 0 ] @ wire_string "installed v2" @ [ Word 0 ] ]

let test_decoder_allocation_bounded () =
  let least_allocation decode frame =
    let once () =
      let before = Gc.allocated_bytes () in
      (try ignore (Sys.opaque_identity (decode frame)) with _ -> ());
      Gc.allocated_bytes () -. before
    in
    List.fold_left Float.min (once ()) [ once (); once () ]
  in
  let check decode frames =
    List.iter
      (fun frame ->
        let bytes = String.length frame in
        let allocated = least_allocation decode frame in
        if allocated > (1.25 *. float_of_int bytes) +. 512. then
          Alcotest.failf "a %d-byte frame allocated %.0f bytes (bound 1.25·F + 512)" bytes
            allocated)
      frames
  in
  check Protocol.request_of_string
    (List.map (fun (_, fields) -> Test_support.probe_body fields) Test_support.decoder_probes);
  check Protocol.request_of_string (List.concat_map overwritten_counts request_frames);
  check Protocol.response_of_string (List.concat_map overwritten_counts response_frames);
  (* The unmodified frames are valid: the case measures real decodes, not
     only refusals. *)
  let valid decode fields =
    match decode (encode_fields fields) with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "valid frame refused: %s" e
  in
  List.iter (valid Protocol.request_of_string) request_frames;
  List.iter (valid Protocol.response_of_string) response_frames

(* Every request and response kind, encoded validly, then damaged one way:
   truncated, one bit flipped, or 8 bytes at any offset — so every length
   field among them — overwritten with a hostile value.  Decoding must
   return [Ok] or [Error], never raise. *)
let gen_small_mat =
  QCheck2.Gen.(
    pair (int_range 0 3) (int_range 0 3) >>= fun (r, c) ->
    array_size (return (r * c)) (float_range (-1e3) 1e3) >|= fun d ->
    Mat.unsafe_of_flat ~rows:r ~cols:c d)

let gen_views = QCheck2.Gen.(array_size (int_range 0 3) gen_small_mat)
let gen_id = QCheck2.Gen.(string_size ~gen:printable (int_range 0 8))
let gen_nat = QCheck2.Gen.int_range 0 1000
let gen_dims = QCheck2.Gen.(array_size (int_range 0 4) gen_nat)

let gen_request =
  let open QCheck2.Gen in
  oneof
    [ return Protocol.Health;
      map3
        (fun deadline_ms views model_id -> Protocol.Transform { deadline_ms; views; model_id })
        int gen_views gen_id;
      map3
        (fun deadline_ms views model_id -> Protocol.Predict { deadline_ms; views; model_id })
        int gen_views gen_id;
      map2 (fun views model_id -> Protocol.Ingest { views; model_id }) gen_views gen_id;
      map2 (fun deadline_ms model_id -> Protocol.Refit { deadline_ms; model_id }) int gen_id;
      map2 (fun path model_id -> Protocol.Swap { path; model_id }) gen_id gen_id;
      map (fun model_id -> Protocol.Drain { model_id }) gen_id;
      return Protocol.List_models;
      map (fun model_id -> Protocol.Model_health { model_id }) gen_id ]

let gen_response =
  let open QCheck2.Gen in
  let info =
    map2
      (fun mi_id mi_r ->
        { Protocol.mi_id; mi_version = 3; mi_r; mi_breaker = "closed"; mi_draining = false })
      gen_id gen_nat
  in
  oneof
    [ map2
        (fun version dims ->
          Protocol.R_health
            { version; r = 2; dims; queue_depth = 1; queue_capacity = 8; workers = 2;
              ingested = 40; since_fit = 0; draining = false })
        int gen_dims;
      map (fun m -> Protocol.R_matrix m) gen_small_mat;
      map (fun s -> Protocol.R_scores s) (array_size (int_range 0 4) float);
      map2 (fun version note -> Protocol.R_ok { version; note }) int gen_id;
      map2 (fun depth capacity -> Protocol.R_shed { depth; capacity }) gen_nat gen_nat;
      map2 (fun stage elapsed_ms -> Protocol.R_deadline { stage; elapsed_ms }) gen_id int;
      map2 (fun code message -> Protocol.R_error { code; message }) gen_id gen_id;
      map2
        (fun model_id retry_after_ms -> Protocol.R_unavailable { model_id; retry_after_ms })
        gen_id gen_nat;
      map (fun infos -> Protocol.R_models infos) (array_size (int_range 0 3) info);
      map2
        (fun mh_id mh_dims ->
          Protocol.R_model_health
            { Protocol.mh_id; mh_version = 2; mh_r = 2; mh_dims; mh_queue_depth = 1;
              mh_queue_capacity = 8; mh_workers = 2; mh_breaker = "half-open";
              mh_retry_after_ms = 0; mh_failures = 0; mh_respawns = 1; mh_ingested = 40;
              mh_since_fit = 0; mh_last_refit = "installed v2"; mh_draining = false })
        gen_id gen_dims ]

let hostile_lengths = [ 0; -1; 1 lsl 32; 1 lsl 60; max_int ]

let gen_damaged encoded =
  let open QCheck2.Gen in
  encoded >>= fun s ->
  let len = String.length s in
  let truncate = map (fun n -> String.sub s 0 n) (int_range 0 (len - 1)) in
  let flip =
    map
      (fun bit ->
        let b = Bytes.of_string s in
        Bytes.set b (bit / 8) (Char.chr (Char.code s.[bit / 8] lxor (1 lsl (bit mod 8))));
        Bytes.to_string b)
      (int_range 0 ((8 * len) - 1))
  in
  let overwrite =
    map2
      (fun off v ->
        let b = Bytes.of_string s in
        Bytes.set_int64_le b off (Int64.of_int v);
        Bytes.to_string b)
      (int_range 0 (len - 8))
      (oneofl hostile_lengths)
  in
  oneof [ truncate; flip; overwrite ]

let decodes_totally decode body =
  match decode body with Ok _ | Error _ -> true | exception _ -> false

let prop_request_decoder_total =
  QCheck2.Test.make ~count:2000 ~name:"request decoder total on damaged frames"
    ~print:String.escaped
    (gen_damaged (QCheck2.Gen.map Protocol.request_to_string gen_request))
    (decodes_totally Protocol.request_of_string)

let prop_response_decoder_total =
  QCheck2.Test.make ~count:2000 ~name:"response decoder total on damaged frames"
    ~print:String.escaped
    (gen_damaged (QCheck2.Gen.map Protocol.response_to_string gen_response))
    (decodes_totally Protocol.response_of_string)

let test_wire_compat_legacy_client_served () =
  (* End to end: a byte-for-byte PR-8 client frame over a real socket is
     served by the multi-model daemon from "default". *)
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let th = Thread.create (fun () -> Event_loop.serve_fds t [ server ]) () in
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:9 in
      Protocol.write_frame client
        (legacy_body (fun b ->
             Checkpoint.Wire.add_int b 2;
             Checkpoint.Wire.add_int b (-1);
             add_legacy_views b x));
      (match Protocol.read_frame client with
      | Protocol.Frame body -> (
        match Protocol.response_of_string body with
        | Ok (Protocol.R_matrix z) ->
          check_true "legacy client served from default, bitwise"
            (mat_equal_bits z (Tcca.transform m x))
        | _ -> Alcotest.fail "legacy transform must be served")
      | _ -> Alcotest.fail "no reply to legacy frame");
      (try Unix.close client with Unix.Unix_error _ -> ());
      Thread.join th)

(* ------------------------------------------------------------------ *)
(* Model files *)

let test_model_store_roundtrip () =
  let m = fit_model () in
  let path = Filename.temp_file "tccm" ".tccm" in
  Model_store.save ~path m;
  (match Model_store.load ~path with
  | Ok m' ->
    let x = synth_views ~views:3 ~dim:6 ~n:9 ~seed:11 in
    check_true "projections survive bitwise"
      (mat_equal_bits (Tcca.transform m x) (Tcca.transform m' x))
  | Error e -> Alcotest.fail (Checkpoint.load_error_to_string e));
  Sys.remove path

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let test_model_store_rejects_damage () =
  let m = fit_model () in
  let path = Filename.temp_file "tccm" ".tccm" in
  Model_store.save ~path m;
  let good = read_file path in
  (* Torn: physically truncated file. *)
  write_file path (String.sub good 0 (String.length good / 3));
  (match Model_store.load ~path with
  | Error Checkpoint.Truncated -> ()
  | _ -> Alcotest.fail "truncated file must be Truncated");
  (* Corrupt: one payload byte flipped — CRC catches it. *)
  write_file path
    (String.mapi
       (fun i c -> if i = 25 then Char.chr (Char.code c lxor 0x40) else c)
       good);
  (match Model_store.load ~path with
  | Error (Checkpoint.Corrupt _) -> ()
  | _ -> Alcotest.fail "bit flip must be Corrupt");
  (* Version skew: header version bumped. *)
  write_file path
    (String.mapi (fun i c -> if i = 4 then Char.chr (Char.code c + 1) else c) good);
  (match Model_store.load ~path with
  | Error (Checkpoint.Version_mismatch { direction = Checkpoint.Newer; _ }) -> ()
  | _ -> Alcotest.fail "bumped version must be Newer mismatch");
  (* Non-finite payload: well-framed but poisoned values. *)
  let parts = Tcca.to_parts m in
  parts.Tcca.pt_correlations.(0) <- Float.nan;
  Model_store.save ~path (Tcca.of_parts parts);
  (match Model_store.load ~path with
  | Error (Checkpoint.Corrupt what) ->
    check_true "names the poison" (what = "non-finite model values")
  | _ -> Alcotest.fail "NaN model must be Corrupt");
  Sys.remove path

let test_torn_model_write_refused_on_load () =
  (* [Torn_model_write] simulates the power-loss the durable write protocol
     (fsync temp, rename, fsync dir) exists to prevent: a half-written file
     at the final path.  The loader must refuse it; a healthy durable save
     then replaces the wreck atomically. *)
  let m = fit_model () in
  let path = Filename.temp_file "tccm-torn" ".tccm" in
  Robust.Inject.with_stage Robust.Inject.Torn_model_write (fun () ->
      Model_store.save ~path m);
  (match Model_store.load ~path with
  | Error Checkpoint.Truncated -> ()
  | Ok _ -> Alcotest.fail "a torn write must never load"
  | Error e -> Alcotest.fail ("expected Truncated, got " ^ Checkpoint.load_error_to_string e));
  Model_store.save ~path m;
  (match Model_store.load ~path with
  | Ok _ -> ()
  | Error e -> Alcotest.fail ("durable rewrite: " ^ Checkpoint.load_error_to_string e));
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Circuit breaker state machine (fake clock — no sleeping) *)

let test_breaker_state_machine () =
  let now = ref 0. in
  let cfg = { Breaker.failure_threshold = 3; open_cooldown_s = 5.; half_open_successes = 2 } in
  let b = ref (Breaker.init cfg) in
  let admit () =
    let admission, next = Breaker.admit ~now:!now !b in
    b := next;
    admission
  in
  let record ~ok = b := Breaker.record cfg ~now:!now ~ok !b in
  check_true "starts closed" (Breaker.state_name !b = "closed");
  check_true "closed admits" (admit () = Breaker.Admit);
  record ~ok:false;
  record ~ok:false;
  check_true "two failures: still closed" (Breaker.state_name !b = "closed");
  check_true "counts consecutive failures" (Breaker.failures cfg !b = 2);
  record ~ok:true;
  check_true "success resets the count" (Breaker.failures cfg !b = 0);
  record ~ok:false;
  record ~ok:false;
  record ~ok:false;
  check_true "threshold trips open" (Breaker.state_name !b = "open");
  (match admit () with
  | Breaker.Reject { retry_after_ms } ->
    check_true "full cooldown reported" (retry_after_ms = 5000)
  | _ -> Alcotest.fail "open must reject");
  now := 2.;
  (match admit () with
  | Breaker.Reject { retry_after_ms } ->
    check_true "remaining cooldown reported" (retry_after_ms = 3000)
  | _ -> Alcotest.fail "open must still reject");
  now := 5.;
  check_true "cooldown elapsed: probe" (admit () = Breaker.Probe);
  check_true "now half-open" (Breaker.state_name !b = "half-open");
  (match admit () with
  | Breaker.Reject { retry_after_ms = 1 } -> ()
  | _ -> Alcotest.fail "probes are single-flight");
  record ~ok:true;
  check_true "one success: still half-open" (Breaker.state_name !b = "half-open");
  check_true "second probe allowed" (admit () = Breaker.Probe);
  record ~ok:true;
  check_true "enough successes re-close" (Breaker.state_name !b = "closed");
  (* A failed probe re-opens with a fresh cooldown. *)
  record ~ok:false;
  record ~ok:false;
  record ~ok:false;
  now := 10.;
  check_true "probe after second trip" (admit () = Breaker.Probe);
  record ~ok:false;
  check_true "failed probe re-opens" (Breaker.state_name !b = "open");
  check_true "fresh cooldown" (Breaker.retry_after_ms ~now:!now !b = 5000);
  (* force_open is the supervisor's lever for structural faults. *)
  b := Breaker.force_open ~now:!now ~cooldown_s:100. !b;
  check_true "forced cooldown" (Breaker.retry_after_ms ~now:!now !b = 100_000)

(* ------------------------------------------------------------------ *)
(* Model_state.step: properties of random event sequences (no daemon) *)

type op =
  | Ingest of { n : int; wide : bool }
  | Refit_installed of { wide : bool; stale : bool; fitted : int }
      (* A refit of a wide or narrow model that started at the state's
         version, or one version earlier, a swap having installed another
         model while it ran ([stale]); [fitted] caps the since-fit count
         its statistics held. *)
  | Refit_retained
  | Refit_failed
  | Swap of bool
  | Drain
  | Admit
  | Served of bool
  | Shed of bool
  | Batch of int
  | Crash of bool  (* the last worker? *)

(* Two shapes of model and accumulator: 3 views of 6 and of 8 dims. *)
let narrow_model = fit_model ()
let wide_model = Tcca.fit ~r:2 (synth_views ~views:3 ~dim:8 ~n:40 ~seed:7)

let accumulator_of_width wide =
  let dims = Array.make 3 (if wide then 8 else 6) in
  { Model_state.builder = Tcca.Builder.create ~dims; dims }

let narrow_acc = accumulator_of_width false
let wide_acc = accumulator_of_width true
let model_of_width wide = if wide then wide_model else narrow_model

let gen_op =
  let open QCheck2.Gen in
  oneof
    [ map2 (fun n wide -> Ingest { n; wide }) (int_range 0 50) bool;
      map3 (fun wide stale fitted -> Refit_installed { wide; stale; fitted }) bool bool
        (int_range 0 60);
      return Refit_retained;
      return Refit_failed;
      map (fun w -> Swap w) bool;
      return Drain;
      return Admit;
      map (fun ok -> Served ok) bool;
      map (fun probe -> Shed probe) bool;
      map (fun jobs -> Batch jobs) (int_range 2 8);
      map (fun last -> Crash last) bool ]

let print_op = function
  | Ingest { n; wide } -> Printf.sprintf "Ingest %d%s" n (if wide then " wide" else "")
  | Refit_installed { wide; stale; fitted } ->
    Printf.sprintf "Refit_installed%s%s %d" (if wide then " wide" else "")
      (if stale then " stale" else "") fitted
  | Refit_retained -> "Refit_retained"
  | Refit_failed -> "Refit_failed"
  | Swap w -> if w then "Swap wide" else "Swap"
  | Drain -> "Drain"
  | Admit -> "Admit"
  | Served ok -> Printf.sprintf "Served %b" ok
  | Shed probe -> Printf.sprintf "Shed %b" probe
  | Batch jobs -> Printf.sprintf "Batch %d" jobs
  | Crash last -> Printf.sprintf "Crash %b" last

(* One op as its event, applied at [now]. *)
let apply_op s ~now op =
  let step ev = fst (Model_state.step s ~now ev) in
  match op with
  | Ingest { n; wide } ->
    step (Model_state.Ingested { acc = (if wide then wide_acc else narrow_acc); n })
  | Refit_installed { wide; stale; fitted } ->
    step
      (Model_state.Refit_installed
         { model = model_of_width wide;
           version = (if stale then s.Model_state.version - 1 else s.version);
           fitted = min fitted s.since_fit })
  | Refit_retained -> step Model_state.Refit_retained
  | Refit_failed -> step (Model_state.Refit_failed "poisoned")
  | Swap w -> step (Model_state.Swap_installed (model_of_width w))
  | Drain -> step Model_state.Drain
  | Admit -> step Model_state.Admit
  | Served ok ->
    step
      (Model_state.Served
         (if ok then Protocol.R_ok { version = 0; note = "" }
          else Protocol.R_error { code = "internal"; message = "" }))
  | Shed probe -> step (Model_state.Shed { probe })
  | Batch jobs -> step (Model_state.Batch jobs)
  | Crash last -> step (Model_state.Crash { budget = 2; stopping = false; last })

(* Every state along the run, the initial one first; the clock advances
   0.3 s per event so breaker cooldowns lapse within a run. *)
let run_ops ops =
  let s0 =
    Model_state.init
      { Breaker.failure_threshold = 2; open_cooldown_s = 1.; half_open_successes = 1 }
  in
  let _, _, states =
    List.fold_left
      (fun (i, s, states) op ->
        let s = apply_op s ~now:(0.3 *. float_of_int i) op in
        (i + 1, s, s :: states))
      (0, s0, [ s0 ]) ops
  in
  List.rev states

(* [check before op after] on every step of a run. *)
let every_step check ops =
  let rec go states ops =
    match (states, ops) with
    | before :: (after :: _ as rest), op :: ops -> check before op after && go rest ops
    | _ -> true
  in
  go (run_ops ops) ops

let step_property name check =
  QCheck2.Test.make ~count:500 ~name
    ~print:QCheck2.Print.(list print_op)
    QCheck2.Gen.(list_size (int_range 0 60) gen_op)
    check

(* A refit installs only at the version it started from; one that a swap
   overtook while it ran leaves the version (and the swapped model)
   alone. *)
let prop_version_counts_installs =
  step_property
    "step: the version grows by one per swap and per refit started at the current version, else not"
    (every_step (fun (before : Model_state.t) op (after : Model_state.t) ->
         let installs =
           match op with Swap _ | Refit_installed { stale = false; _ } -> 1 | _ -> 0
         in
         after.version = before.version + installs))

let prop_ingested_sums_counts =
  step_property "step: ingested is the sum of the ingested counts" (fun ops ->
      let total =
        List.fold_left (fun acc -> function Ingest { n; _ } -> acc + n | _ -> acc) 0 ops
      in
      (List.hd (List.rev (run_ops ops))).Model_state.ingested = total)

(* The reference: since-fit sums the counts since the last swap to a model
   whose dims differ from the accumulator's, less what each installed
   refit fitted; a stale refit changes nothing. *)
let prop_since_fit_counts_since_reset =
  step_property "step: since-fit sums the counts not yet fitted since the last reshaping swap"
    (fun ops ->
      let _, _, expected =
        List.fold_left
          (fun (acc_wide, since, trace) op ->
            let acc_wide, since =
              match op with
              | Ingest { n; wide } -> (Some wide, since + n)
              | Refit_installed { stale = false; fitted; _ } ->
                (acc_wide, since - min fitted since)
              | Swap w when acc_wide <> None && acc_wide <> Some w -> (None, 0)
              | _ -> (acc_wide, since)
            in
            (acc_wide, since, since :: trace))
          (None, 0, []) ops
      in
      List.for_all2
        (fun (s : Model_state.t) since -> s.since_fit = since)
        (List.tl (run_ops ops)) (List.rev expected))

let prop_draining_absorbing =
  step_property "step: draining is absorbing, and set by Drain alone"
    (every_step (fun (before : Model_state.t) op (after : Model_state.t) ->
         after.draining = (before.draining || op = Drain)))

(* A refit's fit runs outside the model's lock.  Ingests that land during
   it still count towards the next refit... *)
let test_refit_keeps_ingests_made_during_fit () =
  let s0 =
    Model_state.init
      { Breaker.failure_threshold = 2; open_cooldown_s = 1.; half_open_successes = 1 }
  in
  let step s ev = Model_state.step s ~now:0. ev in
  let acc = accumulator_of_width false in
  let s, () = step s0 (Model_state.Ingested { acc; n = 10 }) in
  (* The refit starts at version 0 and finalizes here, reading
     since-fit = 10. *)
  let s, () = step s (Model_state.Ingested { acc; n = 5 }) in
  let s, installed =
    step s (Model_state.Refit_installed { model = narrow_model; version = 0; fitted = 10 })
  in
  check_true "installed" installed;
  check_true "version 1" (s.version = 1);
  check_true "the 5 ingested during the fit still count" (s.since_fit = 5);
  check_true "last refit" (s.last_refit = "installed v1")

(* ...and a swap during the fit wins, whatever its view dimensions: the
   refit was warm-started from the model the swap replaced, so its model
   is not installed.  Also after the swapped model's first ingest made a
   new accumulator of a new shape. *)
let test_refit_superseded_by_swap () =
  let s0 =
    Model_state.init
      { Breaker.failure_threshold = 2; open_cooldown_s = 1.; half_open_successes = 1 }
  in
  let step s ev = Model_state.step s ~now:0. ev in
  let s, () = step s0 (Model_state.Seed { model = narrow_model; version = 1 }) in
  let s, () = step s (Model_state.Ingested { acc = accumulator_of_width false; n = 10 }) in
  (* The refit starts here, at version 1. *)
  let stale =
    Model_state.Refit_installed { model = narrow_model; version = 1; fitted = 10 }
  in
  let check_superseded what swapped (s : Model_state.t) =
    let s', installed = step s stale in
    check_true (what ^ ": not installed") (not installed);
    check_true (what ^ ": version kept") (s'.version = 2);
    check_true (what ^ ": swapped model kept")
      (match s'.model with Some m -> m == swapped | None -> false);
    check_true (what ^ ": since-fit kept") (s'.since_fit = s.since_fit);
    check_true (what ^ ": noted") (s'.last_refit = "superseded by swap")
  in
  let same_dims = fit_model ~seed:4 () in
  let kept, () = step s (Model_state.Swap_installed same_dims) in
  check_true "same dims: accumulator kept"
    ((match (kept.acc, s.acc) with Some a, Some b -> a == b | _ -> false)
    && kept.since_fit = 10);
  check_superseded "same dims" same_dims kept;
  let s, () = step s (Model_state.Swap_installed wide_model) in
  check_superseded "accumulator dropped" wide_model s;
  let s, () = step s (Model_state.Ingested { acc = accumulator_of_width true; n = 4 }) in
  check_superseded "new accumulator" wide_model s

(* ------------------------------------------------------------------ *)
(* Engine: serving correctness *)

let test_transform_matches_library () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:7 ~seed:21 in
      let z = expect_matrix "transform" (transform t x) in
      check_true "server transform ≡ library transform"
        (mat_equal_bits z (Tcca.transform m x)))

let test_predict_formula () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:22 in
      match
        Server.handle t (Protocol.Predict { deadline_ms = -1; views = x; model_id = "default" })
      with
      | Protocol.R_scores s ->
        let zs = Array.mapi (fun p xp -> Tcca.transform_view m p xp) x in
        let lambda = Tcca.correlations m in
        let expect =
          Array.init 5 (fun i ->
              let acc = ref 0. in
              Array.iteri
                (fun k l ->
                  let prod = ref l in
                  Array.iter (fun z -> prod := !prod *. Mat.get z k i) zs;
                  acc := !acc +. !prod)
                lambda;
              !acc)
        in
        check_true "scores = Σₖ λₖ Πₚ Zₚ[k,i]"
          (Array.for_all2 (fun a b -> a = b) s expect)
      | _ -> Alcotest.fail "expected R_scores")

let test_cold_start_refuses_typed () =
  with_server (cfg ()) (fun t ->
      check_true "cold version is 0" ((model_health t "default").Protocol.mh_version = 0);
      let x = synth_views ~views:3 ~dim:6 ~n:3 ~seed:1 in
      match transform t x with
      | Protocol.R_error { code = "no-model"; _ } -> ()
      | _ -> Alcotest.fail "cold transform must be a typed no-model refusal")

(* ------------------------------------------------------------------ *)
(* Deadlines *)

let test_deadline_zero_expires_not_hangs () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:7 ~seed:23 in
      (match transform ~deadline_ms:0 t x with
      | Protocol.R_deadline { stage; _ } ->
        check_true "stage names the serve path" (stage = "serve.transform")
      | _ -> Alcotest.fail "deadline 0 must reply R_deadline");
      (* The daemon is unharmed: the next request computes normally. *)
      let z = expect_matrix "after miss" (transform t x) in
      check_true "still serving" (mat_equal_bits z (Tcca.transform m x)))

let test_deadline_counts_queue_wait () =
  (* No workers: a job can only wait.  Its budget starts at enqueue, so the
     wait itself expires it — drain answers it without compute ever running. *)
  let m = fit_model () in
  let t = Server.create ~model:m (cfg ~workers:0 ~queue:4 ()) in
  let x = synth_views ~views:3 ~dim:6 ~n:3 ~seed:24 in
  let resp = ref None in
  let th = Thread.create (fun () -> resp := Some (transform ~deadline_ms:10 t x)) () in
  Thread.delay 0.15;
  Server.drain_and_stop t;
  Thread.join th;
  match !resp with
  | Some (Protocol.R_error { code = "draining"; _ }) -> ()
  | Some _ | None -> Alcotest.fail "queued job must be answered at drain, never hung"

(* ------------------------------------------------------------------ *)
(* Load shedding *)

let test_queue_overflow_sheds () =
  let m = fit_model () in
  (* workers = 0: nothing drains the queue, so capacity 2 fills with the
     first two requests and the third must shed. *)
  let t = Server.create ~model:m (cfg ~workers:0 ~queue:2 ()) in
  let x = synth_views ~views:3 ~dim:6 ~n:3 ~seed:25 in
  let blocked = Array.init 2 (fun _ ->
      Thread.create (fun () -> ignore (transform t x)) ())
  in
  Thread.delay 0.15;
  (match transform t x with
  | Protocol.R_shed { depth; capacity } ->
    check_true "reports full queue" (depth = 2 && capacity = 2)
  | _ -> Alcotest.fail "third request must shed");
  (* Shedding didn't kill the daemon: health is still answered inline. *)
  (match Server.handle t Protocol.Health with
  | Protocol.R_health { queue_depth = 2; _ } -> ()
  | _ -> Alcotest.fail "health must report the full queue");
  Server.drain_and_stop t;
  Array.iter Thread.join blocked

let test_queue_full_inject () =
  let m = fit_model () in
  with_server ~model:m (cfg ~workers:1 ~queue:8 ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:3 ~seed:26 in
      Robust.Inject.with_stage Robust.Inject.Queue_full (fun () ->
          match transform t x with
          | Protocol.R_shed _ -> ()
          | _ -> Alcotest.fail "Queue_full inject must shed");
      (* Disarmed: service resumes. *)
      match transform t x with
      | Protocol.R_matrix _ -> ()
      | _ -> Alcotest.fail "service must resume after inject clears")

(* ------------------------------------------------------------------ *)
(* Hot swap *)

let swap_fixture () =
  let serving = fit_model ~seed:3 () in
  let candidate = fit_model ~seed:4 () in
  let path = Filename.temp_file "swap" ".tccm" in
  Model_store.save ~path candidate;
  (serving, candidate, path)

let test_swap_success () =
  let serving, candidate, path = swap_fixture () in
  with_server ~model:serving (cfg ()) (fun t ->
      (match Server.handle t (Protocol.Swap { path; model_id = "default" }) with
      | Protocol.R_ok { version = 2; _ } -> ()
      | _ -> Alcotest.fail "valid swap must install as version 2");
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:31 in
      let z = expect_matrix "transform after swap" (transform t x) in
      check_true "serves the swapped-in model" (mat_equal_bits z (Tcca.transform candidate x)));
  Sys.remove path

let unchanged_after_bad_swap t serving x code path =
  (match Server.handle t (Protocol.Swap { path; model_id = "default" }) with
  | Protocol.R_error { code = c; _ } when c = code -> ()
  | Protocol.R_error { code = c; _ } ->
    Alcotest.fail (Printf.sprintf "expected %s, got %s" code c)
  | _ -> Alcotest.fail "bad swap must be refused");
  check_true "version unchanged" ((model_health t "default").Protocol.mh_version = 1);
  let z = expect_matrix "transform after refused swap" (transform t x) in
  check_true "projections unchanged bitwise" (mat_equal_bits z (Tcca.transform serving x))

let test_torn_swap_rolls_back () =
  let serving, _, path = swap_fixture () in
  with_server ~model:serving (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:32 in
      Robust.Inject.with_stage Robust.Inject.Torn_swap (fun () ->
          unchanged_after_bad_swap t serving x "torn" path);
      (* The same file swaps fine once the tear is gone. *)
      match Server.handle t (Protocol.Swap { path; model_id = "default" }) with
      | Protocol.R_ok { version = 2; _ } -> ()
      | _ -> Alcotest.fail "healthy retry of the same swap must succeed");
  Sys.remove path

let test_corrupt_swap_rolls_back () =
  let serving, _, path = swap_fixture () in
  let good = read_file path in
  write_file path
    (String.mapi (fun i c -> if i = 30 then Char.chr (Char.code c lxor 0x10) else c) good);
  with_server ~model:serving (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:33 in
      unchanged_after_bad_swap t serving x "corrupt" path);
  Sys.remove path

let test_version_skew_swap_refused () =
  let serving, _, path = swap_fixture () in
  let good = read_file path in
  write_file path
    (String.mapi (fun i c -> if i = 4 then Char.chr (Char.code c + 1) else c) good);
  with_server ~model:serving (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:34 in
      unchanged_after_bad_swap t serving x "version-newer" path);
  Sys.remove path

(* A swap to a model of other view dimensions drops the accumulator and
   its since-fit count: the swapped model's ingests fold into a fresh one
   of its own shape, and its refit installs a model of that shape.  A
   same-dims swap keeps both. *)
let ingest_default t ~dim ~seed =
  match
    Server.handle t
      (Protocol.Ingest { views = synth_views ~views:3 ~dim ~n:30 ~seed; model_id = "default" })
  with
  | Protocol.R_ok _ -> ()
  | r -> Alcotest.fail (Printf.sprintf "dims-%d ingest: %s" dim (Protocol.response_to_string r))

let refit_default t =
  Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" })

let test_swap_to_other_dims_resets_accumulator () =
  with_server ~model:(fit_model ()) (cfg ()) (fun t ->
      ingest_default t ~dim:6 ~seed:35;
      install_model t "default" (Tcca.fit ~r:2 (synth_views ~views:3 ~dim:8 ~n:40 ~seed:36));
      ingest_default t ~dim:8 ~seed:37;
      let h = model_health t "default" in
      check_true "v2 counts only the swapped shape's samples since the fit"
        (h.Protocol.mh_version = 2 && h.Protocol.mh_since_fit = 30
        && h.Protocol.mh_ingested = 60);
      (match refit_default t with
      | Protocol.R_ok { version = 3; _ } -> ()
      | r -> Alcotest.fail ("refit after the swap: " ^ Protocol.response_to_string r));
      check_true "the refit keeps the swapped dims"
        ((model_health t "default").Protocol.mh_dims = [| 8; 8; 8 |]);
      ignore
        (expect_matrix "dims-8 transform after the refit"
           (transform t (synth_views ~views:3 ~dim:8 ~n:5 ~seed:38))))

let test_same_dims_swap_keeps_accumulator () =
  with_server ~model:(fit_model ~seed:3 ()) (cfg ()) (fun t ->
      ingest_default t ~dim:6 ~seed:39;
      install_model t "default" (fit_model ~seed:4 ());
      let h = model_health t "default" in
      check_true "since-fit survives a same-dims swap"
        (h.Protocol.mh_version = 2 && h.Protocol.mh_since_fit = 30);
      match refit_default t with
      | Protocol.R_ok { version = 3; _ } -> ()
      | r -> Alcotest.fail ("refit after a same-dims swap: " ^ Protocol.response_to_string r))

(* ------------------------------------------------------------------ *)
(* Ingest + refit *)

let test_ingest_then_refit_cold () =
  with_server (cfg ()) (fun t ->
      let batch = synth_views ~views:3 ~dim:6 ~n:50 ~seed:41 in
      (match Server.handle t (Protocol.Ingest { views = batch; model_id = "default" }) with
      | Protocol.R_ok _ -> ()
      | _ -> Alcotest.fail "ingest");
      (match Server.handle t Protocol.Health with
      | Protocol.R_health { ingested = 50; since_fit = 50; version = 0; _ } -> ()
      | _ -> Alcotest.fail "health must count ingested samples");
      (match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" }) with
      | Protocol.R_ok { version = 1; _ } -> ()
      | r ->
        Alcotest.fail
          ("cold refit must install version 1, got " ^ Protocol.response_to_string r));
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:42 in
      match transform t x with
      | Protocol.R_matrix _ -> ()
      | _ -> Alcotest.fail "must serve after cold refit")

let test_refit_no_new_data_retains_bitwise () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:6 ~seed:43 in
      let before = expect_matrix "transform" (transform t x) in
      (match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" }) with
      | Protocol.R_ok { version = 1; note } ->
        check_true "says retained"
          (String.length note >= 8 && String.sub note 0 2 = "no")
      | _ -> Alcotest.fail "refit with nothing new must retain");
      check_true "health reports the retained refit"
        ((model_health t "default").Protocol.mh_last_refit = "retained");
      let after = expect_matrix "transform after retained refit" (transform t x) in
      check_true "bit-identical serving model" (mat_equal_bits before after))

let test_warm_refit_installs_and_serves () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let batch = synth_views ~views:3 ~dim:6 ~n:60 ~seed:44 in
      (match Server.handle t (Protocol.Ingest { views = batch; model_id = "default" }) with
      | Protocol.R_ok _ -> ()
      | _ -> Alcotest.fail "ingest");
      (match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" }) with
      | Protocol.R_ok { version = 2; note } ->
        check_true "refit note mentions install"
          (String.length note > 0)
      | r -> Alcotest.fail ("warm refit must install v2: " ^ Protocol.response_to_string r));
      check_true "health reports the install"
        ((model_health t "default").Protocol.mh_last_refit = "installed v2");
      (* Rank is inherited from the serving model, not cfg.rank. *)
      match Server.handle t Protocol.Health with
      | Protocol.R_health { r = 2; since_fit = 0; _ } -> ()
      | _ -> Alcotest.fail "health after refit")

let test_warm_refit_pool_independent () =
  (* The same ingest+refit sequence at pool 1 and pool 4 must install
     bitwise-identical models — Parallel's pool-size-independence contract
     carried through the whole serving stack. *)
  let saved = Parallel.num_domains () in
  Fun.protect
    ~finally:(fun () -> Parallel.set_num_domains saved)
    (fun () ->
      let run pool =
        Parallel.set_num_domains pool;
        let m = fit_model () in
        with_server ~model:m (cfg ()) (fun t ->
            let batch = synth_views ~views:3 ~dim:6 ~n:60 ~seed:45 in
            (match Server.handle t (Protocol.Ingest { views = batch; model_id = "default" }) with
            | Protocol.R_ok _ -> ()
            | _ -> Alcotest.fail "ingest");
            (match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" }) with
            | Protocol.R_ok { version = 2; _ } -> ()
            | r -> Alcotest.fail ("refit: " ^ Protocol.response_to_string r));
            let x = synth_views ~views:3 ~dim:6 ~n:8 ~seed:46 in
            expect_matrix "transform" (transform t x))
      in
      check_true "pool 1 ≡ pool 4 bitwise" (mat_equal_bits (run 1) (run 4)))

let test_refit_nan_leaves_model_untouched () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let batch = synth_views ~views:3 ~dim:6 ~n:30 ~seed:47 in
      (match Server.handle t (Protocol.Ingest { views = batch; model_id = "default" }) with
      | Protocol.R_ok _ -> ()
      | _ -> Alcotest.fail "ingest");
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:48 in
      let before = expect_matrix "transform" (transform t x) in
      Robust.Inject.with_stage Robust.Inject.Refit_nan (fun () ->
          match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" }) with
          | Protocol.R_error { code = "refit-failed"; message } ->
            check_true "mentions give-up accounting"
              (String.length message > 0)
          | r -> Alcotest.fail ("poisoned refit: " ^ Protocol.response_to_string r));
      check_true "version unchanged" ((model_health t "default").Protocol.mh_version = 1);
      check_true "health reports the failure"
        (let lr = (model_health t "default").Protocol.mh_last_refit in
         String.length lr >= 6 && String.sub lr 0 6 = "failed");
      let after = expect_matrix "transform after failed refit" (transform t x) in
      check_true "pre-refit model still serving, bitwise" (mat_equal_bits before after);
      (* The poison is gone: the retained samples refit fine now. *)
      match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" }) with
      | Protocol.R_ok { version = 2; _ } -> ()
      | r -> Alcotest.fail ("recovery refit: " ^ Protocol.response_to_string r))

(* ------------------------------------------------------------------ *)
(* Multi-model registry: routing, isolation, per-model drain *)

let test_unknown_and_invalid_model_ids () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:3 ~seed:71 in
      (match transform ~model_id:"nope" t x with
      | Protocol.R_error { code = "unknown-model"; _ } -> ()
      | _ -> Alcotest.fail "transform to an unknown model must be typed");
      (match Server.handle t (Protocol.Model_health { model_id = "nope" }) with
      | Protocol.R_error { code = "unknown-model"; _ } -> ()
      | _ -> Alcotest.fail "model-health of an unknown model must be typed");
      (* Invalid ids can never create registry entries (they are also
         path-unsafe: "../x" would escape the state root). *)
      (match Server.handle t (Protocol.Ingest { views = x; model_id = "../evil" }) with
      | Protocol.R_error { code = "bad-request"; _ } -> ()
      | _ -> Alcotest.fail "invalid id must be refused");
      match Server.handle t Protocol.List_models with
      | Protocol.R_models infos ->
        check_true "no entry was created"
          (Array.length infos = 1 && infos.(0).Protocol.mi_id = "default")
      | _ -> Alcotest.fail "list-models")

let test_second_model_lifecycle () =
  let ma = fit_model ~seed:3 () in
  let mb = fit_model ~seed:5 () in
  with_server ~model:ma (cfg ()) (fun t ->
      install_model t "b" mb;
      (match Server.handle t Protocol.List_models with
      | Protocol.R_models infos ->
        check_true "registry lists both, sorted"
          (Array.length infos = 2
          && infos.(0).Protocol.mi_id = "b"
          && infos.(1).Protocol.mi_id = "default")
      | _ -> Alcotest.fail "list-models");
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:72 in
      let za = expect_matrix "default" (transform t x) in
      let zb = expect_matrix "b" (transform ~model_id:"b" t x) in
      check_true "each id serves its own model"
        (mat_equal_bits za (Tcca.transform ma x) && mat_equal_bits zb (Tcca.transform mb x));
      let hb = model_health t "b" in
      check_true "b's health record"
        (hb.Protocol.mh_version = 1 && hb.Protocol.mh_breaker = "closed"
        && hb.Protocol.mh_queue_depth = 0);
      (* Ingest + refit on "b" bumps only "b". *)
      let batch = synth_views ~views:3 ~dim:6 ~n:60 ~seed:73 in
      (match Server.handle t (Protocol.Ingest { views = batch; model_id = "b" }) with
      | Protocol.R_ok _ -> ()
      | _ -> Alcotest.fail "ingest b");
      (match Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "b" }) with
      | Protocol.R_ok { version = 2; _ } -> ()
      | r -> Alcotest.fail ("refit b: " ^ Protocol.response_to_string r));
      check_true "default untouched by b's refit"
        ((model_health t "default").Protocol.mh_version = 1);
      let za' = expect_matrix "default after b refit" (transform t x) in
      check_true "default projections bitwise unchanged" (mat_equal_bits za za'))

let test_per_model_drain_isolates () =
  let ma = fit_model ~seed:3 () in
  let mb = fit_model ~seed:5 () in
  with_server ~model:ma (cfg ()) (fun t ->
      install_model t "b" mb;
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:74 in
      let zb = expect_matrix "b before" (transform ~model_id:"b" t x) in
      (match Server.handle t (Protocol.Drain { model_id = "default" }) with
      | Protocol.R_ok _ -> ()
      | r -> Alcotest.fail ("drain default: " ^ Protocol.response_to_string r));
      (match transform t x with
      | Protocol.R_error { code = "draining"; _ } -> ()
      | _ -> Alcotest.fail "drained model must refuse work");
      check_true "daemon-wide flag untouched" (not (Server.draining t));
      let zb' = expect_matrix "b after" (transform ~model_id:"b" t x) in
      check_true "sibling serves bitwise through the drain" (mat_equal_bits zb zb');
      match Server.handle t Protocol.List_models with
      | Protocol.R_models infos ->
        check_true "listing shows exactly one draining model"
          (Array.for_all
             (fun i -> i.Protocol.mi_draining = (i.Protocol.mi_id = "default"))
             infos)
      | _ -> Alcotest.fail "list-models")

(* ------------------------------------------------------------------ *)
(* Supervision: crashed workers are respawned, with a capped budget *)

let test_worker_crash_respawns () =
  let m = fit_model () in
  with_server ~model:m (cfg ~workers:1 ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:4 ~seed:81 in
      Robust.Inject.with_stage Robust.Inject.Worker_crash (fun () ->
          match transform t x with
          | Protocol.R_error { code = "worker-crash"; _ } -> ()
          | r -> Alcotest.fail ("crash must answer typed: " ^ Protocol.response_to_string r));
      (* The supervisor respawned the worker: service resumes, and the
         health record owns up to the respawn. *)
      let z = expect_matrix "after respawn" (transform t x) in
      check_true "respawned worker serves bitwise" (mat_equal_bits z (Tcca.transform m x));
      let h = model_health t "default" in
      check_true "respawn counted" (h.Protocol.mh_respawns = 1);
      check_true "worker pool restored" (h.Protocol.mh_workers = 1);
      check_true "breaker still closed" (h.Protocol.mh_breaker = "closed"))

let test_respawn_budget_forces_breaker_open () =
  let ma = fit_model ~seed:3 () in
  let mb = fit_model ~seed:5 () in
  with_server ~model:ma (cfg ~workers:1 ~max_respawns:1 ()) (fun t ->
      install_model t "b" mb;
      let x = synth_views ~views:3 ~dim:6 ~n:4 ~seed:82 in
      let zb = expect_matrix "b before" (transform ~model_id:"b" t x) in
      (* Two crashes on "b": the first consumes the respawn budget, the
         second exhausts it — last worker dead, breaker forced open. *)
      Robust.Inject.with_stage Robust.Inject.Worker_crash (fun () ->
          for _ = 1 to 2 do
            match transform ~model_id:"b" t x with
            | Protocol.R_error { code = "worker-crash"; _ } -> ()
            | r -> Alcotest.fail ("crash reply: " ^ Protocol.response_to_string r)
          done);
      (* Give the supervisor thread its turn to finish the post-crash
         bookkeeping (force_open runs after the crash reply is sent). *)
      Thread.delay 0.05;
      (match transform ~model_id:"b" t x with
      | Protocol.R_unavailable { model_id = "b"; retry_after_ms } ->
        check_true "long cooldown" (retry_after_ms > 0)
      | r -> Alcotest.fail ("dead model must be unavailable: " ^ Protocol.response_to_string r));
      let h = model_health t "b" in
      check_true "b is open with no workers"
        (h.Protocol.mh_breaker = "open" && h.Protocol.mh_workers = 0
        && h.Protocol.mh_respawns = 1);
      (* The failure domain held: "default" serves bitwise through all of it. *)
      let za = expect_matrix "default through b's death" (transform t x) in
      check_true "sibling unaffected" (mat_equal_bits za (Tcca.transform ma x));
      check_true "sibling breaker closed"
        ((model_health t "default").Protocol.mh_breaker = "closed");
      ignore zb)

(* ------------------------------------------------------------------ *)
(* Circuit breaker on the serving path *)

let trip_breaker t ~model_id ~threshold x =
  (* deadline 0 requests expire deterministically — each is a breaker
     failure without touching the model. *)
  for _ = 1 to threshold do
    match transform ~model_id ~deadline_ms:0 t x with
    | Protocol.R_deadline _ -> ()
    | r -> Alcotest.fail ("expected R_deadline: " ^ Protocol.response_to_string r)
  done

let test_breaker_trips_and_isolates () =
  let ma = fit_model ~seed:3 () in
  let mb = fit_model ~seed:5 () in
  let breaker =
    { Breaker.failure_threshold = 3; open_cooldown_s = 30.; half_open_successes = 1 }
  in
  with_server ~model:ma (cfg ~breaker ()) (fun t ->
      install_model t "b" mb;
      let x = synth_views ~views:3 ~dim:6 ~n:4 ~seed:83 in
      trip_breaker t ~model_id:"b" ~threshold:3 x;
      (match transform ~model_id:"b" t x with
      | Protocol.R_unavailable { model_id = "b"; retry_after_ms } ->
        check_true "cooldown is running" (retry_after_ms > 0 && retry_after_ms <= 30_000)
      | r -> Alcotest.fail ("tripped breaker must reject: " ^ Protocol.response_to_string r));
      check_true "b reads open" ((model_health t "b").Protocol.mh_breaker = "open");
      (* The rejection was immediate and typed; the sibling never noticed. *)
      let za = expect_matrix "default while b is open" (transform t x) in
      check_true "sibling serves bitwise" (mat_equal_bits za (Tcca.transform ma x));
      check_true "sibling breaker closed"
        ((model_health t "default").Protocol.mh_breaker = "closed"))

let test_breaker_half_open_recloses () =
  let m = fit_model () in
  let breaker =
    { Breaker.failure_threshold = 1; open_cooldown_s = 0.05; half_open_successes = 1 }
  in
  with_server ~model:m (cfg ~breaker ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:4 ~seed:84 in
      trip_breaker t ~model_id:"default" ~threshold:1 x;
      (match transform t x with
      | Protocol.R_unavailable _ -> ()
      | r -> Alcotest.fail ("open must reject: " ^ Protocol.response_to_string r));
      Thread.delay 0.1;
      (* Cooldown served: this request is the half-open probe, it succeeds,
         and one success re-closes the breaker. *)
      let z = expect_matrix "probe" (transform t x) in
      check_true "probe served bitwise" (mat_equal_bits z (Tcca.transform m x));
      check_true "re-closed" ((model_health t "default").Protocol.mh_breaker = "closed"))

let test_breaker_probe_fail_reopens () =
  let m = fit_model () in
  let breaker =
    { Breaker.failure_threshold = 1; open_cooldown_s = 0.05; half_open_successes = 1 }
  in
  with_server ~model:m (cfg ~breaker ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:4 ~seed:85 in
      trip_breaker t ~model_id:"default" ~threshold:1 x;
      Thread.delay 0.1;
      (* The probe itself dies (injected): the breaker must re-open with a
         fresh cooldown instead of re-closing on a broken path. *)
      Robust.Inject.with_stage Robust.Inject.Breaker_probe_fail (fun () ->
          match transform t x with
          | Protocol.R_error { code = "internal"; _ } -> ()
          | r -> Alcotest.fail ("failed probe reply: " ^ Protocol.response_to_string r));
      (match transform t x with
      | Protocol.R_unavailable _ -> ()
      | r -> Alcotest.fail ("must re-open after failed probe: " ^ Protocol.response_to_string r));
      (* Next cooldown + healthy probe: service recovers for real. *)
      Thread.delay 0.1;
      let z = expect_matrix "healthy probe" (transform t x) in
      check_true "recovered bitwise" (mat_equal_bits z (Tcca.transform m x));
      check_true "closed again" ((model_health t "default").Protocol.mh_breaker = "closed"))

(* ------------------------------------------------------------------ *)
(* Drain + recovery *)

let test_drain_refuses_then_flushes () =
  let m = fit_model () in
  let dir = tmp_dir "tccad-drain" in
  let t = Server.create ~model:m (cfg ~state_dir:dir ()) in
  (match Server.handle t (Protocol.Drain { model_id = "" }) with
  | Protocol.R_ok { note = "draining"; _ } -> ()
  | _ -> Alcotest.fail "drain ack");
  let x = synth_views ~views:3 ~dim:6 ~n:3 ~seed:51 in
  (match transform t x with
  | Protocol.R_error { code = "draining"; _ } -> ()
  | _ -> Alcotest.fail "work during drain must be refused");
  (* Health keeps answering so orchestrators can watch the drain. *)
  (match Server.handle t Protocol.Health with
  | Protocol.R_health { draining = true; _ } -> ()
  | _ -> Alcotest.fail "health during drain");
  Server.drain_and_stop t;
  check_true "snapshot written under the model's own dir at drain"
    (Sys.file_exists (Filename.concat dir "default/model-v000001.tccm"));
  rm_rf dir

let test_recovery_from_newest_valid () =
  (* Legacy (PR-8) on-disk layout: top-level model-v*.tccm files, no
     per-model subdirs — recovery must adopt them as "default". *)
  let dir = tmp_dir "tccad-recover" in
  let m1 = fit_model ~seed:3 () in
  let m2 = fit_model ~seed:4 () in
  Model_store.save ~path:(Filename.concat dir "model-v000001.tccm") m1;
  Model_store.save ~path:(Filename.concat dir "model-v000002.tccm") m2;
  with_server (cfg ~state_dir:dir ()) (fun t ->
      check_true "adopts newest version" ((model_health t "default").Protocol.mh_version = 2);
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:52 in
      let z = expect_matrix "transform after recovery" (transform t x) in
      check_true "serves the newest model bitwise" (mat_equal_bits z (Tcca.transform m2 x)));
  rm_rf dir

let test_recovery_skips_corrupt_newest () =
  let dir = tmp_dir "tccad-skip" in
  let m1 = fit_model ~seed:3 () in
  let m2 = fit_model ~seed:4 () in
  let p1 = Filename.concat dir "model-v000001.tccm" in
  let p2 = Filename.concat dir "model-v000002.tccm" in
  Model_store.save ~path:p1 m1;
  Model_store.save ~path:p2 m2;
  (* Tear the newest snapshot: recovery must fall back to v1, loudly. *)
  let good = read_file p2 in
  write_file p2 (String.sub good 0 (String.length good / 2));
  Robust.clear_warnings ();
  with_server (cfg ~state_dir:dir ()) (fun t ->
      check_true "falls back to the older valid snapshot"
        ((model_health t "default").Protocol.mh_version = 1);
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:53 in
      let z = expect_matrix "transform after degraded recovery" (transform t x) in
      check_true "serves v1 bitwise" (mat_equal_bits z (Tcca.transform m1 x)));
  rm_rf dir

let test_recovery_all_corrupt_degrades_cold () =
  let dir = tmp_dir "tccad-cold" in
  write_file (Filename.concat dir "model-v000003.tccm") "TCCMgarbage";
  with_server (cfg ~state_dir:dir ()) (fun t ->
      let h = model_health t "default" in
      check_true "cold start" (h.Protocol.mh_version = 0 && h.Protocol.mh_dims = [||]));
  rm_rf dir

let test_recovery_mixed_model_dirs () =
  (* Three models on disk: "a" healthy, "b" newest-torn (must fall back),
     "c" all-garbage (must cold-start) — each recovered independently. *)
  let dir = tmp_dir "tccad-mixed" in
  let ma = fit_model ~seed:3 () in
  let mb1 = fit_model ~seed:4 () in
  let mb2 = fit_model ~seed:5 () in
  Unix.mkdir (Filename.concat dir "a") 0o755;
  Unix.mkdir (Filename.concat dir "b") 0o755;
  Unix.mkdir (Filename.concat dir "c") 0o755;
  Model_store.save ~path:(Filename.concat dir "a/model-v000002.tccm") ma;
  Model_store.save ~path:(Filename.concat dir "b/model-v000001.tccm") mb1;
  Model_store.save ~path:(Filename.concat dir "b/model-v000002.tccm") mb2;
  let pb2 = Filename.concat dir "b/model-v000002.tccm" in
  let good = read_file pb2 in
  write_file pb2 (String.sub good 0 (String.length good / 2));
  write_file (Filename.concat dir "c/model-v000009.tccm") "TCCMgarbage";
  Robust.clear_warnings ();
  with_server (cfg ~state_dir:dir ()) (fun t ->
      let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:54 in
      let ha = model_health t "a" in
      check_true "a recovered at v2" (ha.Protocol.mh_version = 2);
      let za = expect_matrix "a" (transform ~model_id:"a" t x) in
      check_true "a serves bitwise" (mat_equal_bits za (Tcca.transform ma x));
      let hb = model_health t "b" in
      check_true "b fell back to v1" (hb.Protocol.mh_version = 1);
      let zb = expect_matrix "b" (transform ~model_id:"b" t x) in
      check_true "b serves the fallback bitwise" (mat_equal_bits zb (Tcca.transform mb1 x));
      let hc = model_health t "c" in
      check_true "c cold-started" (hc.Protocol.mh_version = 0 && hc.Protocol.mh_r = 0);
      (match transform ~model_id:"c" t x with
      | Protocol.R_error { code = "no-model"; _ } -> ()
      | _ -> Alcotest.fail "cold c must refuse typed"));
  rm_rf dir

let test_recovery_corrupt_one_inject () =
  (* [Registry_corrupt_one] marks the alphabetically-first model dir
     unreadable: that model cold-starts with a warning while its sibling
     recovers normally — one rotten state dir never poisons the rest. *)
  let dir = tmp_dir "tccad-corrupt1" in
  let ma = fit_model ~seed:3 () in
  let mb = fit_model ~seed:4 () in
  Unix.mkdir (Filename.concat dir "a") 0o755;
  Unix.mkdir (Filename.concat dir "b") 0o755;
  Model_store.save ~path:(Filename.concat dir "a/model-v000001.tccm") ma;
  Model_store.save ~path:(Filename.concat dir "b/model-v000001.tccm") mb;
  Robust.clear_warnings ();
  Robust.Inject.with_stage Robust.Inject.Registry_corrupt_one (fun () ->
      with_server (cfg ~state_dir:dir ()) (fun t ->
          let x = synth_views ~views:3 ~dim:6 ~n:5 ~seed:55 in
          check_true "a cold-started" ((model_health t "a").Protocol.mh_version = 0);
          check_true "warning names the injected corruption"
            (List.exists
               (fun w -> String.length w > 0 && String.sub w 0 8 = "tccad[a]")
               (Robust.drain_warnings ()));
          let zb = expect_matrix "b" (transform ~model_id:"b" t x) in
          check_true "b recovered bitwise despite a's corruption"
            (mat_equal_bits zb (Tcca.transform mb x))));
  rm_rf dir

(* ------------------------------------------------------------------ *)
(* Socket layer *)

let with_connection t f =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th = Thread.create (fun () -> Event_loop.serve_fds t [ server ]) () in
  let out =
    Fun.protect
      ~finally:(fun () -> try Unix.close client with Unix.Unix_error _ -> ())
      (fun () -> f client)
  in
  Thread.join th;
  out

let test_socket_roundtrip () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      with_connection t (fun fd ->
          (match Protocol.call fd Protocol.Health with
          | Protocol.R_health { version = 1; r = 2; _ } -> ()
          | _ -> Alcotest.fail "health over socket");
          (match Protocol.call fd Protocol.List_models with
          | Protocol.R_models [| { Protocol.mi_id = "default"; mi_version = 1; _ } |] -> ()
          | _ -> Alcotest.fail "list-models over socket");
          (match Protocol.call fd (Protocol.Model_health { model_id = "default" }) with
          | Protocol.R_model_health { Protocol.mh_breaker = "closed"; mh_version = 1; _ } -> ()
          | _ -> Alcotest.fail "model-health over socket");
          let x = synth_views ~views:3 ~dim:6 ~n:6 ~seed:61 in
          match
            Protocol.call fd
              (Protocol.Transform { deadline_ms = -1; views = x; model_id = "default" })
          with
          | Protocol.R_matrix z ->
            check_true "socket transform ≡ library" (mat_equal_bits z (Tcca.transform m x))
          | _ -> Alcotest.fail "transform over socket"))

let test_slow_client_dropped_not_wedged () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      Robust.Inject.with_stage Robust.Inject.Slow_client (fun () ->
          let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          let th = Thread.create (fun () -> Event_loop.serve_fds t [ server ]) () in
          (* The connection thread reports Timeout immediately and drops the
             connection — joining here means no thread was wedged. *)
          Thread.join th;
          (try Unix.close client with Unix.Unix_error _ -> ()));
      (* A healthy client right after is served normally. *)
      with_connection t (fun fd ->
          match Protocol.call fd Protocol.Health with
          | Protocol.R_health _ -> ()
          | _ -> Alcotest.fail "health after dropped slow client"))

let test_socket_garbage_gets_typed_error () =
  let m = fit_model () in
  with_server ~model:m (cfg ()) (fun t ->
      with_connection t (fun fd ->
          Protocol.write_frame fd "\xFFnot a request";
          match Protocol.read_frame fd with
          | Protocol.Frame body -> (
            match Protocol.response_of_string body with
            | Ok (Protocol.R_error { code = "bad-request"; _ }) -> ()
            | _ -> Alcotest.fail "garbage must get a typed bad-request")
          | _ -> Alcotest.fail "no reply to garbage"))

(* ------------------------------------------------------------------ *)
(* qcheck: retained refit is bit-stable at any pool size *)

let qcheck_retained_refit_pool_stable =
  QCheck.Test.make ~count:8 ~name:"refit(no new data) serves bit-identical at pools 1/4"
    QCheck.(pair (int_range 0 1000) (int_range 2 4))
    (fun (seed, rank) ->
      let saved = Parallel.num_domains () in
      Fun.protect
        ~finally:(fun () -> Parallel.set_num_domains saved)
        (fun () ->
          let run pool =
            Parallel.set_num_domains pool;
            let m = Tcca.fit ~r:rank (synth_views ~views:3 ~dim:5 ~n:30 ~seed) in
            with_server ~model:m (cfg ()) (fun t ->
                (match
                   Server.handle t (Protocol.Refit { deadline_ms = -1; model_id = "default" })
                 with
                | Protocol.R_ok { version = 1; _ } -> ()
                | _ -> Alcotest.fail "retained refit");
                let x = synth_views ~views:3 ~dim:5 ~n:6 ~seed:(seed + 1) in
                expect_matrix "transform" (transform t x))
          in
          mat_equal_bits (run 1) (run 4)))

(* qcheck: the fault-isolation property.  Whatever fault hits model A —
   torn swap, poisoned refit, worker crash — model B's version counter and
   served projections are bitwise unchanged and its breaker stays closed,
   at pool sizes 1 and 4. *)
let qcheck_fault_on_a_isolated_from_b =
  QCheck.Test.make ~count:6
    ~name:"fault on A leaves B bitwise unchanged (torn swap/NaN refit/crash, pools 1/4)"
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, fault) ->
      let saved = Parallel.num_domains () in
      Fun.protect
        ~finally:(fun () -> Parallel.set_num_domains saved)
        (fun () ->
          let run pool =
            Parallel.set_num_domains pool;
            let ma = Tcca.fit ~r:2 (synth_views ~views:3 ~dim:5 ~n:30 ~seed) in
            let mb = Tcca.fit ~r:2 (synth_views ~views:3 ~dim:5 ~n:30 ~seed:(seed + 7)) in
            with_server ~model:ma (cfg ~workers:1 ()) (fun t ->
                install_model t "b" mb;
                let x = synth_views ~views:3 ~dim:5 ~n:6 ~seed:(seed + 1) in
                let zb = expect_matrix "b before" (transform ~model_id:"b" t x) in
                let vb = (model_health t "b").Protocol.mh_version in
                (* Strike model A ("default"). *)
                (match fault with
                | 0 ->
                  (* Torn swap. *)
                  let path = Filename.temp_file "qcheck-swap" ".tccm" in
                  Model_store.save ~path ma;
                  Robust.Inject.with_stage Robust.Inject.Torn_swap (fun () ->
                      match Server.handle t (Protocol.Swap { path; model_id = "default" }) with
                      | Protocol.R_error { code = "torn"; _ } -> ()
                      | r -> Alcotest.fail ("torn swap: " ^ Protocol.response_to_string r));
                  Sys.remove path
                | 1 ->
                  (* Poisoned refit. *)
                  let batch = synth_views ~views:3 ~dim:5 ~n:20 ~seed:(seed + 2) in
                  (match
                     Server.handle t (Protocol.Ingest { views = batch; model_id = "default" })
                   with
                  | Protocol.R_ok _ -> ()
                  | _ -> Alcotest.fail "ingest");
                  Robust.Inject.with_stage Robust.Inject.Refit_nan (fun () ->
                      match
                        Server.handle t
                          (Protocol.Refit { deadline_ms = -1; model_id = "default" })
                      with
                      | Protocol.R_error { code = "refit-failed"; _ } -> ()
                      | r -> Alcotest.fail ("NaN refit: " ^ Protocol.response_to_string r))
                | _ ->
                  (* Worker crash. *)
                  Robust.Inject.with_stage Robust.Inject.Worker_crash (fun () ->
                      match transform t x with
                      | Protocol.R_error { code = "worker-crash"; _ } -> ()
                      | r -> Alcotest.fail ("crash: " ^ Protocol.response_to_string r)));
                (* B is untouched: same version, closed breaker, bitwise
                   identical projections. *)
                let hb = model_health t "b" in
                if hb.Protocol.mh_version <> vb then Alcotest.fail "B's version moved";
                if hb.Protocol.mh_breaker <> "closed" then Alcotest.fail "B's breaker moved";
                let zb' = expect_matrix "b after" (transform ~model_id:"b" t x) in
                if not (mat_equal_bits zb zb') then Alcotest.fail "B's projections moved";
                zb')
          in
          mat_equal_bits (run 1) (run 4)))

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "codec roundtrip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "legacy frames decode to default" `Quick
            test_wire_compat_decodes_legacy;
          Alcotest.test_case "legacy client served end-to-end" `Quick
            test_wire_compat_legacy_client_served;
          Alcotest.test_case "garbage over socket" `Quick test_socket_garbage_gets_typed_error;
          Alcotest.test_case "crafted decoder probes refused" `Quick
            test_decoder_probes_refused;
          QCheck_alcotest.to_alcotest prop_request_decoder_total;
          QCheck_alcotest.to_alcotest prop_response_decoder_total;
          Alcotest.test_case "decoder allocation O(frame bytes)" `Quick
            test_decoder_allocation_bounded ] );
      ( "model-store",
        [ Alcotest.test_case "roundtrip" `Quick test_model_store_roundtrip;
          Alcotest.test_case "rejects damage" `Quick test_model_store_rejects_damage;
          Alcotest.test_case "torn write refused on load" `Quick
            test_torn_model_write_refused_on_load ] );
      ( "model-state",
        List.map QCheck_alcotest.to_alcotest
          [ prop_version_counts_installs;
            prop_ingested_sums_counts;
            prop_since_fit_counts_since_reset;
            prop_draining_absorbing ]
        @ [ Alcotest.test_case "refit keeps ingests made during the fit" `Quick
              test_refit_keeps_ingests_made_during_fit;
            Alcotest.test_case "refit superseded by a swap" `Quick test_refit_superseded_by_swap
          ] );
      ( "breaker",
        [ Alcotest.test_case "state machine (fake clock)" `Quick test_breaker_state_machine;
          Alcotest.test_case "trips and isolates" `Quick test_breaker_trips_and_isolates;
          Alcotest.test_case "half-open re-closes" `Quick test_breaker_half_open_recloses;
          Alcotest.test_case "failed probe re-opens" `Quick test_breaker_probe_fail_reopens ] );
      ( "supervision",
        [ Alcotest.test_case "crash answers typed, respawns" `Quick test_worker_crash_respawns;
          Alcotest.test_case "respawn budget forces breaker open" `Quick
            test_respawn_budget_forces_breaker_open ] );
      ( "serving",
        [ Alcotest.test_case "transform ≡ library" `Quick test_transform_matches_library;
          Alcotest.test_case "predict formula" `Quick test_predict_formula;
          Alcotest.test_case "cold start typed refusal" `Quick test_cold_start_refuses_typed;
          Alcotest.test_case "socket roundtrip" `Quick test_socket_roundtrip ] );
      ( "multi-model",
        [ Alcotest.test_case "unknown/invalid ids typed" `Quick
            test_unknown_and_invalid_model_ids;
          Alcotest.test_case "second model lifecycle" `Quick test_second_model_lifecycle;
          Alcotest.test_case "per-model drain isolates" `Quick test_per_model_drain_isolates;
          QCheck_alcotest.to_alcotest qcheck_fault_on_a_isolated_from_b ] );
      ( "deadlines",
        [ Alcotest.test_case "deadline 0 expires, never hangs" `Quick
            test_deadline_zero_expires_not_hangs;
          Alcotest.test_case "queue wait counts" `Quick test_deadline_counts_queue_wait ] );
      ( "shedding",
        [ Alcotest.test_case "overflow sheds" `Quick test_queue_overflow_sheds;
          Alcotest.test_case "Queue_full inject" `Quick test_queue_full_inject;
          Alcotest.test_case "slow client dropped" `Quick test_slow_client_dropped_not_wedged ] );
      ( "hot-swap",
        [ Alcotest.test_case "valid swap installs" `Quick test_swap_success;
          Alcotest.test_case "torn swap rolls back" `Quick test_torn_swap_rolls_back;
          Alcotest.test_case "corrupt swap rolls back" `Quick test_corrupt_swap_rolls_back;
          Alcotest.test_case "version skew refused" `Quick test_version_skew_swap_refused;
          Alcotest.test_case "swap to other dims resets the accumulator" `Quick
            test_swap_to_other_dims_resets_accumulator;
          Alcotest.test_case "same-dims swap keeps the accumulator" `Quick
            test_same_dims_swap_keeps_accumulator ] );
      ( "refit",
        [ Alcotest.test_case "cold ingest+refit" `Quick test_ingest_then_refit_cold;
          Alcotest.test_case "no new data retained bitwise" `Quick
            test_refit_no_new_data_retains_bitwise;
          Alcotest.test_case "warm refit installs" `Quick test_warm_refit_installs_and_serves;
          Alcotest.test_case "warm refit pool-independent" `Quick
            test_warm_refit_pool_independent;
          Alcotest.test_case "Refit_nan leaves model" `Quick
            test_refit_nan_leaves_model_untouched;
          QCheck_alcotest.to_alcotest qcheck_retained_refit_pool_stable ] );
      ( "drain-recovery",
        [ Alcotest.test_case "drain refuses and flushes" `Quick test_drain_refuses_then_flushes;
          Alcotest.test_case "recovers newest valid (legacy layout)" `Quick
            test_recovery_from_newest_valid;
          Alcotest.test_case "skips corrupt newest" `Quick test_recovery_skips_corrupt_newest;
          Alcotest.test_case "all corrupt -> cold" `Quick test_recovery_all_corrupt_degrades_cold;
          Alcotest.test_case "mixed model dirs recover independently" `Quick
            test_recovery_mixed_model_dirs;
          Alcotest.test_case "Registry_corrupt_one isolates" `Quick
            test_recovery_corrupt_one_inject ] ) ]
