(* Every metric the benchmark reports, and the result line it prints.

   Each metric names the workloads it is measured on.  BENCHMARK.json gates
   the [gated] workloads; a run of one of them reports every metric any
   gated workload measures, reading 0 where its workload does not run that
   layer.  The serve workloads run and check the daemon but are not gated:
   their Transform replies currently fail the byte check (see
   perfbench/README.md), and a gated workload must be one on which no
   operation fails. *)

let fits = [ "fit-factored"; "fit-nystrom" ]
let serves = [ "serve-read"; "serve-mixed" ]
let gated = fits

type metric = {
  name : string;
  unit_ : string;
  better : string;
  on : string list;  (** Workloads that measure it. *)
  moves : string;  (** Per-layer only: the end-to-end metrics it should move. *)
}

let m ?(better = "lower") ?(moves = "") name unit_ on = { name; unit_; better; on; moves }

(* With tracing off.  A bound is the share of the parent's median by which
   a gated metric may worsen.  Set-up gets the largest.  fit_s gets almost
   as much: on a shared 2-CPU machine the speed of plain compute was seen
   to change twofold within an hour, and by a fifth within ten runs.  The
   fit-factored peak RSS takes one of two values 12 % apart. *)
let end_to_end =
  [ m "setup_s" "s" (fits @ serves);
    m "fit_s" "s" fits;
    m "peak_rss_mb" "MB" (fits @ serves);
    m ~better:"higher" "serve_rps" "1/s" serves;
    m "serve_p50_ms" "ms" serves;
    m "serve_p99_ms" "ms" serves;
    m "ingest_ms" "ms" [ "serve-mixed" ];
    m "refit_s" "s" [ "serve-mixed" ] ]

let bound = function "setup_s" -> 0.25 | "fit_s" -> 0.24 | _ -> 0.2

(* From the traced run. *)
let per_layer =
  let fit = "fit_s" and rss = "fit_s,peak_rss_mb" and rps = "serve_rps" in
  let ff = [ "fit-factored" ] and fn = [ "fit-nystrom" ] and mixed = [ "serve-mixed" ] in
  [ m "mvcca.tcca_prepare_raw_s" "s" ff ~moves:fit;
    m "mvcca.tcca_prepare_of_raw_s" "s" ff ~moves:fit;
    m "mvcca.tcca_fit_prepared_s" "s" ff ~moves:fit;
    m "tensor.norm2_s" "s" fits ~moves:fit;
    m "tensor.norm2_alloc_mb" "MB" fits ~moves:rss;
    m "tensor.mode_gram_s" "s" fits ~moves:fit;
    m "tensor.mode_gram_alloc_mb" "MB" fits ~moves:rss;
    m "tensor.mttkrp_sweep_s" "s" fits ~moves:fit;
    m "tensor.sweeps" "count" (fits @ mixed) ~moves:"fit_s,refit_s";
    m "tensor.als_runs" "count" (fits @ mixed) ~moves:"fit_s,refit_s";
    m "linalg.whiten_s" "s" ff ~moves:fit;
    m ~better:"higher" "linalg.tgram_gflops" "GF/s" ff ~moves:fit;
    m "mvcca.ktcca_prepare_s" "s" fn ~moves:fit;
    m "mvcca.ktcca_fit_prepared_s" "s" fn ~moves:fit;
    m "linalg.pchol_s" "s" fn ~moves:fit;
    m ~better:"higher" "linalg.pchol_gflops" "GF/s" fn ~moves:fit;
    m "linalg.pchol_rank" "count" fn ~moves:fit;
    m "kernel.columns" "count" fn ~moves:fit;
    m "kernel.column_s" "s" fn ~moves:fit;
    m "tensor.to_tensor_s" "s" fn ~moves:fit;
    m "runtime.fit_1dom_s" "s" fits ~moves:fit;
    m ~better:"higher" "runtime.parallel_speedup" "x" fits ~moves:fit;
    m "runtime.robust_warnings" "count" (fits @ mixed) ~moves:"fit_s,refit_s";
    m "serve.decode_request_us" "us" serves ~moves:rps;
    m "serve.encode_response_us" "us" serves ~moves:rps;
    m "serve.handle_us" "us" serves ~moves:"serve_p50_ms";
    m "mvcca.transform_us" "us" serves ~moves:"serve_p50_ms";
    m "serve.queue_wait_us" "us" serves ~moves:"serve_p50_ms";
    m ~better:"higher" "serve.batch_width" "jobs" serves ~moves:rps;
    m "serve.unattributed_us" "us" serves ~moves:rps;
    m "mvcca.builder_add_batch_ms" "ms" mixed ~moves:"ingest_ms,serve_p99_ms";
    m "mvcca.builder_finalize_ms" "ms" mixed ~moves:"refit_s,serve_p99_ms";
    m "mvcca.refit_prepare_ms" "ms" mixed ~moves:"refit_s,serve_p99_ms";
    m "mvcca.refit_fit_ms" "ms" mixed ~moves:"refit_s,serve_p99_ms" ]
  @ List.map
      (fun o ->
        m
          ~better:(if o = Outcome.Ok then "higher" else "lower")
          (Outcome.metric o) "count" serves ~moves:"fail_ratio")
      Outcome.all

(* The metrics a run of [workload] reports: for a gated workload, those of
   every gated workload, so that all gated runs report the same set. *)
let reported metrics workload =
  let group = if List.mem workload gated then gated else [ workload ] in
  List.filter (fun x -> List.exists (fun w -> List.mem w group) x.on) metrics

(* Names follow BENCHMARK.json's rule: a letter or digit, then letters,
   digits, '_', '.' or '-', at most 64 in all. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* The result line: the last line of standard output. *)
let result_line ~correct ~attempted ~failed values =
  let metric (name, unit_, v) =
    if not (valid_name name) then invalid_arg ("Metrics.result_line: bad name " ^ name);
    if not (Float.is_finite v) then invalid_arg ("Metrics.result_line: non-finite " ^ name);
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric values))
