(* Streaming / large-N usage (paper Sec. 4.5): TCCA's fit statistics are
   accumulated in a single pass over instances, so arbitrarily large
   unlabeled pools can be consumed batch by batch without ever materializing
   them — and Vía et al.'s adaptive CCA-LS tracks the leading component
   sample by sample with constant memory.

   Run:  dune exec examples/streaming_pipeline.exe *)

let () =
  let world = Secstr.world Secstr.Quick in
  let rng = Rng.create 31 in
  let dims = (Synth.config_of world).Synth.dims in

  (* --- TCCA over a stream of batches -------------------------------- *)
  let builder = Tcca.Builder.create ~dims in
  let batches = 30 and batch_size = 2000 in
  for _ = 1 to batches do
    let batch = Synth.sample world rng ~n:batch_size in
    Tcca.Builder.add_batch builder batch.Multiview.views
  done;
  Printf.printf "absorbed %d instances in %d batches (memory: one %dx%dx%d moment tensor)\n%!"
    (Tcca.Builder.count builder) batches (dims.(0) + 1) (dims.(1) + 1) (dims.(2) + 1);

  let model = Tcca.fit_prepared ~r:8 (Tcca.prepare_of_raw ~eps:1e-2 (Tcca.Builder.finalize builder)) in

  (* Classify a labeled set in the streamed subspace. *)
  let labeled = Synth.sample world rng ~n:100 in
  let test = Synth.sample world rng ~n:1000 in
  let rls = Rls.fit (Tcca.transform model labeled.Multiview.views) labeled.Multiview.labels in
  let acc =
    Eval.accuracy (Rls.predict rls (Tcca.transform model test.Multiview.views))
      test.Multiview.labels
  in
  Printf.printf "TCCA subspace from the stream: test accuracy %.3f\n\n%!" acc;

  (* --- adaptive CCA-LS, one sample at a time ------------------------- *)
  let online = Cca_ls.Online.create ~dims () in
  let track = Synth.sample world rng ~n:4000 in
  for i = 0 to 3999 do
    let xs = Array.map (fun v -> Mat.col v i) track.Multiview.views in
    ignore (Cca_ls.Online.step online xs)
  done;
  let fresh = Synth.sample world rng ~n:500 in
  let z0 = Cca_ls.Online.transform_view online 0 fresh.Multiview.views.(0) in
  let z1 = Cca_ls.Online.transform_view online 1 fresh.Multiview.views.(1) in
  Printf.printf
    "adaptive CCA-LS after %d samples: cross-view correlation of fresh projections %.3f\n"
    (Cca_ls.Online.samples_seen online)
    (Float.abs (Stats.pearson z0 z1))
