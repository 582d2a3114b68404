let solver_comparison ~world ~n ~eps ~rs ~seed =
  let rng = Rng.create (0xAB1 + seed) in
  let data = Synth.sample world rng ~n in
  let m_tensor = Tcca.whitened_tensor ~eps data.Multiview.views in
  let t = Tableau.create ~title:"Solver ablation (CP fit / seconds)"
      ~columns:[ "rank"; "ALS fit"; "ALS s"; "rand fit"; "rand s"; "HOPM fit"; "HOPM s";
                 "power fit"; "power s" ]
  in
  Array.iter
    (fun r ->
      let als_result = ref None in
      let als_s = Measure.time (fun () ->
          als_result := Some (Cp_als.decompose_op ~rank:r (Op_tensor.Dense m_tensor)))
      in
      let als_fit =
        match !als_result with
        | Some (k, _) -> Kruskal.fit k m_tensor
        | None -> nan
      in
      let rand_result = ref None in
      let rand_s = Measure.time (fun () ->
          rand_result := Some (Cp_rand.decompose ~rank:r m_tensor))
      in
      let rand_fit =
        match !rand_result with
        | Some (k, _) -> Kruskal.fit k m_tensor
        | None -> nan
      in
      (* "HOPM" row: repeated best-rank-1 of the original tensor without
         deflation is meaningless for r > 1, so we report its rank-1 quality
         replicated — the honest comparison at r = 1 — and deflation for the
         full rank-r story. *)
      let hopm_result = ref None in
      let hopm_s = Measure.time (fun () -> hopm_result := Some (Hopm.rank1 m_tensor)) in
      let hopm_fit =
        match !hopm_result with
        | Some res ->
          let k =
            { Kruskal.weights = [| res.Hopm.sigma |];
              factors =
                Array.map (fun v -> Mat.of_cols [| v |]) res.Hopm.vectors }
          in
          Kruskal.fit k m_tensor
        | None -> nan
      in
      let power_result = ref None in
      let power_s = Measure.time (fun () ->
          power_result := Some (Tensor_power.decompose ~rank:r m_tensor))
      in
      let power_fit =
        match !power_result with Some k -> Kruskal.fit k m_tensor | None -> nan
      in
      Tableau.add_row t (string_of_int r)
        [ als_fit; als_s; rand_fit; rand_s; hopm_fit; hopm_s; power_fit; power_s ])
    rs;
  Tableau.render t

let confounder_sweep ~base ~strengths ~r ~seeds =
  let t = Tableau.create ~title:"Pairwise-confounder ablation (test accuracy %)"
      ~columns:[ "confounder strength"; "TCCA"; "CCA-LS"; "TCCA - CCA-LS" ]
  in
  Array.iter
    (fun strength ->
      let config = { base with Synth.confounder_strength = strength } in
      let world = Synth.make_world ~seed:77 config in
      let protocol = Linear_protocol.default_config world in
      let mean_acc meth =
        let accs =
          Array.init seeds (fun seed ->
              (Linear_protocol.run protocol meth ~r ~seed).Linear_protocol.test_acc)
        in
        Stats.mean accs *. 100.
      in
      let tcca = mean_acc Spec.Tcca and ccals = mean_acc Spec.Cca_ls in
      Tableau.add_row t (Printf.sprintf "%.2f" strength) [ tcca; ccals; tcca -. ccals ])
    strengths;
  Tableau.render t

let eps_sweep ~world ~epsilons ~r ~seeds =
  let t = Tableau.create ~title:"Regularization (eps) ablation — TCCA test accuracy %"
      ~columns:[ "eps"; "accuracy" ]
  in
  Array.iter
    (fun eps ->
      let protocol = { (Linear_protocol.default_config world) with Linear_protocol.eps } in
      let accs =
        Array.init seeds (fun seed ->
            (Linear_protocol.run protocol Spec.Tcca ~r ~seed).Linear_protocol.test_acc)
      in
      Tableau.add_row t (Printf.sprintf "%g" eps) [ Stats.mean accs *. 100. ])
    epsilons;
  Tableau.render t
