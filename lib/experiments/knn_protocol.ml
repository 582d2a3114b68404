type config = {
  world : Synth.world;
  n_train : int;
  n_test : int;
  per_class : int;
  val_fraction : float;
  eps : float;
  transductive_cap : int;
}

let default_config ?(per_class = 6) world =
  { world;
    n_train = 1200;
    n_test = 1200;
    per_class;
    val_fraction = 0.2;
    eps = 1e-2;
    transductive_cap = 2500 }

type result = { val_acc : float; test_acc : float; chosen_k : int }

type state = {
  config : config;
  train : Multiview.t;
  labeled_idx : int array;
  y_labeled : int array;
  test_val : Multiview.t;   (* validation slice of the test set *)
  test_eval : Multiview.t;  (* evaluation slice *)
  mutable tcca_raw : Tcca.raw option;
  tcca_prepared : (float, Tcca.prepared) Hashtbl.t; (* keyed by eps *)
  mutable dse_prepared : (int * Dse.prepared) option;
}

(* The paper tunes the regularization over {10^i} on validation for the
   image-annotation experiments; this is the grid shared by every
   CCA-family method here. *)
let eps_grid = [ 1e-3; 1e-2; 1e-1; 1.; 10. ]

let prepare config ~seed =
  let rng = Rng.create (0xA11CE + (seed * 7919)) in
  let train = Synth.sample config.world rng ~n:config.n_train in
  let test = Synth.sample config.world rng ~n:config.n_test in
  let labeled_idx, _ =
    Split.labeled_per_class rng train.Multiview.labels ~per_class:config.per_class
  in
  let all_test = Array.init config.n_test (fun i -> i) in
  let val_idx, eval_idx = Split.validation_carveout rng all_test config.val_fraction in
  { config;
    train;
    labeled_idx;
    y_labeled = Array.map (fun i -> train.Multiview.labels.(i)) labeled_idx;
    test_val = Multiview.select test val_idx;
    test_eval = Multiview.select test eval_idx;
    tcca_raw = None;
    tcca_prepared = Hashtbl.create 8;
    dse_prepared = None }

(* Choose k on validation, then report both accuracies at that k. *)
let eval_knn st ~train_z ~val_z ~eval_z =
  let pick k =
    let model = Knn.fit ~k train_z st.y_labeled in
    Eval.accuracy (Knn.predict model val_z) st.test_val.Multiview.labels
  in
  let k, val_acc = Validate.best pick Knn.default_k_candidates in
  let model = Knn.fit ~k train_z st.y_labeled in
  let test_acc = Eval.accuracy (Knn.predict model eval_z) st.test_eval.Multiview.labels in
  { val_acc; test_acc; chosen_k = k }

(* An embedder maps any views to the common subspace. *)
let eval_projective st project =
  let train_z = project (Multiview.views_of st.train st.labeled_idx) in
  let val_z = project st.test_val.Multiview.views in
  let eval_z = project st.test_eval.Multiview.views in
  eval_knn st ~train_z ~val_z ~eval_z

let best_by_val results =
  match results with
  | [] -> invalid_arg "Knn_protocol: no candidates"
  | first :: rest ->
    List.fold_left (fun best r -> if r.val_acc > best.val_acc then r else best) first rest

let run_bsf st =
  let m = Multiview.n_views st.train in
  best_by_val (List.init m (fun p -> eval_projective st (fun views -> Mat.copy views.(p))))

let view_scales views =
  Array.map
    (fun v ->
      let _, n = Mat.dims v in
      let total = ref 0. in
      for j = 0 to n - 1 do
        total := !total +. Vec.norm (Mat.col v j)
      done;
      let avg = !total /. float_of_int (max n 1) in
      if avg > 0. then 1. /. avg else 1.)
    views

let run_cat st =
  (* Per-view scales frozen on the training pool. *)
  let scales = view_scales st.train.Multiview.views in
  let project views =
    Mat.vcat_list (Array.to_list (Array.map2 (fun s v -> Mat.scale s v) scales views))
  in
  eval_projective st project

let cca_pair_project st ~eps ~r (p, q) =
  let model =
    Cca.fit ~eps ~r:(max 1 (r / 2)) st.train.Multiview.views.(p) st.train.Multiview.views.(q)
  in
  fun views -> Cca.transform_concat model views.(p) views.(q)

(* For one pair, pick eps on validation; return the winning projector's
   evaluation and its projector for reuse. *)
let cca_pair_best_eps st ~r pair =
  let candidates =
    List.map
      (fun eps ->
        let project = cca_pair_project st ~eps ~r pair in
        (eval_projective st project, project))
      eps_grid
  in
  List.fold_left
    (fun ((best, _) as acc) ((res, _) as cand) -> if res.val_acc > best.val_acc then cand else acc)
    (List.hd candidates) (List.tl candidates)

let run_cca_bst st ~r =
  let pairs = Spec.view_pairs (Multiview.n_views st.train) in
  best_by_val (List.map (fun pair -> fst (cca_pair_best_eps st ~r pair)) pairs)

(* CCA (AVG) under kNN: per-pair majority voting with summed vote matrices,
   k chosen per pair on validation, as the paper's "majority voting
   strategy". *)
let run_cca_avg st ~r =
  let pairs = Spec.view_pairs (Multiview.n_views st.train) in
  let vote_matrices =
    List.map
      (fun pair ->
        let _, project = cca_pair_best_eps st ~r pair in
        let train_z = project (Multiview.views_of st.train st.labeled_idx) in
        let val_z = project st.test_val.Multiview.views in
        let eval_z = project st.test_eval.Multiview.views in
        let pick k =
          let model = Knn.fit ~k train_z st.y_labeled in
          Eval.accuracy (Knn.predict model val_z) st.test_val.Multiview.labels
        in
        let k, _ = Validate.best pick Knn.default_k_candidates in
        let model = Knn.fit ~k train_z st.y_labeled in
        (Knn.votes model val_z, Knn.votes model eval_z, k))
      pairs
  in
  let sum side =
    match vote_matrices with
    | [] -> invalid_arg "Knn_protocol.run_cca_avg: no pairs"
    | first :: rest -> List.fold_left (fun acc v -> Mat.add acc (side v)) (side first) rest
  in
  let first3 (a, _, _) = a and second3 (_, b, _) = b in
  let val_votes = sum first3 and eval_votes = sum second3 in
  { val_acc = Eval.accuracy (Knn.predict_votes val_votes) st.test_val.Multiview.labels;
    test_acc = Eval.accuracy (Knn.predict_votes eval_votes) st.test_eval.Multiview.labels;
    chosen_k = (match vote_matrices with (_, _, k) :: _ -> k | [] -> 1) }

let run_cca_ls st ~r =
  let m = Multiview.n_views st.train in
  best_by_val
    (List.map
       (fun eps ->
         let model = Cca_ls.fit ~eps ~r:(max 1 (r / m)) st.train.Multiview.views in
         eval_projective st (Cca_ls.transform model))
       eps_grid)

let run_tcca st ~r =
  let m = Multiview.n_views st.train in
  let raw =
    match st.tcca_raw with
    | Some raw -> raw
    | None ->
      let raw = Tcca.prepare_raw st.train.Multiview.views in
      st.tcca_raw <- Some raw;
      raw
  in
  let prepared_for eps =
    match Hashtbl.find_opt st.tcca_prepared eps with
    | Some p -> p
    | None ->
      let p = Tcca.prepare_of_raw ~eps raw in
      Hashtbl.replace st.tcca_prepared eps p;
      p
  in
  best_by_val
    (List.map
       (fun eps ->
         let model = Tcca.fit_prepared ~r:(max 1 (r / m)) (prepared_for eps) in
         eval_projective st (Tcca.transform model))
       eps_grid)

(* Transductive: embed labeled ∪ validation ∪ evaluation instances jointly,
   then run kNN inside the embedding. *)
let run_transductive st ~r fit_transform =
  let labeled_views = Multiview.views_of st.train st.labeled_idx in
  let nl = Array.length st.labeled_idx in
  let nv = Multiview.n_instances st.test_val in
  let ne = Multiview.n_instances st.test_eval in
  let budget = st.config.transductive_cap - nl - nv in
  let ne_kept = max 0 (min ne budget) in
  let eval_views =
    Array.map (fun v -> Mat.sub_cols v 0 ne_kept) st.test_eval.Multiview.views
  in
  let joint =
    Array.init (Array.length labeled_views) (fun p ->
        Mat.hcat_list [ labeled_views.(p); st.test_val.Multiview.views.(p); eval_views.(p) ])
  in
  let z = fit_transform ~r joint in
  let slice off n = Mat.select_cols z (Array.init n (fun i -> off + i)) in
  let train_z = slice 0 nl in
  let val_z = slice nl nv in
  let eval_z = slice (nl + nv) ne_kept in
  let pick k =
    let model = Knn.fit ~k train_z st.y_labeled in
    Eval.accuracy (Knn.predict model val_z) st.test_val.Multiview.labels
  in
  let k, val_acc = Validate.best pick Knn.default_k_candidates in
  let model = Knn.fit ~k train_z st.y_labeled in
  let y_eval = Array.sub st.test_eval.Multiview.labels 0 ne_kept in
  { val_acc;
    test_acc = Eval.accuracy (Knn.predict model eval_z) y_eval;
    chosen_k = k }

let run_prepared st meth ~r =
  match (meth : Spec.linear_method) with
  | Spec.Bsf -> run_bsf st
  | Spec.Cat -> run_cat st
  | Spec.Cca_bst -> run_cca_bst st ~r
  | Spec.Cca_avg -> run_cca_avg st ~r
  | Spec.Cca_ls -> run_cca_ls st ~r
  | Spec.Tcca -> run_tcca st ~r
  | Spec.Dse ->
    run_transductive st ~r (fun ~r views ->
        let prepared =
          match st.dse_prepared with
          | Some (cap, p) when r <= cap -> p
          | _ ->
            let cap = max r 96 in
            let p = Dse.prepare ~max_r:cap views in
            st.dse_prepared <- Some (cap, p);
            p
        in
        Dse.transform_prepared prepared ~r)
  | Spec.Ssmvd -> run_transductive st ~r (fun ~r views -> Ssmvd.fit_transform ~r views)
