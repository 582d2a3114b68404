type config = {
  world : Synth.world;
  n_subset : int;
  per_class : int;
  val_fraction : float;
  eps : float;
  bow_view : int;
}

let default_config ?(per_class = 6) ?(n_subset = 500) world =
  { world; n_subset; per_class; val_fraction = 0.2; eps = 1e-1; bow_view = 0 }

type result = { val_acc : float; test_acc : float; chosen_k : int }

let build_kernels config data =
  Array.mapi
    (fun p view ->
      let dist = if p = config.bow_view then Distance.Chi2 else Distance.L2 in
      Kernel.gram (Kernel.fit (Kernel.Exp_distance dist) view))
    data.Multiview.views

(* The paper optimizes the kernel regularization over {10^i} on validation;
   a short grid keeps the N^3 tensor work tractable (1e-2 and below never won
   validation in calibration runs). *)
let eps_grid = [ 1e-1; 1. ]

(* The S tensor is mostly estimation noise at these subset sizes: a tightly
   capped ALS reaches its plateau fit in well under 30 sweeps. *)
let ktcca_solver = Tcca.Als { Cp_als.default_options with max_iter = 30; tol = 1e-4 }

type state = {
  config : config;
  data : Multiview.t;
  kernels : Mat.t array;
  mutable ktcca_raw : Ktcca.raw option;
  ktcca_prepared : (float, Ktcca.prepared) Hashtbl.t;
  labeled_idx : int array;
  val_idx : int array;
  eval_idx : int array;
  y_labeled : int array;
  y_val : int array;
  y_eval : int array;
}

let prepare config ~seed =
  let rng = Rng.create (0xBEEF5 + (seed * 6007)) in
  (* Balanced subset so every concept has enough instances for the labeled
     draw even at small N (the paper's 500-sample subset spans all 10
     concepts). *)
  let n_classes = (Synth.config_of config.world).Synth.n_classes in
  let data =
    Synth.sample_balanced config.world rng ~per_class:(max 1 (config.n_subset / n_classes))
  in
  let labeled_idx, rest =
    Split.labeled_per_class rng data.Multiview.labels ~per_class:config.per_class
  in
  let val_idx, eval_idx = Split.validation_carveout rng rest config.val_fraction in
  let label_of = Array.map (fun i -> data.Multiview.labels.(i)) in
  { config;
    data;
    kernels = build_kernels config data;
    ktcca_raw = None;
    ktcca_prepared = Hashtbl.create 4;
    labeled_idx;
    val_idx;
    eval_idx;
    y_labeled = label_of labeled_idx;
    y_val = label_of val_idx;
    y_eval = label_of eval_idx }

(* kNN from a kernel: d²(i,j) = k(i,i) + k(j,j) − 2k(i,j). *)
let kernel_distances k rows cols =
  Mat.init (Array.length rows) (Array.length cols) (fun a b ->
      let i = rows.(a) and j = cols.(b) in
      Float.max 0. (Mat.get k i i +. Mat.get k j j -. (2. *. Mat.get k i j)))

let eval_from_distances st ~dist_val ~dist_eval =
  let n_classes = Multiview.n_classes st.data in
  let pick k =
    let votes = Knn.votes_of_distances ~k ~n_classes st.y_labeled dist_val in
    Eval.accuracy (Knn.predict_votes votes) st.y_val
  in
  let k, val_acc = Validate.best pick Knn.default_k_candidates in
  let votes = Knn.votes_of_distances ~k ~n_classes st.y_labeled dist_eval in
  { val_acc;
    test_acc = Eval.accuracy (Knn.predict_votes votes) st.y_eval;
    chosen_k = k }

let eval_kernel_direct st k =
  eval_from_distances st
    ~dist_val:(kernel_distances k st.labeled_idx st.val_idx)
    ~dist_eval:(kernel_distances k st.labeled_idx st.eval_idx)

let best_by_val results =
  match results with
  | [] -> invalid_arg "Kernel_protocol: no candidates"
  | first :: rest ->
    List.fold_left (fun best r -> if r.val_acc > best.val_acc then r else best) first rest

let run_bsk st = best_by_val (Array.to_list (Array.map (eval_kernel_direct st) st.kernels))

let run_kavg st =
  let normalized = Array.map Kernel.normalize_unit_diag st.kernels in
  eval_kernel_direct st (Kernel.average (Array.to_list normalized))

(* Embedding-based evaluation: Euclidean kNN inside the learned subspace. *)
let eval_embedding st z =
  let train_z = Mat.select_cols z st.labeled_idx in
  let val_z = Mat.select_cols z st.val_idx in
  let eval_z = Mat.select_cols z st.eval_idx in
  let pick k =
    let model = Knn.fit ~k train_z st.y_labeled in
    Eval.accuracy (Knn.predict model val_z) st.y_val
  in
  let k, val_acc = Validate.best pick Knn.default_k_candidates in
  let model = Knn.fit ~k train_z st.y_labeled in
  { val_acc;
    test_acc = Eval.accuracy (Knn.predict model eval_z) st.y_eval;
    chosen_k = k }

let kcca_embedding st ~eps ~r (p, q) =
  let model = Kcca.fit ~eps ~r:(max 1 (r / 2)) st.kernels.(p) st.kernels.(q) in
  Kcca.transform_train model

(* Per pair: choose eps on validation; return evaluation + embedding. *)
let kcca_pair_best_eps st ~r pair =
  let candidates =
    List.map
      (fun eps ->
        let z = kcca_embedding st ~eps ~r pair in
        (eval_embedding st z, z))
      eps_grid
  in
  List.fold_left
    (fun ((best, _) as acc) ((res, _) as cand) -> if res.val_acc > best.val_acc then cand else acc)
    (List.hd candidates) (List.tl candidates)

let run_kcca_bst st ~r =
  let pairs = Spec.view_pairs (Array.length st.kernels) in
  best_by_val (List.map (fun pair -> fst (kcca_pair_best_eps st ~r pair)) pairs)

let run_kcca_avg st ~r =
  let pairs = Spec.view_pairs (Array.length st.kernels) in
  let votes =
    List.map
      (fun pair ->
        let _, z = kcca_pair_best_eps st ~r pair in
        let train_z = Mat.select_cols z st.labeled_idx in
        let val_z = Mat.select_cols z st.val_idx in
        let eval_z = Mat.select_cols z st.eval_idx in
        let pick k =
          let model = Knn.fit ~k train_z st.y_labeled in
          Eval.accuracy (Knn.predict model val_z) st.y_val
        in
        let k, _ = Validate.best pick Knn.default_k_candidates in
        let model = Knn.fit ~k train_z st.y_labeled in
        (Knn.votes model val_z, Knn.votes model eval_z, k))
      pairs
  in
  let sum side =
    match votes with
    | [] -> invalid_arg "Kernel_protocol.run_kcca_avg: no pairs"
    | first :: rest -> List.fold_left (fun acc v -> Mat.add acc (side v)) (side first) rest
  in
  let first3 (a, _, _) = a and second3 (_, b, _) = b in
  { val_acc = Eval.accuracy (Knn.predict_votes (sum first3)) st.y_val;
    test_acc = Eval.accuracy (Knn.predict_votes (sum second3)) st.y_eval;
    chosen_k = (match votes with (_, _, k) :: _ -> k | [] -> 1) }

let run_ktcca st ~r =
  let m = Array.length st.kernels in
  let raw =
    match st.ktcca_raw with
    | Some raw -> raw
    | None ->
      let raw = Ktcca.prepare_raw st.kernels in
      st.ktcca_raw <- Some raw;
      raw
  in
  let prepared_for eps =
    match Hashtbl.find_opt st.ktcca_prepared eps with
    | Some p -> p
    | None ->
      let p = Ktcca.prepare_of_raw ~eps raw in
      Hashtbl.replace st.ktcca_prepared eps p;
      p
  in
  best_by_val
    (List.map
       (fun eps ->
         let model = Ktcca.fit_prepared ~solver:ktcca_solver ~r:(max 1 (r / m)) (prepared_for eps) in
         eval_embedding st (Ktcca.transform_train model))
       eps_grid)

let run_prepared st meth ~r =
  match (meth : Spec.kernel_method) with
  | Spec.Bsk -> run_bsk st
  | Spec.Kavg -> run_kavg st
  | Spec.Kcca_bst -> run_kcca_bst st ~r
  | Spec.Kcca_avg -> run_kcca_avg st ~r
  | Spec.Ktcca -> run_ktcca st ~r
