type t = Linear | Exp_distance of Distance.t | Rbf of float

type fitted = {
  kind : t;
  train : Mat.t;
  lambda : float option;
  dist : Mat.t option;
      (* The fitted pairwise-distance matrix, kept from the bandwidth pass so
         [gram] never repeats it ([Exp_distance] with [precompute], the
         default).  [None] on the streaming path and for kernels whose [fit]
         needs no pairwise pass. *)
}

let fit ?(precompute = true) kind x =
  match kind with
  | Exp_distance d ->
    (* λ = maxᵢⱼ d(xᵢ,xⱼ); all-identical columns give λ = 0 — fall back to 1
       so the kernel is the constant-1 matrix rather than NaN.  Distances are
       non-negative, so the streaming max equals [max_entry] of the matrix. *)
    if precompute then begin
      let dm = Distance.pairwise d x in
      let lam = Distance.max_entry dm in
      { kind;
        train = Mat.copy x;
        lambda = Some (if lam > 0. then lam else 1.);
        dist = Some dm }
    end
    else begin
      let lam = Distance.max_pairwise d x in
      { kind; train = Mat.copy x; lambda = Some (if lam > 0. then lam else 1.); dist = None }
    end
  | Linear | Rbf _ -> { kind; train = Mat.copy x; lambda = None; dist = None }

let eval_matrix f dist_or_inner =
  match f.kind, f.lambda with
  | Linear, _ -> dist_or_inner
  | Exp_distance _, Some lam -> Mat.map (fun d -> exp (-.d /. lam)) dist_or_inner
  | Rbf gamma, _ -> Mat.map (fun d -> exp (-.gamma *. d)) dist_or_inner
  | Exp_distance _, None -> assert false

let cross f y =
  match f.kind with
  | Linear -> Mat.mul_tn f.train y
  | Exp_distance d -> eval_matrix f (Distance.cross d f.train y)
  | Rbf _ -> eval_matrix f (Distance.cross Distance.Sq_l2 f.train y)

let gram f =
  match f.kind with
  | Linear -> Mat.tgram f.train
  | Exp_distance d ->
    let dm = match f.dist with Some dm -> dm | None -> Distance.pairwise d f.train in
    eval_matrix f dm
  | Rbf _ -> eval_matrix f (Distance.pairwise Distance.Sq_l2 f.train)

let bandwidth f = f.lambda

(* Column/diagonal oracle — the Nyström entry point.  Nothing O(N²) is ever
   formed: a column costs one pass over the training instances.  A
   distance kernel's column is partitioned across the pool with per-entry
   ownership (each slot written once, by one chunk), so columns are
   bitwise identical at any pool size.  Each entry is [gram]'s: the same
   distance ([Distance.column_into] is bitwise [Distance.eval]) or inner
   product ([Mat.mul_tn] and [Mat.tgram] sum alike), then the same map to
   a kernel value, with the diagonal pinned at 1 for the distance
   kernels. *)
let oracle f =
  let d_feat, n = Mat.dims f.train in
  let cols = Array.init n (Mat.col f.train) in
  let column j =
    let distances dk to_kernel =
      let out = Array.make n 0. in
      Parallel.parallel_for ~cost:(n * d_feat) ~n (fun lo hi ->
          Distance.column_into dk cols cols.(j) out lo hi;
          to_kernel out lo hi);
      out.(j) <- 1.;
      out
    in
    match f.kind, f.lambda with
    | Linear, _ -> (Mat.mul_tn f.train (Mat.of_cols [| cols.(j) |])).Mat.data
    | Exp_distance dk, Some lam ->
      distances dk (fun out lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- exp (-.out.(i) /. lam)
          done)
    | Rbf gamma, _ ->
      distances Distance.Sq_l2 (fun out lo hi ->
          for i = lo to hi - 1 do
            out.(i) <- exp (-.gamma *. out.(i))
          done)
    | Exp_distance _, None -> assert false
  in
  { Pchol.o_dim = n;
    o_diag =
      (fun () ->
        match f.kind with
        | Linear -> Array.map (fun c -> Vec.dot c c) cols
        | Exp_distance _ | Rbf _ -> Array.make n 1.);
    o_column = column }

let center k =
  let n, m = Mat.dims k in
  if n <> m then invalid_arg "Kernel.center: not square";
  let row_means = Array.init n (fun i -> Vec.mean (Mat.row k i)) in
  let total = Vec.mean row_means in
  Mat.init n n (fun i j -> Mat.get k i j -. row_means.(i) -. row_means.(j) +. total)

let normalize_unit_diag k =
  let n, m = Mat.dims k in
  if n <> m then invalid_arg "Kernel.normalize_unit_diag: not square";
  let d = Array.init n (fun i -> sqrt (Float.max (Mat.get k i i) 1e-300)) in
  Mat.init n n (fun i j -> Mat.get k i j /. (d.(i) *. d.(j)))

let average = function
  | [] -> invalid_arg "Kernel.average: empty list"
  | k :: rest ->
    let sum = List.fold_left Mat.add k rest in
    Mat.scale (1. /. float_of_int (List.length rest + 1)) sum

let is_psd ?(eps = 1e-8) k =
  let eig = Eigen.decompose k in
  let lmax = Float.max (Float.abs eig.Eigen.values.(0)) 1. in
  Array.for_all (fun l -> l >= -.eps *. lmax) eig.Eigen.values
