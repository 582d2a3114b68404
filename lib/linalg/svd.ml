type t = { u : Mat.t; sigma : Vec.t; v : Mat.t }

type info = { sweeps : int; residual : float; converged : bool }

(* Worst normalized off-orthogonality max |⟨wp,wq⟩|/(‖wp‖‖wq‖) — measured
   only on the failure path (cap hit), so the happy path pays nothing. *)
let max_pair_cos w =
  let m, n = Mat.dims w in
  let worst = ref 0. in
  for p = 0 to n - 2 do
    for q = p + 1 to n - 1 do
      let alpha = ref 0. and beta = ref 0. and gamma = ref 0. in
      for i = 0 to m - 1 do
        let wp = Mat.get w i p and wq = Mat.get w i q in
        alpha := !alpha +. (wp *. wp);
        beta := !beta +. (wq *. wq);
        gamma := !gamma +. (wp *. wq)
      done;
      let denom = sqrt (!alpha *. !beta) in
      if denom > 0. then worst := Float.max !worst (Float.abs !gamma /. denom)
    done
  done;
  !worst

(* One-sided Jacobi on a tall matrix: rotate column pairs of [w] until all
   pairs are orthogonal, accumulating the rotations into [v].  Then
   σⱼ = ‖wⱼ‖ and uⱼ = wⱼ/σⱼ. *)
let one_sided_info ?(max_sweeps = 60) ?(eps = 1e-12) a =
  let m, n = Mat.dims a in
  let w = Mat.copy a in
  let v = Mat.identity n in
  let rotate = ref true in
  let sweep = ref 0 in
  while !rotate && !sweep < max_sweeps do
    rotate := false;
    incr sweep;
    for p = 0 to n - 2 do
      for q = p + 1 to n - 1 do
        (* Gram entries of the column pair. *)
        let alpha = ref 0. and beta = ref 0. and gamma = ref 0. in
        for i = 0 to m - 1 do
          let wp = Mat.get w i p and wq = Mat.get w i q in
          alpha := !alpha +. (wp *. wp);
          beta := !beta +. (wq *. wq);
          gamma := !gamma +. (wp *. wq)
        done;
        let limit = eps *. sqrt (!alpha *. !beta) in
        if Float.abs !gamma > limit && limit > 0. then begin
          rotate := true;
          let zeta = (!beta -. !alpha) /. (2. *. !gamma) in
          let t =
            let sign = if zeta >= 0. then 1. else -1. in
            sign /. (Float.abs zeta +. sqrt (1. +. (zeta *. zeta)))
          in
          let c = 1. /. sqrt (1. +. (t *. t)) in
          let s = c *. t in
          for i = 0 to m - 1 do
            let wp = Mat.get w i p and wq = Mat.get w i q in
            Mat.set w i p ((c *. wp) -. (s *. wq));
            Mat.set w i q ((s *. wp) +. (c *. wq))
          done;
          for i = 0 to n - 1 do
            let vp = Mat.get v i p and vq = Mat.get v i q in
            Mat.set v i p ((c *. vp) -. (s *. vq));
            Mat.set v i q ((s *. vp) +. (c *. vq))
          done
        end
      done
    done
  done;
  let sigma = Array.init n (fun j -> Vec.norm (Mat.col w j)) in
  let u = Mat.create m n in
  for j = 0 to n - 1 do
    let col = Mat.col w j in
    let s = sigma.(j) in
    if s > 0. then Mat.set_col u j (Vec.scale (1. /. s) col)
    else begin
      (* Zero singular value: any unit vector orthogonal works; keep e_j
         truncated to m for determinism. *)
      let e = Array.make m 0. in
      e.(j mod m) <- 1.;
      Mat.set_col u j e
    end
  done;
  (* Order descending. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare sigma.(j) sigma.(i)) order;
  ( { u = Mat.select_cols u order;
      sigma = Array.map (fun i -> sigma.(i)) order;
      v = Mat.select_cols v order },
    (* Converged iff the last completed sweep needed no rotation; hitting the
       cap with [rotate] still pending means some column pair is still not
       orthogonal to working precision. *)
    { sweeps = !sweep;
      residual = (if !rotate then max_pair_cos w else 0.);
      converged = not !rotate } )

type method_ = [ `Auto | `Jacobi | `Qr_eig ]

(* Below this aspect ratio the O(mn²) Jacobi rotations already dominate any
   QR savings, and Jacobi's pairwise orthogonalization is the more accurate
   of the two — only genuinely tall inputs take the QR + eig route. *)
let tall_ratio = 3

(* Tall path: thin QR, then the symmetric eigendecomposition of RᵀR (n × n,
   independent of m) gives V.  Recomputing σⱼ = ‖A vⱼ‖ instead of √λⱼ pulls
   the small singular values back from the squared-condition damage of the
   Gram product; U follows by normalizing the columns of AV. *)
let qr_eig_info ?max_sweeps ?eps a =
  let m, n = Mat.dims a in
  let r_mat = Qr.r (Qr.decompose a) in
  let eig, einfo = Eigen.decompose_info ?max_sweeps ?eps (Mat.tgram r_mat) in
  let w = Mat.mul a eig.Eigen.vectors in
  let sigma = Array.init n (fun j -> Vec.norm (Mat.col w j)) in
  let u = Mat.create m n in
  for j = 0 to n - 1 do
    let s = sigma.(j) in
    if s > 0. then Mat.set_col u j (Vec.scale (1. /. s) (Mat.col w j))
    else begin
      (* Same deterministic fallback as the Jacobi path. *)
      let e = Array.make m 0. in
      e.(j mod m) <- 1.;
      Mat.set_col u j e
    end
  done;
  (* The eigenvalues arrive descending already; re-sort on the recomputed
     σ so ties broken by the norm recovery stay ordered. *)
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> compare sigma.(j) sigma.(i)) order;
  ( { u = Mat.select_cols u order;
      sigma = Array.map (fun i -> sigma.(i)) order;
      v = Mat.select_cols eig.Eigen.vectors order },
    { sweeps = einfo.Eigen.sweeps;
      residual = einfo.Eigen.residual;
      converged = einfo.Eigen.converged } )

let decompose_info ?(method_ = `Auto) ?max_sweeps ?eps a =
  let take_qr_eig rows cols =
    match method_ with
    | `Jacobi -> false
    | `Qr_eig -> true
    | `Auto -> cols > 0 && rows >= tall_ratio * cols
  in
  let m, n = Mat.dims a in
  if m >= n then
    if take_qr_eig m n then qr_eig_info ?max_sweeps ?eps a
    else one_sided_info ?max_sweeps ?eps a
  else begin
    let at = Mat.transpose a in
    let { u; sigma; v }, info =
      if take_qr_eig n m then qr_eig_info ?max_sweeps ?eps at
      else one_sided_info ?max_sweeps ?eps at
    in
    ({ u = v; sigma; v = u }, info)
  end

let decompose ?method_ ?max_sweeps ?eps a =
  let svd, info = decompose_info ?method_ ?max_sweeps ?eps a in
  if not info.converged then
    Robust.warnf "Svd.decompose: sweep cap hit after %d sweeps" info.sweeps;
  svd

let truncated { u; sigma; v } r =
  if r > Array.length sigma then invalid_arg "Svd.truncated: r too large";
  (Mat.sub_cols u 0 r, Array.sub sigma 0 r, Mat.sub_cols v 0 r)
