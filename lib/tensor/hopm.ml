type result = {
  sigma : float;
  vectors : Vec.t array;
  iterations : int;
  converged : bool;
}

(* X ×_{q≠k} u_qᵀ: contract every mode but k, yielding a vector of length
   dims.(k).  Contract from the highest mode down so indices stay valid. *)
let contract_all_but (x : Tensor.t) us k =
  let m = Tensor.order x in
  let t = ref x in
  (* Contract modes m-1 … k+1 first (their positions are unchanged), then
     modes k-1 … 0 (each contraction removes one mode before k, so the
     running position of mode q < k is just q). *)
  for q = m - 1 downto k + 1 do
    t := Tensor.contract_vec !t q us.(q)
  done;
  for q = k - 1 downto 0 do
    t := Tensor.contract_vec !t q us.(q)
  done;
  (!t).Tensor.data

let init_vectors x =
  let m = Tensor.order x in
  Array.init m (fun k ->
      let unfolding = Unfold.unfold x k in
      let gram = Mat.gram unfolding in
      let eig = Eigen.decompose gram in
      Mat.col eig.Eigen.vectors 0)

let rank1 ?(max_iter = 200) ?(tol = 1e-10) ?(seed = 7) x =
  let m = Tensor.order x in
  let us =
    if Tensor.frobenius x = 0. then begin
      let rng = Rng.create seed in
      Array.init m (fun k ->
          Vec.normalize (Array.init (Tensor.dim x k) (fun _ -> Rng.gaussian rng)))
    end
    else init_vectors x
  in
  let sigma = ref (Tensor.multilinear_form x us) in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    for k = 0 to m - 1 do
      let w = contract_all_but x us k in
      let n = Vec.norm w in
      if n > 0. then us.(k) <- Vec.scale (1. /. n) w
    done;
    let s = Tensor.multilinear_form x us in
    if Float.abs (s -. !sigma) <= tol *. Float.max 1. (Float.abs s) then
      converged := true;
    sigma := s
  done;
  { sigma = !sigma;
    vectors = us;
    iterations = !iterations;
    converged = !converged }
