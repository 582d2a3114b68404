let decompose ?max_iter ?tol ~rank x =
  if rank < 1 then invalid_arg "Tensor_power.decompose: rank must be >= 1";
  let m = Tensor.order x in
  let residual = Tensor.copy x in
  let weights = Array.make rank 0. in
  let dims = Array.init m (Tensor.dim x) in
  let factors = Array.map (fun d -> Mat.make d rank 0.) dims in
  for c = 0 to rank - 1 do
    let res = Hopm.rank1 ?max_iter ?tol ~seed:(c + 1) residual in
    weights.(c) <- res.Hopm.sigma;
    Array.iteri (fun k u -> Mat.set_col factors.(k) c u) res.Hopm.vectors;
    Tensor.add_outer_in_place residual (-.res.Hopm.sigma) res.Hopm.vectors
  done;
  { Kruskal.weights; factors }
