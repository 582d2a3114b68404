type t = { weights : Vec.t; factors : Mat.t array }

let rank t = Array.length t.weights

let validate t =
  let r = rank t in
  if r = 0 then invalid_arg "Kruskal: empty decomposition";
  Array.iter
    (fun u -> if snd (Mat.dims u) <> r then invalid_arg "Kruskal: factor rank mismatch")
    t.factors

let component t k = Array.map (fun u -> Mat.col u k) t.factors

let to_tensor t =
  validate t;
  let dims = Array.map (fun u -> fst (Mat.dims u)) t.factors in
  let out = Tensor.create dims in
  for k = 0 to rank t - 1 do
    Tensor.add_outer_in_place out t.weights.(k) (component t k)
  done;
  out

let normalize t =
  validate t;
  let r = rank t in
  let weights = Array.copy t.weights in
  let factors =
    Array.map
      (fun u ->
        let u = Mat.copy u in
        for k = 0 to r - 1 do
          let col = Mat.col u k in
          let n = Vec.norm col in
          if n > 0. then begin
            Mat.set_col u k (Vec.scale (1. /. n) col);
            weights.(k) <- weights.(k) *. n
          end
        done;
        u)
      t.factors
  in
  (* Sort components by |weight| descending. *)
  let ordering = Array.init r (fun i -> i) in
  Array.sort (fun i j -> compare (Float.abs weights.(j)) (Float.abs weights.(i))) ordering;
  { weights = Array.map (fun i -> weights.(i)) ordering;
    factors = Array.map (fun u -> Mat.select_cols u ordering) factors }

let fit t x =
  validate t;
  (* ‖X − X̂‖² = ‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖², with
     ⟨X, X̂⟩ = Σ_k λₖ · X ×₁ u₁⁽ᵏ⁾ᵀ …   and
     ‖X̂‖²  = λᵀ (⊛_p UₚᵀUₚ) λ. *)
  let norm_x2 = Tensor.inner x x in
  let r = rank t in
  let cross = ref 0. in
  for k = 0 to r - 1 do
    cross := !cross +. (t.weights.(k) *. Tensor.multilinear_form x (component t k))
  done;
  let gram = ref (Mat.make r r 1.) in
  Array.iter (fun u -> gram := Mat.map2 ( *. ) !gram (Mat.tgram u)) t.factors;
  let norm_xhat2 = Vec.dot t.weights (Mat.mul_vec !gram t.weights) in
  let err2 = Float.max 0. (norm_x2 -. (2. *. !cross) +. norm_xhat2) in
  if norm_x2 = 0. then 0. else 1. -. sqrt (err2 /. norm_x2)
