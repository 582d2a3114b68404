let inv_sqrt_of_eig ?floor { Eigen.values; vectors } =
  let lmax = Float.max values.(0) 0. in
  let fl = match floor with Some f -> f | None -> 1e-12 *. Float.max lmax 1. in
  let n, k = Mat.dims vectors in
  let scaled =
    Mat.init n k (fun i j -> Mat.get vectors i j /. sqrt (Float.max values.(j) fl))
  in
  Mat.mul_nt scaled vectors

let inv_sqrt_psd ?floor a = inv_sqrt_of_eig ?floor (Eigen.decompose a)

let inv_sqrt_psd_checked ?floor ?(shift = 0.) ~stage a =
  match Eigen.decompose_checked ~stage a with
  | Error e -> Error e
  | Ok eig ->
    let w = inv_sqrt_of_eig ?floor eig in
    if not (Mat.all_finite w) then
      Error (Robust.Non_finite { stage; where = "inverse square root" })
    else begin
      (* Numerical rank of the un-shifted matrix (a − shift·I): with the
         ridge [shift] subtracted back out, null directions of the original
         covariance sit at ~0 and are not counted. *)
      let lmax = Float.max (eig.Eigen.values.(0) -. shift) 0. in
      let tol = 1e-9 *. lmax in
      let rank =
        Array.fold_left
          (fun acc l -> if l -. shift > tol then acc + 1 else acc)
          0 eig.Eigen.values
      in
      Ok (w, rank)
    end

let inv_psd ?floor a =
  let { Eigen.values; vectors } = Eigen.decompose a in
  let lmax = Float.max values.(0) 0. in
  let fl = match floor with Some f -> f | None -> 1e-12 *. Float.max lmax 1. in
  let n, k = Mat.dims vectors in
  let scaled = Mat.init n k (fun i j -> Mat.get vectors i j /. Float.max values.(j) fl) in
  Mat.mul_nt scaled vectors
