type t = { g : Mat.t } (* lower triangular, A = G Gᵀ *)

exception Not_positive_definite of { pivot : int; value : float }

let decompose a =
  let n, m = Mat.dims a in
  if n <> m then invalid_arg "Cholesky.decompose: not square";
  let g = Mat.create n n in
  for i = 0 to n - 1 do
    for j = 0 to i do
      let acc = ref (Mat.get a i j) in
      for k = 0 to j - 1 do
        acc := !acc -. (Mat.get g i k *. Mat.get g j k)
      done;
      if i = j then begin
        (* NaN pivots must fail too: [!acc <= 0.] alone is false for NaN. *)
        if not (!acc > 0.) then raise (Not_positive_definite { pivot = i; value = !acc });
        Mat.set g i i (sqrt !acc)
      end
      else Mat.set g i j (!acc /. Mat.get g j j)
    done
  done;
  { g }

let decompose_checked ?(stage = "cholesky") a =
  if not (Mat.all_finite a) then Error (Robust.Non_finite { stage; where = "input matrix" })
  else
    match decompose a with
    | f -> Ok f
    | exception Not_positive_definite { pivot; value } ->
      Error (Robust.Not_positive_definite { stage; pivot; value; jitter_tried = 0. })

let decompose_jittered ?(stage = "cholesky") ?(attempts = 4) ?jitter0 a =
  let n, _ = Mat.dims a in
  (* Default first jitter: tied to the diagonal scale so it perturbs the
     spectrum by roughly machine-roundoff of the matrix itself. *)
  let scale =
    let acc = ref 0. in
    for i = 0 to n - 1 do
      acc := Float.max !acc (Float.abs (Mat.get a i i))
    done;
    Float.max !acc 1.
  in
  let jitter0 = match jitter0 with Some j -> j | None -> 1e-12 *. scale in
  (* Attempt 0 is the plain factorization; attempt k ≥ 1 adds
     jitter0·100^(k−1) to the diagonal.  [attempts] counts the jittered
     retries, so the geometric ladder spans 10^(2·attempts) before giving
     up — enough to absorb roundoff-scale indefiniteness while still
     surfacing genuinely indefinite inputs quickly. *)
  let rec attempt k jitter =
    let target = if k = 0 then a else Mat.add_scaled_identity jitter a in
    match decompose_checked ~stage target with
    | Ok f ->
      if k > 0 then
        Robust.warnf "%s: recovered with diagonal jitter %g after %d failed attempt%s" stage
          jitter k
          (if k = 1 then "" else "s");
      Ok (f, if k = 0 then 0. else jitter)
    | Error (Robust.Not_positive_definite npd) when k < attempts ->
      Robust.warnf "%s: pivot %d = %g not positive%s — retrying with more jitter" stage
        npd.pivot npd.value
        (if k = 0 then "" else Printf.sprintf " at jitter %g" jitter);
      attempt (k + 1) (if k = 0 then jitter else jitter *. 100.)
    | Error (Robust.Not_positive_definite npd) ->
      Error
        (Robust.Not_positive_definite
           { npd with jitter_tried = (if k = 0 then 0. else jitter) })
    | Error e -> Error e (* non-finite input: jitter cannot fix it *)
  in
  attempt 0 jitter0

let lower { g } = Mat.copy g

let forward g b =
  let n, _ = Mat.dims g in
  let y = Array.make n 0. in
  for i = 0 to n - 1 do
    let acc = ref b.(i) in
    for k = 0 to i - 1 do
      acc := !acc -. (Mat.get g i k *. y.(k))
    done;
    y.(i) <- !acc /. Mat.get g i i
  done;
  y

let backward g y =
  (* solves Gᵀ x = y *)
  let n, _ = Mat.dims g in
  let x = Array.make n 0. in
  for i = n - 1 downto 0 do
    let acc = ref y.(i) in
    for k = i + 1 to n - 1 do
      acc := !acc -. (Mat.get g k i *. x.(k))
    done;
    x.(i) <- !acc /. Mat.get g i i
  done;
  x

let solve_vec { g } b =
  let n, _ = Mat.dims g in
  if Array.length b <> n then invalid_arg "Cholesky.solve_vec: dimension mismatch";
  backward g (forward g b)

let solve f b =
  let _, ncols = Mat.dims b in
  let n, _ = Mat.dims f.g in
  let x = Mat.create n ncols in
  for j = 0 to ncols - 1 do
    Mat.set_col x j (solve_vec f (Mat.col b j))
  done;
  x

let solve_lower_vec { g } b = forward g b

let solve_lower_transpose f b =
  let _, ncols = Mat.dims b in
  let n, _ = Mat.dims f.g in
  let x = Mat.create n ncols in
  for j = 0 to ncols - 1 do
    Mat.set_col x j (backward f.g (Mat.col b j))
  done;
  x

let inverse_lower f =
  let n, _ = Mat.dims f.g in
  let inv = Mat.create n n in
  for j = 0 to n - 1 do
    let e = Array.make n 0. in
    e.(j) <- 1.;
    Mat.set_col inv j (forward f.g e)
  done;
  inv

let solve_system a b = solve (decompose a) b
