type t = [ `None | `Lw | `Oas | `Fixed of float ]

let clip01 v = if v < 0. then 0. else if v > 1. then 1. else v

(* ‖C‖²_F and tr(C), shared by both estimators. *)
let frob2 c =
  let f = Mat.frobenius c in
  f *. f

let lw_intensity ~x c =
  let d, n = Mat.dims x in
  if fst (Mat.dims c) <> d then invalid_arg "Shrink.lw_intensity: dimension mismatch";
  if n = 0 then invalid_arg "Shrink.lw_intensity: no instances";
  let df = float_of_int d and nf = float_of_int n in
  let mu = Mat.trace c /. df in
  (* δ² = ‖C − μI‖²_F / d = (‖C‖²_F − d·μ²)/d. *)
  let c2 = frob2 c in
  let delta2 = Float.max 0. ((c2 -. (df *. mu *. mu)) /. df) in
  if delta2 <= 0. then 1.
  else begin
    (* Σₙ‖xₙ‖⁴ over instance columns. *)
    let quart = ref 0. in
    for j = 0 to n - 1 do
      let nrm2 = ref 0. in
      for i = 0 to d - 1 do
        let v = Mat.get x i j in
        nrm2 := !nrm2 +. (v *. v)
      done;
      quart := !quart +. (!nrm2 *. !nrm2)
    done;
    let beta2 = Float.max 0. ((!quart -. (nf *. c2)) /. (df *. nf *. nf)) in
    clip01 (Float.min beta2 delta2 /. delta2)
  end

let oas_intensity ~n c =
  let d, m = Mat.dims c in
  if d <> m then invalid_arg "Shrink.oas_intensity: not square";
  if n <= 0 then invalid_arg "Shrink.oas_intensity: no instances";
  let df = float_of_int d and nf = float_of_int n in
  let tr = Mat.trace c in
  let tr2 = frob2 c in
  let denom = (nf +. 1. -. (2. /. df)) *. (tr2 -. (tr *. tr /. df)) in
  if denom <= 0. then 1.
  else clip01 ((((1. -. (2. /. df)) *. tr2) +. (tr *. tr)) /. denom)

type applied = { cov : Mat.t; intensity : float; target : float }

let shrunk rho c =
  let d = fst (Mat.dims c) in
  let mu = Mat.trace c /. float_of_int d in
  if rho <= 0. then { cov = c; intensity = 0.; target = mu }
  else
    { cov = Mat.add_scaled_identity (rho *. mu) (Mat.scale (1. -. rho) c);
      intensity = rho;
      target = mu }

let apply ?x ~n mode c =
  match mode with
  | `None -> shrunk 0. c
  | `Fixed rho -> shrunk (clip01 rho) c
  | `Oas -> shrunk (oas_intensity ~n c) c
  | `Lw -> (
    match x with
    | Some x -> shrunk (lw_intensity ~x c) c
    | None ->
      Robust.warnf "Shrink.apply: `Lw needs the centered instances — falling back to `Oas";
      shrunk (oas_intensity ~n c) c)
