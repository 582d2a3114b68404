(* Householder QR: the factored form keeps the reflectors in the lower part of
   [a] plus the [beta] coefficients, in the classic LAPACK layout. *)

type t = { a : Mat.t; beta : float array; m : int; n : int }

let decompose a0 =
  let m, n = Mat.dims a0 in
  if m < n then invalid_arg "Qr.decompose: requires rows >= cols";
  let a = Mat.copy a0 in
  let beta = Array.make n 0. in
  for k = 0 to n - 1 do
    (* Householder vector for column k, rows k..m-1. *)
    let norm = ref 0. in
    for i = k to m - 1 do
      let v = Mat.get a i k in
      norm := !norm +. (v *. v)
    done;
    let norm = sqrt !norm in
    if norm > 0. then begin
      let akk = Mat.get a k k in
      let alpha = if akk >= 0. then -.norm else norm in
      let v0 = akk -. alpha in
      (* v = (v0, a_{k+1..m-1,k}); beta = 2 / vᵀv, stored normalized by v0 so
         the implicit leading entry is 1. *)
      let vtv = ref (v0 *. v0) in
      for i = k + 1 to m - 1 do
        let v = Mat.get a i k in
        vtv := !vtv +. (v *. v)
      done;
      if !vtv > 0. && v0 <> 0. then begin
        for i = k + 1 to m - 1 do
          Mat.set a i k (Mat.get a i k /. v0)
        done;
        beta.(k) <- 2. *. v0 *. v0 /. !vtv;
        Mat.set a k k alpha;
        (* Apply the reflector to the trailing columns. *)
        for j = k + 1 to n - 1 do
          let dot = ref (Mat.get a k j) in
          for i = k + 1 to m - 1 do
            dot := !dot +. (Mat.get a i k *. Mat.get a i j)
          done;
          let s = beta.(k) *. !dot in
          Mat.set a k j (Mat.get a k j -. s);
          for i = k + 1 to m - 1 do
            Mat.set a i j (Mat.get a i j -. (s *. Mat.get a i k))
          done
        done
      end
    end
  done;
  { a; beta; m; n }

(* Apply Q to a length-m vector in place (reflectors in reverse order). *)
let apply_q { a; beta; m; n } x =
  for k = n - 1 downto 0 do
    if beta.(k) <> 0. then begin
      let dot = ref x.(k) in
      for i = k + 1 to m - 1 do
        dot := !dot +. (Mat.get a i k *. x.(i))
      done;
      let s = beta.(k) *. !dot in
      x.(k) <- x.(k) -. s;
      for i = k + 1 to m - 1 do
        x.(i) <- x.(i) -. (s *. Mat.get a i k)
      done
    end
  done

let q_thin f =
  let q = Mat.create f.m f.n in
  for j = 0 to f.n - 1 do
    let e = Array.make f.m 0. in
    e.(j) <- 1.;
    apply_q f e;
    Mat.set_col q j e
  done;
  q

let r f = Mat.init f.n f.n (fun i j -> if j >= i then Mat.get f.a i j else 0.)
