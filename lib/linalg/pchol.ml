type oracle = {
  o_dim : int;
  o_diag : unit -> float array;
  o_column : int -> float array;
}

let oracle_of_mat k =
  let n, m = Mat.dims k in
  if n <> m then invalid_arg "Pchol.oracle_of_mat: not square";
  { o_dim = n;
    o_diag = (fun () -> Mat.diag k);
    o_column = (fun j -> Mat.col k j) }

type info = {
  rank : int;
  trace_initial : float;
  trace_residual : float;
  pivots : int array;
}

let all_finite_arr a =
  let ok = ref true in
  for i = 0 to Array.length a - 1 do
    if not (Float.is_finite a.(i)) then ok := false
  done;
  !ok

(* Largest residual diagonal entry, ties to the lowest index.  Strict [>]
   keeps the scan deterministic; NaN never wins (comparisons are false). *)
let argmax d =
  let best = ref 0 in
  for i = 1 to Array.length d - 1 do
    if d.(i) > d.(!best) then best := i
  done;
  !best

let residual_trace d =
  let acc = ref 0. in
  for i = 0 to Array.length d - 1 do
    if d.(i) > 0. then acc := !acc +. d.(i)
  done;
  !acc

let decompose ?rank ?(tol = 1e-6) o =
  let n = o.o_dim in
  if n < 1 then invalid_arg "Pchol.decompose: empty oracle";
  let cap_rank =
    match rank with
    | None -> n
    | Some r ->
      if r < 1 then invalid_arg "Pchol.decompose: rank must be >= 1";
      min r n
  in
  let stage = "pchol" in
  let d = o.o_diag () in
  if Array.length d <> n then invalid_arg "Pchol.decompose: diagonal length mismatch";
  if not (all_finite_arr d) then
    Error (Robust.Non_finite { stage; where = "kernel diagonal" })
  else begin
    let dmax0 = Array.fold_left Float.max 0. d in
    let neg_tol = 1e-12 *. Float.max dmax0 1. in
    let bad_neg = ref (-1) in
    Array.iteri (fun i v -> if v < -.neg_tol && !bad_neg < 0 then bad_neg := i) d;
    if !bad_neg >= 0 then
      Error
        (Robust.Not_positive_definite
           { stage; pivot = !bad_neg; value = d.(!bad_neg); jitter_tried = 0. })
    else begin
      let trace0 = residual_trace d in
      if trace0 <= 0. then
        Error
          (Robust.Not_positive_definite
             { stage; pivot = argmax d; value = dmax0; jitter_tried = 0. })
      else begin
        (* Rows of F packed at stride [cap]; capacity doubles as the achieved
           rank grows, so an un-capped call never allocates N×N up front. *)
        let cap = ref (max 1 (min cap_rank 64)) in
        let f = ref (Array.make (n * !cap) 0.) in
        let grow () =
          let cap' = min cap_rank (2 * !cap) in
          let f' = Array.make (n * cap') 0. in
          for i = 0 to n - 1 do
            Array.blit !f (i * !cap) f' (i * cap') !cap
          done;
          cap := cap';
          f := f'
        in
        let pivots = Array.make cap_rank 0 in
        let failure = ref None in
        let steps = ref 0 in
        let finished = ref false in
        while (not !finished) && !failure = None && !steps < cap_rank do
          if residual_trace d <= tol *. trace0 then finished := true
          else begin
            let j = argmax d in
            let dmax = d.(j) in
            if dmax <= 0. then finished := true
            else begin
              let s = !steps in
              if s >= !cap then grow ();
              let col = o.o_column j in
              if Array.length col <> n then
                invalid_arg "Pchol.decompose: column length mismatch";
              if not (all_finite_arr col) then
                failure :=
                  Some
                    (Robust.Non_finite
                       { stage; where = Printf.sprintf "kernel column %d" j })
              else begin
                let fd = !f and c = !cap in
                let piv_row = Array.sub fd (j * c) s in
                let inv_sqrt = 1. /. sqrt dmax in
                (* Row ownership: each i writes only F[i,s] and d[i], and the
                   projection sum runs in ascending step order — bitwise
                   identical at any pool size. *)
                Parallel.parallel_for ~cost:(n * (s + 2)) ~n (fun lo hi ->
                    for i = lo to hi - 1 do
                      let base = i * c in
                      let acc = ref (Array.unsafe_get col i) in
                      for t = 0 to s - 1 do
                        acc :=
                          !acc
                          -. (Array.unsafe_get fd (base + t)
                             *. Array.unsafe_get piv_row t)
                      done;
                      let v = !acc *. inv_sqrt in
                      Array.unsafe_set fd (base + s) v;
                      d.(i) <- d.(i) -. (v *. v)
                    done);
                (* The pivot's own residual is exactly zero; pin it so roundoff
                   can never re-select it. *)
                d.(j) <- 0.;
                pivots.(s) <- j;
                incr steps
              end
            end
          end
        done;
        match !failure with
        | Some e -> Error e
        | None ->
          let ell = !steps in
          if ell = 0 then
            Error
              (Robust.Not_positive_definite
                 { stage; pivot = argmax d; value = dmax0; jitter_tried = 0. })
          else begin
            let fd = !f and c = !cap in
            (* F's rows sit at stride [cap]: the buffer is F itself when the
               achieved rank fills it, else its rows are copied out. *)
            let factor =
              if ell = c then Mat.unsafe_of_flat ~rows:n ~cols:ell fd
              else begin
                let packed = Array.make (n * ell) 0. in
                for i = 0 to n - 1 do
                  Array.blit fd (i * c) packed (i * ell) ell
                done;
                Mat.unsafe_of_flat ~rows:n ~cols:ell packed
              end
            in
            Ok
              ( factor,
                { rank = ell;
                  trace_initial = trace0;
                  trace_residual = residual_trace d;
                  pivots = Array.sub pivots 0 ell } )
          end
      end
    end
  end
