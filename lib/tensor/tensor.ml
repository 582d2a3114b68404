type t = { dims : int array; strides : int array; data : float array }

let strides_of dims =
  let m = Array.length dims in
  let strides = Array.make m 1 in
  for k = m - 2 downto 0 do
    strides.(k) <- strides.(k + 1) * dims.(k + 1)
  done;
  strides

let size_of dims = Array.fold_left ( * ) 1 dims

let check_dims dims =
  if Array.length dims = 0 then invalid_arg "Tensor: order must be >= 1";
  Array.iter (fun d -> if d < 1 then invalid_arg "Tensor: dimensions must be >= 1") dims

let create dims =
  check_dims dims;
  { dims = Array.copy dims; strides = strides_of dims; data = Array.make (size_of dims) 0. }

let of_flat dims data =
  check_dims dims;
  if Array.length data <> size_of dims then invalid_arg "Tensor.of_flat: bad length";
  { dims = Array.copy dims; strides = strides_of dims; data = Array.copy data }

let copy t = { t with data = Array.copy t.data }

let order t = Array.length t.dims
let dim t k = t.dims.(k)
let size t = Array.length t.data

let offset t idx =
  let m = Array.length t.dims in
  if Array.length idx <> m then invalid_arg "Tensor: index arity mismatch";
  let off = ref 0 in
  for k = 0 to m - 1 do
    if idx.(k) < 0 || idx.(k) >= t.dims.(k) then invalid_arg "Tensor: index out of bounds";
    off := !off + (idx.(k) * t.strides.(k))
  done;
  !off

let get t idx = t.data.(offset t idx)
let set t idx v = t.data.(offset t idx) <- v

let init dims f =
  let t = create dims in
  let m = Array.length dims in
  let idx = Array.make m 0 in
  let n = size t in
  for flat = 0 to n - 1 do
    (* Decode the row-major flat offset into a multi-index. *)
    let rem = ref flat in
    for k = 0 to m - 1 do
      idx.(k) <- !rem / t.strides.(k);
      rem := !rem mod t.strides.(k)
    done;
    t.data.(flat) <- f idx
  done;
  t

let check_same_dims name a b =
  if a.dims <> b.dims then invalid_arg (name ^ ": shape mismatch")

let map2 f a b =
  check_same_dims "Tensor.map2" a b;
  { a with data = Array.init (size a) (fun k -> f a.data.(k) b.data.(k)) }

let add a b = map2 ( +. ) a b
let sub a b = map2 ( -. ) a b
let scale s a = { a with data = Array.map (fun v -> s *. v) a.data }

let scale_in_place s a =
  for k = 0 to size a - 1 do
    a.data.(k) <- s *. a.data.(k)
  done

let map f a = { a with data = Array.map f a.data }

(* Accumulate w · (x1 ∘ … ∘ xm) by recursing over modes; the innermost mode is
   a tight scalar-times-vector loop over contiguous memory. *)
let add_outer_in_place t w xs =
  let m = order t in
  if Array.length xs <> m then invalid_arg "Tensor.add_outer_in_place: arity mismatch";
  Array.iteri
    (fun k x ->
      if Array.length x <> t.dims.(k) then
        invalid_arg "Tensor.add_outer_in_place: dimension mismatch")
    xs;
  let rec go k base coeff =
    let x = xs.(k) in
    if k = m - 1 then
      for i = 0 to t.dims.(k) - 1 do
        t.data.(base + i) <- t.data.(base + i) +. (coeff *. Array.unsafe_get x i)
      done
    else begin
      let stride = t.strides.(k) in
      for i = 0 to t.dims.(k) - 1 do
        let xi = Array.unsafe_get x i in
        if xi <> 0. then go (k + 1) (base + (i * stride)) (coeff *. xi)
      done
    end
  in
  go 0 0 w

let outer xs =
  let dims = Array.map Array.length xs in
  let t = create dims in
  add_outer_in_place t 1. xs;
  t

let inner a b =
  check_same_dims "Tensor.inner" a b;
  let acc = ref 0. in
  for k = 0 to size a - 1 do
    acc := !acc +. (a.data.(k) *. b.data.(k))
  done;
  !acc

let frobenius a = sqrt (inner a a)
let all_finite a = Vec.all_finite a.data

(* a ×ₖ u : for every slice along mode k, replace the length-dims.(k) fiber by
   u times that fiber.  We iterate over all positions of the other modes via
   (outer, inner) offsets: outer = strides over modes < k, inner = modes > k. *)
let mode_product a k u =
  let m = order a in
  if k < 0 || k >= m then invalid_arg "Tensor.mode_product: bad mode";
  let j, dk = Mat.dims u in
  if dk <> a.dims.(k) then invalid_arg "Tensor.mode_product: dimension mismatch";
  let out_dims = Array.copy a.dims in
  out_dims.(k) <- j;
  let b = create out_dims in
  let stride_k = a.strides.(k) in
  let stride_k_out = b.strides.(k) in
  (* outer block count = product of dims before mode k;
     inner size = stride over mode k = product of dims after k. *)
  let outer_count = ref 1 in
  for q = 0 to k - 1 do
    outer_count := !outer_count * a.dims.(q)
  done;
  let inner_size = stride_k in
  let outer_stride_in = stride_k * a.dims.(k) in
  let outer_stride_out = stride_k_out * j in
  let ud = (u : Mat.t).Mat.data in
  for o = 0 to !outer_count - 1 do
    let base_in = o * outer_stride_in and base_out = o * outer_stride_out in
    for r = 0 to j - 1 do
      let urow = r * dk in
      let out_base = base_out + (r * stride_k_out) in
      if inner_size = 1 then begin
        (* The last mode: the fiber is contiguous, so each output cell is
           one dot product, accumulated in the same ascending order. *)
        let acc = ref 0. in
        for i = 0 to dk - 1 do
          let coeff = Array.unsafe_get ud (urow + i) in
          if coeff <> 0. then acc := !acc +. (coeff *. Array.unsafe_get a.data (base_in + i))
        done;
        Array.unsafe_set b.data out_base !acc
      end
      else
        for i = 0 to dk - 1 do
          let coeff = Array.unsafe_get ud (urow + i) in
          if coeff <> 0. then begin
            let in_base = base_in + (i * stride_k) in
            for l = 0 to inner_size - 1 do
              Array.unsafe_set b.data (out_base + l)
                (Array.unsafe_get b.data (out_base + l)
                +. (coeff *. Array.unsafe_get a.data (in_base + l)))
            done
          end
        done
    done
  done;
  b

let mode_products a us =
  if Array.length us <> order a then invalid_arg "Tensor.mode_products: arity mismatch";
  let t = ref a in
  Array.iteri (fun k u -> t := mode_product !t k u) us;
  !t

let contract_vec a k h =
  let m = order a in
  if m = 1 then invalid_arg "Tensor.contract_vec: order-1 tensor (use multilinear_form)";
  let row = Mat.unsafe_of_flat ~rows:1 ~cols:(Array.length h) (Array.copy h) in
  let b = mode_product a k row in
  (* Drop the singleton mode k. *)
  let out_dims = Array.of_list (List.filteri (fun q _ -> q <> k) (Array.to_list b.dims)) in
  { dims = out_dims; strides = strides_of out_dims; data = b.data }

let multilinear_form a hs =
  let m = order a in
  if Array.length hs <> m then invalid_arg "Tensor.multilinear_form: arity mismatch";
  (* Contract the last mode first: fibers there are contiguous. *)
  let rec go t k =
    if k = 0 then begin
      let h = hs.(0) in
      let acc = ref 0. in
      for i = 0 to Array.length h - 1 do
        acc := !acc +. (h.(i) *. t.data.(i))
      done;
      !acc
    end
    else go (contract_vec t k hs.(k)) (k - 1)
  in
  go a (m - 1)

let equal ?(eps = 1e-9) a b =
  a.dims = b.dims
  && begin
       let ok = ref true in
       for k = 0 to size a - 1 do
         if Float.abs (a.data.(k) -. b.data.(k)) > eps then ok := false
       done;
       !ok
     end
