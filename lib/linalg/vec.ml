type t = float array

let create n = Array.make n 0.

let check_same_dim name x y =
  if Array.length x <> Array.length y then invalid_arg (name ^ ": dimension mismatch")

let map2 f x y =
  check_same_dim "Vec.map2" x y;
  Array.init (Array.length x) (fun i -> f x.(i) y.(i))

let add x y = map2 ( +. ) x y
let sub x y = map2 ( -. ) x y
let scale a x = Array.map (fun v -> a *. v) x
let axpy a x y = map2 (fun xi yi -> (a *. xi) +. yi) x y

let axpy_in_place a x y =
  check_same_dim "Vec.axpy_in_place" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

let mul_elem x y = map2 ( *. ) x y

let dot x y =
  check_same_dim "Vec.dot" x y;
  let acc = ref 0. in
  for i = 0 to Array.length x - 1 do
    acc := !acc +. (x.(i) *. y.(i))
  done;
  !acc

let norm x = sqrt (dot x x)
let norm1 x = Array.fold_left (fun acc v -> acc +. Float.abs v) 0. x
let norm_inf x = Array.fold_left (fun acc v -> Float.max acc (Float.abs v)) 0. x

let normalize x =
  let n = norm x in
  if n = 0. then Array.copy x else scale (1. /. n) x

let sum x = Array.fold_left ( +. ) 0. x
let mean x = sum x /. float_of_int (Array.length x)
let center x =
  let m = mean x in
  Array.map (fun v -> v -. m) x


let outer x y = Array.map (fun xi -> scale xi y) x

let equal ?(eps = 1e-9) x y =
  Array.length x = Array.length y
  && begin
       let ok = ref true in
       for i = 0 to Array.length x - 1 do
         if Float.abs (x.(i) -. y.(i)) > eps then ok := false
       done;
       !ok
     end

let all_finite x =
  (* Hand-rolled loop with early exit: this guards stage boundaries on the
     fit paths, so it must cost one pass at most and usually far less. *)
  let n = Array.length x in
  let i = ref 0 in
  while !i < n && Float.is_finite x.(!i) do
    incr i
  done;
  !i = n
