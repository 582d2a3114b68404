(* Where the operator route's cost model and the measured fits cross.

   For each shape of DESIGN.md's route tables, [Tcca.fit ~r:8] runs with
   each route pinned through [Op_tensor.pin_route], in alternating pairs,
   at instance counts spread around the model's crossover (the N above
   which [Op_tensor.materializes] picks dense).  Per N it prints each
   route's median time and the faster one; per shape, the measured
   crossover next to the model's.  The model reads

     dense iff  ∏dₚ·(2N + κ) < c·N²·Σdₚ,

   so a measured crossover Nₓ puts one linear equation on (c, κ):
   c·Σdₚ·Nₓ/∏dₚ − κ/Nₓ = 2.  The last lines are the least-squares (c, κ)
   over every shape whose crossover fell inside its grid, and the
   crossovers that fit implies.

     bash scripts/route_crossover.sh [--pairs P] [--shapes a,b,…]
                                     [--ns N₁,N₂,…]

   The instance counts are [grid]'s multiples of the model's crossover,
   each rounded to 50; --ns gives them outright instead (to re-measure
   the rows of a route table).  Defaults: 3 pairs, every shape.  Pair i
   runs dense first when i is odd.  The views of one N are drawn once
   from the shape's synthetic world with seed N + 1, so both routes fit
   the same instances. *)

let shapes =
  [ ("secstr-paper", "SecStr paper 3 × 105", fun () -> Secstr.world Secstr.Paper);
    ("secstr-quick", "SecStr quick 3 × 60", fun () -> Secstr.world Secstr.Quick);
    ("ads-paper", "Ads paper 120 · 100 · 90", fun () -> Ads.world Ads.Paper);
    ("ads-quick", "Ads quick 48 · 40 · 36", fun () -> Ads.world Ads.Quick);
    ("nus-paper", "NUS paper 100 · 72 · 64", fun () -> Nuswide.world Nuswide.Paper);
    ("nus-quick", "NUS quick 50 · 36 · 32", fun () -> Nuswide.world Nuswide.Quick) ]

(* Multiples of the model's crossover timed per shape: they bracket a
   measured crossover from 30 % below the model's to 75 % above it. *)
let grid = [ 0.7; 0.85; 1.; 1.2; 1.45; 1.75 ]

let pinned route f =
  Op_tensor.pin_route route;
  Fun.protect ~finally:(fun () -> Op_tensor.pin_route None) f

(* The smallest N the unpinned model materializes, by bisection: the
   model's dense side is one interval [Nₓ, ∞) below the entry cap. *)
let model_crossover dims =
  let dense n = pinned None (fun () -> Op_tensor.materializes ~dims ~n) in
  if not (dense 1_000_000) then None
  else begin
    let lo = ref 1 and hi = ref 1_000_000 in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if dense mid then hi := mid else lo := mid
    done;
    Some !hi
  end

let fit_seconds route views =
  pinned (Some route) (fun () -> Measure.time (fun () -> Tcca.fit ~r:8 views))

(* Seconds of each route, factored then dense, over [pairs] alternating
   pairs. *)
let time_routes ~pairs views =
  let f = Array.make pairs 0. and d = Array.make pairs 0. in
  for i = 0 to pairs - 1 do
    if i mod 2 = 0 then begin
      d.(i) <- fit_seconds `Dense views;
      f.(i) <- fit_seconds `Factored views
    end
    else begin
      f.(i) <- fit_seconds `Factored views;
      d.(i) <- fit_seconds `Dense views
    end
  done;
  (f, d)

let runs ts = String.concat "/" (Array.to_list (Array.map (Printf.sprintf "%.3f") ts))

(* The N where factored/dense crosses 1, interpolated in log–log between
   the grid points around the first crossing; None if it never crosses. *)
let measured_crossover points =
  let rec go = function
    | (n0, r0) :: ((n1, r1) :: _ as rest) ->
      if r0 < 1. && r1 >= 1. then
        let l0 = log (float_of_int n0) and l1 = log (float_of_int n1) in
        let lr0 = log r0 and lr1 = log r1 in
        Some (exp (l0 +. ((0. -. lr0) *. (l1 -. l0) /. (lr1 -. lr0))))
      else go rest
    | _ -> None
  in
  go points

let () =
  let pairs = ref 3 in
  let names = ref (List.map (fun (id, _, _) -> id) shapes) in
  let fixed = ref [] in
  let split s = String.split_on_char ',' s in
  Arg.parse
    [ ("--pairs", Arg.Set_int pairs, "P alternating pairs per N (default 3)");
      ("--shapes", Arg.String (fun s -> names := split s), "a,b,… shapes to time (default all)");
      ("--ns", Arg.String (fun s -> fixed := List.map int_of_string (split s)),
       "N₁,N₂,… instance counts to time instead of the grid") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "route_crossover [--pairs P] [--shapes a,b] [--ns N,M]";
  if !pairs < 1 then failwith "route_crossover: --pairs must be positive";
  (* Warm the pool and the GEMM scratch before the first timed fit. *)
  let warm = Synth.sample (Secstr.world Secstr.Quick) (Rng.create 0) ~n:300 in
  ignore (Tcca.fit ~r:8 warm.Multiview.views);
  let crossings = ref [] in
  List.iter
    (fun id ->
      let _, label, world =
        try List.find (fun (i, _, _) -> i = id) shapes
        with Not_found -> failwith ("route_crossover: unknown shape " ^ id)
      in
      let world = world () in
      let dims = (Synth.config_of world).Synth.dims in
      let prod = Array.fold_left (fun a d -> a *. float_of_int d) 1. dims
      and sum = float_of_int (Array.fold_left ( + ) 0 dims) in
      match model_crossover dims with
      | None -> Printf.printf "%s: the model never materializes it\n%!" label
      | Some nx ->
        Printf.printf "%s (∏dₚ = %.0f, Σdₚ = %.0f): model crossover N = %d\n%!" label prod sum
          nx;
        Printf.printf "  %6s  %-22s  %-22s  %-8s  %s\n%!" "N" "factored s (runs)"
          "dense s (runs)" "faster" "model";
        let round g = max 50 (50 * int_of_float (Float.round (g *. float_of_int nx /. 50.))) in
        let ns = List.sort_uniq compare (if !fixed <> [] then !fixed else List.map round grid) in
        let points =
          List.map
            (fun n ->
              let views = (Synth.sample world (Rng.create (n + 1)) ~n).Multiview.views in
              let f, d = time_routes ~pairs:!pairs views in
              let mf = Stats.median f and md = Stats.median d in
              Printf.printf "  %6d  %-22s  %-22s  %-8s  %s\n%!" n
                (Printf.sprintf "%.3f (%s)" mf (runs f))
                (Printf.sprintf "%.3f (%s)" md (runs d))
                (if mf < md then "factored" else "dense")
                (if n >= nx then "dense" else "factored");
              (n, mf /. md))
            ns
        in
        match measured_crossover points with
        | Some n ->
          Printf.printf "  measured crossover N ≈ %.0f (model %d)\n\n%!" n nx;
          crossings := (label, prod, sum, n) :: !crossings
        | None ->
          Printf.printf "  measured crossover outside N = %d … %d (model %d)\n\n%!"
            (List.hd ns) (List.nth ns (List.length ns - 1)) nx)
    !names;
  (* Least squares on c·a − κ·b = 2, a = Σdₚ·Nₓ/∏dₚ, b = 1/Nₓ: both
     constants, then κ alone with c = 2, the Gram pass's flop count. *)
  let eqs = List.map (fun (_, prod, sum, n) -> (sum *. n /. prod, 1. /. n)) !crossings in
  let total f = List.fold_left (fun acc e -> acc +. f e) 0. eqs in
  let implied c kappa (_, prod, sum, _) =
    (* The positive root of c·Σdₚ·N² − 2∏dₚ·N − κ∏dₚ = 0. *)
    let a = c *. sum and b = 2. *. prod and k = kappa *. prod in
    (b +. sqrt ((b *. b) +. (4. *. a *. k))) /. (2. *. a)
  in
  let report name c kappa =
    Printf.printf "%s: c = %.2f, κ = %.0f\n" name c kappa;
    List.iter
      (fun ((label, _, _, n) as shape) ->
        Printf.printf "  %s: measured %.0f, model %.0f\n" label n (implied c kappa shape))
      (List.rev !crossings)
  in
  let saa = total (fun (a, _) -> a *. a) and sbb = total (fun (_, b) -> b *. b)
  and sab = total (fun (a, b) -> a *. b) in
  let sa2 = total (fun (a, _) -> 2. *. a) and sb2 = total (fun (_, b) -> 2. *. b) in
  if List.length eqs >= 2 then begin
    (* Normal equations of [a, −b]·[c; κ] = 2. *)
    let det = (saa *. sbb) -. (sab *. sab) in
    report
      (Printf.sprintf "fit over %d shapes" (List.length eqs))
      (((sa2 *. sbb) -. (sab *. sb2)) /. det)
      (((sa2 *. sab) -. (saa *. sb2)) /. det)
  end;
  if eqs = [] then print_endline "fit: no measured crossover"
  else report "fit with c = 2" 2. (total (fun (a, b) -> b *. ((2. *. a) -. 2.)) /. sbb)
