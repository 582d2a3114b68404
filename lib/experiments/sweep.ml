type point = {
  r : int;
  val_mean : float;
  val_std : float;
  test_mean : float;
  test_std : float;
}

type curve = { label : string; points : point array }

let sweep_prepared ~prepare ~run ~label ~methods ~rs ~seeds =
  let methods = Array.of_list methods in
  let n_methods = Array.length methods in
  let n_rs = Array.length rs in
  (* results.(method).(r_index).(seed) *)
  let vals = Array.init n_methods (fun _ -> Array.make_matrix n_rs seeds 0.) in
  let tests = Array.init n_methods (fun _ -> Array.make_matrix n_rs seeds 0.) in
  for seed = 0 to seeds - 1 do
    let state = prepare ~seed in
    Array.iteri
      (fun mi meth ->
        Array.iteri
          (fun ri r ->
            let v, t = run state meth ~r in
            vals.(mi).(ri).(seed) <- v;
            tests.(mi).(ri).(seed) <- t)
          rs)
      methods
  done;
  Array.to_list
    (Array.mapi
       (fun mi meth ->
         let points =
           Array.mapi
             (fun ri r ->
               let val_mean, val_std = Stats.mean_std vals.(mi).(ri) in
               let test_mean, test_std = Stats.mean_std tests.(mi).(ri) in
               { r; val_mean; val_std; test_mean; test_std })
             rs
         in
         { label = label meth; points })
       methods)

let figure ~title curves =
  match curves with
  | [] -> invalid_arg "Sweep.figure: no curves"
  | first :: _ ->
    let x = Array.map (fun p -> float_of_int p.r) first.points in
    Tableau.series ~title ~xlabel:"dim"
      ~x
      (List.map (fun c -> (c.label, Array.map (fun p -> p.test_mean *. 100.) c.points)) curves)

let best_point curve =
  Array.fold_left
    (fun best p -> if p.val_mean > best.val_mean then p else best)
    curve.points.(0) curve.points

let table ~title curves =
  let t = Tableau.create ~title ~columns:[ "method"; "best dim"; "accuracy (%)" ] in
  List.iter
    (fun c ->
      let p = best_point c in
      Tableau.add_text_row t c.label
        [ string_of_int p.r; Tableau.pm (p.test_mean *. 100.) (p.test_std *. 100.) ])
    curves;
  Tableau.render t
