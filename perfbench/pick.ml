(* Percentiles by nearest rank.  A percentile is reported only when at
   least [min_beyond] samples lie above it, so a "p99" of 50 samples, which
   is just the maximum, is never printed as a p99. *)

let min_beyond = 10

(* Percentiles are given in tenths (990 = p99) so that the rank is exact
   integer arithmetic. *)
let rank ~n tenths = max 0 ((((tenths * n) + 999) / 1000) - 1)
let beyond ~n tenths = n - 1 - rank ~n tenths
let supported ~n tenths = n > 0 && beyond ~n tenths >= min_beyond

let sorted xs =
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile xs tenths =
  let s = sorted xs in
  s.(rank ~n:(Array.length s) tenths)

(* The median is reported for any non-empty sample: it is the figure a
   run of a few fits can give. *)
let median xs =
  if Array.length xs = 0 then invalid_arg "Pick.median: no samples";
  percentile xs 500

(* The highest of p99.9, p99, p95, p90 and p75 that the sample supports. *)
let tail xs =
  let n = Array.length xs in
  List.find_opt (supported ~n) [ 999; 990; 950; 900; 750 ]
  |> Option.map (fun t -> (t, percentile xs t))

let label tenths =
  if tenths mod 10 = 0 then Printf.sprintf "p%d" (tenths / 10)
  else Printf.sprintf "p%d.%d" (tenths / 10) (tenths mod 10)
