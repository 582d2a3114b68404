let check_true msg condition = Alcotest.(check bool) msg true condition

let test_returns_value () =
  let v, _ = Measure.run (fun () -> 41 + 1) in
  Alcotest.(check int) "thunk result" 42 v

let test_time_nonnegative () =
  let _, s = Measure.run (fun () -> ()) in
  check_true "seconds >= 0" (s.Measure.seconds >= 0.);
  check_true "alloc >= 0" (s.Measure.allocated_mb >= 0.);
  check_true "live >= 0" (s.Measure.live_mb > 0.)

let test_allocation_tracked () =
  (* Allocating ~8 MB must show up in the allocation counter. *)
  let _, s =
    Measure.run (fun () ->
        let keep = ref [] in
        for _ = 1 to 10 do
          keep := Array.make 100_000 0. :: !keep
        done;
        List.length !keep)
  in
  check_true
    (Printf.sprintf "8MB visible (got %.1f MB)" s.Measure.allocated_mb)
    (s.Measure.allocated_mb > 6.)

let test_busy_work_takes_time () =
  let t = Measure.time (fun () ->
      let acc = ref 0. in
      for i = 1 to 3_000_000 do
        acc := !acc +. sqrt (float_of_int i)
      done;
      !acc)
  in
  check_true "measurable time" (t > 0.)

(* Time is wall time: a thunk that sleeps uses no CPU yet takes 50 ms. *)
let test_wall_clock () =
  let t = Measure.time (fun () -> Unix.sleepf 0.05) in
  check_true (Printf.sprintf "sleep of 50 ms measures >= 40 ms (got %.1f ms)" (t *. 1e3))
    (t >= 0.04)

let () =
  Alcotest.run "measure"
    [ ( "sampling",
        [ Alcotest.test_case "value" `Quick test_returns_value;
          Alcotest.test_case "non-negative" `Quick test_time_nonnegative;
          Alcotest.test_case "allocation" `Quick test_allocation_tracked;
          Alcotest.test_case "time" `Quick test_busy_work_takes_time;
          Alcotest.test_case "wall clock" `Quick test_wall_clock ] ) ]
