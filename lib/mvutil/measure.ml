type sample = { seconds : float; allocated_mb : float; live_mb : float }

let mb_of_words w = w *. float_of_int (Sys.word_size / 8) /. (1024. *. 1024.)

(* Wall time from the monotonic clock.  Sys.time is process CPU time summed
   over domains and would overstate a parallel run. *)
let now_s () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let run thunk =
  Gc.full_major ();
  let alloc0 = Gc.allocated_bytes () in
  let t0 = now_s () in
  let result = thunk () in
  let seconds = now_s () -. t0 in
  let allocated = Gc.allocated_bytes () -. alloc0 in
  Gc.full_major ();
  let live = float_of_int (Gc.stat ()).Gc.live_words in
  (result, { seconds; allocated_mb = allocated /. (1024. *. 1024.); live_mb = mb_of_words live })

let time thunk =
  let _, s = run thunk in
  s.seconds
