(** Wall-clock and allocation measurement for the complexity experiments
    (paper Figs. 7–10).

    The paper reports MATLAB [tic/toc] time and process memory; here a run is
    timed with the monotonic wall clock — not [Sys.time], which is process
    CPU time summed over domains and overstates a run on the domain pool —
    and memory is the GC's view of allocation during the run plus the peak
    live heap, reported in megabytes. *)

type sample = {
  seconds : float;       (** Wall-clock seconds spent in the thunk. *)
  allocated_mb : float;  (** Total bytes allocated during the thunk, in MB. *)
  live_mb : float;       (** Live heap after the thunk (majors forced), MB. *)
}

val run : (unit -> 'a) -> 'a * sample
(** Execute the thunk once, measuring it. *)

val time : (unit -> 'a) -> float
(** Seconds only. *)
