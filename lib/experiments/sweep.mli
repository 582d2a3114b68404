(** Drives (method × dimension × seed) sweeps and renders the paper's
    figures (accuracy-vs-dimension curves) and tables (accuracy at the
    validation-chosen best dimension, mean±std over seeds). *)

type point = {
  r : int;
  val_mean : float;
  val_std : float;
  test_mean : float;
  test_std : float;
}

type curve = { label : string; points : point array }

val sweep_prepared :
  prepare:(seed:int -> 'state) ->
  run:('state -> 'm -> r:int -> float * float) ->
  label:('m -> string) ->
  methods:'m list -> rs:int array -> seeds:int -> curve list
(** Like [sweep], but one prepared state per seed is shared across all
    (method, dimension) cells — the protocols' pools and memoized tensors. *)

val figure : title:string -> curve list -> string
(** Textual figure: one row per dimension, one column per method (test
    accuracy), matching the paper's plots. *)

val table : title:string -> curve list -> string
(** Paper-style table: per method, the test accuracy (mean±std, in %) at the
    dimension with the best mean validation accuracy. *)

val best_point : curve -> point
(** The validation-selected point of a curve. *)
