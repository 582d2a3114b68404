(** The non-linear (kernel) protocol of paper Sec. 5.2 / Fig. 6 / Table 4.

    A small subset of the image-annotation world (the paper uses 500
    samples): per-view kernels [k(x,y) = exp(−d(x,y)/λ)], [λ = max d], with
    the χ² distance on the bag-of-visual-words view and L2 elsewhere.
    [per_class] labeled instances; 20% of the rest for validation
    (choosing k for kNN and, via the sweep driver, the dimension); the rest
    for evaluation.  Everything is transductive on the subset, matching the
    paper. *)

type config = {
  world : Synth.world;
  n_subset : int;            (** Paper: 500. *)
  per_class : int;
  val_fraction : float;
  eps : float;               (** PLS regularizer of Eq. 4.14. *)
  bow_view : int;            (** View that gets the χ² distance. *)
}

val default_config : ?per_class:int -> ?n_subset:int -> Synth.world -> config

type result = { val_acc : float; test_acc : float; chosen_k : int }

val build_kernels : config -> Multiview.t -> Mat.t array
(** The per-view Gram matrices of the paper (exposed for benches/tests). *)

type state
(** One seed's subset, kernels and splits (KTCCA's whitened tensor is
    memoized inside). *)

val prepare : config -> seed:int -> state
val run_prepared : state -> Spec.kernel_method -> r:int -> result
