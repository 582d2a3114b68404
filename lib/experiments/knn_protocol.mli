(** The NUS-WIDE web-image-annotation protocol (paper Sec. 5.1.3).

    Per run: draw a training pool and a test set; pick [per_class] labeled
    instances per concept from the training pool; fit subspaces on the whole
    training pool (unlabeled); classify with kNN, k chosen on the 20%
    validation carve-out of the test set (candidates 1..10); CCA (AVG)
    combines pairs by majority voting (summed vote matrices).  DSE/SSMVD are
    transductive, so they embed labeled ∪ validation ∪ test jointly. *)

type config = {
  world : Synth.world;
  n_train : int;
  n_test : int;
  per_class : int;           (** 4, 6 or 8 in the paper. *)
  val_fraction : float;
  eps : float;
  transductive_cap : int;
}

val default_config : ?per_class:int -> Synth.world -> config
(** n_train = 1200, n_test = 1200, per_class defaults to 6. *)

type result = { val_acc : float; test_acc : float; chosen_k : int }

type state
(** One seed's sampled pools and splits, shared across methods and
    dimensions (the TCCA whitened tensor is memoized inside). *)

val prepare : config -> seed:int -> state
val run_prepared : state -> Spec.linear_method -> r:int -> result
