type scale = Quick | Paper

(* Knob choices (see DESIGN.md §1 and EXPERIMENTS.md): sparse skewed topics
   carry the class signal in all three context windows; pairwise confounders
   are stronger than topics in pairwise canonical correlation (they load on
   more features), so pairwise CCA spends leading directions on them while
   the covariance tensor is blind to them; per-view clutter pollutes the
   purely unsupervised baselines. *)
let config = function
  | Paper ->
    { Synth.default with
      dims = [| 105; 105; 105 |];
      n_classes = 2;
      shared_topics = 12;
      topics_per_class = 6;
      topic_gain = 0.9;
      active_prob = 0.35;
      background_prob = 0.08;
      features_per_topic = 4;
      pair_confounders = 10;
      confounder_strength = 1.6;
      confounder_prob = 0.5;
      confounder_features = 16;
      clutter_topics = 6;
      clutter_strength = 1.4;
      clutter_prob = 0.35;
      noise = 1.0;
      binary = true }
  | Quick ->
    { Synth.default with
      dims = [| 60; 60; 60 |];
      n_classes = 2;
      shared_topics = 10;
      topics_per_class = 5;
      topic_gain = 0.9;
      active_prob = 0.35;
      background_prob = 0.08;
      features_per_topic = 4;
      pair_confounders = 8;
      confounder_strength = 1.6;
      confounder_prob = 0.5;
      confounder_features = 12;
      clutter_topics = 5;
      clutter_strength = 1.4;
      clutter_prob = 0.35;
      noise = 1.0;
      binary = true }

let world ?(seed = 1001) scale = Synth.make_world ~seed (config scale)
