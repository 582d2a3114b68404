type scale = Quick | Paper

let config = function
  | Paper ->
    { Synth.dims = [| 120; 100; 90 |];
      n_classes = 2;
      class_priors = Some [| 0.86; 0.14 |];
      shared_topics = 10;
      topics_per_class = 5;
      topic_gain = 1.0;
      active_prob = 0.4;
      background_prob = 0.08;
      features_per_topic = 4;
      pair_confounders = 8;
      confounder_strength = 1.4;
      confounder_prob = 0.5;
      confounder_features = 12;
      clutter_topics = 5;
      clutter_strength = 1.2;
      clutter_prob = 0.3;
      noise = 0.8;
      binary = true }
  | Quick ->
    { Synth.dims = [| 48; 40; 36 |];
      n_classes = 2;
      class_priors = Some [| 0.86; 0.14 |];
      shared_topics = 8;
      topics_per_class = 4;
      topic_gain = 1.0;
      active_prob = 0.4;
      background_prob = 0.08;
      features_per_topic = 3;
      pair_confounders = 6;
      confounder_strength = 1.4;
      confounder_prob = 0.5;
      confounder_features = 8;
      clutter_topics = 4;
      clutter_strength = 1.2;
      clutter_prob = 0.3;
      noise = 0.8;
      binary = true }

let world ?(seed = 2002) scale = Synth.make_world ~seed (config scale)
