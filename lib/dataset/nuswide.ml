type scale = Quick | Paper

let bow_view = 0

let config = function
  | Paper ->
    { Synth.default with
      dims = [| 100; 72; 64 |];
      n_classes = 10;
      shared_topics = 30;
      topics_per_class = 3;
      topic_gain = 1.2;
      active_prob = 0.65;
      background_prob = 0.06;
      features_per_topic = 3;
      pair_confounders = 8;
      confounder_strength = 1.0;
      confounder_prob = 0.4;
      confounder_features = 8;
      clutter_topics = 3;
      clutter_strength = 0.8;
      clutter_prob = 0.25;
      noise = 0.5;
      binary = false }
  | Quick ->
    { Synth.default with
      dims = [| 50; 36; 32 |];
      n_classes = 10;
      shared_topics = 20;
      topics_per_class = 2;
      topic_gain = 1.2;
      active_prob = 0.65;
      background_prob = 0.06;
      features_per_topic = 3;
      pair_confounders = 6;
      confounder_strength = 1.0;
      confounder_prob = 0.4;
      confounder_features = 6;
      clutter_topics = 2;
      clutter_strength = 0.8;
      clutter_prob = 0.25;
      noise = 0.5;
      binary = false }

let world ?(seed = 3003) scale = Synth.make_world ~seed (config scale)
