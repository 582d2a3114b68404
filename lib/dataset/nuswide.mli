(** NUS-WIDE-mammal-like web image annotation benchmark (paper Secs. 5.1.3
    and 5.2).

    The original subset has 11 189 images of 10 mammal concepts with three
    visual views: 500-d SIFT bag-of-visual-words, 144-d color correlogram,
    128-d wavelet texture — non-negative histogram-style features.  The
    simulation keeps 10 classes and three non-negative continuous views,
    scaled to 100/72/64 dims ([Paper]) or 50/36/32 ([Quick]).  View 0 plays
    the BoW role (the χ² kernel is applied to it in the non-linear
    experiments). *)

type scale = Quick | Paper

val world : ?seed:int -> scale -> Synth.world

val bow_view : int
(** Index of the view treated as the visual-word histogram (χ² kernel). *)
