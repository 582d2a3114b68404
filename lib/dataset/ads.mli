(** UCI Internet-Advertisements-like benchmark (paper Sec. 5.1.2).

    The original has 3 279 instances with sparse binary term-presence
    features over three URL/caption views (588 / 495 / 472 dims) and a
    skewed ad/non-ad label (≈14% positive).  The simulation keeps the
    binary sparse views and skewed prior; [Paper] scale shrinks dimensions
    to 120/100/90 so the dense covariance tensor fits this container (see
    DESIGN.md substitution 2), [Quick] to 48/40/36. *)

type scale = Quick | Paper

val world : ?seed:int -> scale -> Synth.world
