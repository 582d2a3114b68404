(** SecStr-like protein secondary-structure benchmark (paper Sec. 5.1.1).

    The original SecStr task predicts secondary structure from a 15-position
    amino-acid window, one-hot encoded (15×21 = 315 binary features), split
    into left-context / center / right-context views of 105 dims each.  The
    simulated world keeps the three-view 105-dim binary layout ([Paper]
    scale) or a 40-dim-per-view shrunk version ([Quick]) and a binary label,
    with class topics playing the role of structure-indicative residue
    patterns that manifest in all three context windows. *)

type scale = Quick | Paper

val config : scale -> Synth.config
val world : ?seed:int -> scale -> Synth.world
