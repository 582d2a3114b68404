(** Mode-k matricization (Kolda–Bader convention).

    [unfold a k] is the [dims.(k) × Π_{q≠k} dims.(q)] matrix whose columns are
    the mode-k fibers of [a], ordered so that the *lowest* remaining mode
    varies fastest.  This is the ordering under which the CP model reads
    [X₍ₖ₎ = Uₖ diag(λ) (U_m ⊙ … ⊙ U_{k+1} ⊙ U_{k−1} ⊙ … ⊙ U₁)ᵀ]
    with [⊙] the Khatri–Rao product of {!Khatri_rao}. *)

val unfold : Tensor.t -> int -> Mat.t
