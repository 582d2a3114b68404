(** Shrinkage covariance estimators — Ledoit–Wolf and OAS.

    Both replace the sample covariance [C] with the convex combination
    [C_sh = (1−ρ)·C + ρ·μ·I], [μ = tr(C)/d], where the intensity [ρ ∈ [0,1]]
    is estimated from the data instead of hand-tuned.  Its one user is
    {!Pca}'s [?shrinkage], which conditions the covariance before the
    eigendecomposition.

    - Ledoit–Wolf (2004): [ρ = min(β̄², δ²)/δ²] with
      [δ² = ‖C − μI‖²_F / d] and
      [β̄² = (Σₙ‖xₙ‖⁴ − N‖C‖²_F) / (d·N²)] — needs the centered instances.
    - OAS (Chen, Wiesel, Eldar & Hero 2010):
      [ρ = ((1−2/d)·tr(C²) + tr(C)²) / ((N+1−2/d)·(tr(C²) − tr(C)²/d))],
      clipped to [[0,1]] — needs only [C] and [N], so it is the fallback
      when the instances are absent.

    On white data ([C ≈ μI]) both intensities go to 1 and the shrunk
    estimate collapses to the scaled identity; on strongly structured
    covariances they stay near 0 and [C] passes through unchanged. *)

type t = [ `None | `Lw | `Oas | `Fixed of float ]
(** [`Fixed rho] pins the intensity; it is clipped to [[0,1]]. *)

val lw_intensity : x:Mat.t -> Mat.t -> float
(** [lw_intensity ~x c] for centered instances [x] (d×N columns) and their
    sample covariance [c = x xᵀ/N].  In [[0,1]]. *)

val oas_intensity : n:int -> Mat.t -> float
(** [oas_intensity ~n c] from the covariance and the instance count alone.
    In [[0,1]]. *)

type applied = {
  cov : Mat.t;  (** The shrunk covariance [(1−ρ)C + ρμI]. *)
  intensity : float;  (** ρ actually used ([0.] for [`None]). *)
  target : float;  (** μ = tr(C)/d — the scaled-identity target. *)
}

val apply : ?x:Mat.t -> n:int -> t -> Mat.t -> applied
(** Shrink [c].  [`Lw] requires [?x] (the centered instances) and falls back
    to [`Oas] with a logged warning when it is absent.  [`None] returns [c]
    itself (same value, not a copy) with intensity 0, so the default path
    is bit-identical to no shrinkage at all. *)
