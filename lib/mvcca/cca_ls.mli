(** CCA-LS (Vía, Santamaría & Pérez 2007): the multi-view CCA baseline of
    the paper, reformulating CCA-MAXVAR as coupled least-squares problems
    (paper Eq. 3.3) solved by alternating regression.

    For each component: alternately regress every view onto the current
    common variate ([hₚ ← (XₚXₚᵀ+NεI)⁻¹Xₚz]) and refresh the variate as the
    average prediction ([z ← (1/m)Σₚ Xₚᵀhₚ]), deflating against previous
    variates to enforce the paper's orthogonality constraint
    [z⁽ⁱ⁾ᵀz⁽ʲ⁾ = 0].  Converges to the MAXVAR solution (verified in the
    test suite) without any d×d eigendecomposition. *)

type t

val fit : ?eps:float -> ?max_iter:int -> ?tol:float -> ?seed:int -> r:int -> Mat.t array -> t
(** Defaults: [eps = 1e-2], [max_iter = 120], [tol = 1e-9] (squared variate
    change), [seed = 11] for the variate initialization. *)

val r : t -> int

val transform : t -> Mat.t array -> Mat.t
(** Concatenated [m·r × N] representation. *)

val transform_view : t -> int -> Mat.t -> Mat.t
val common_variates : t -> Mat.t
(** [N_train × r], orthonormal columns. *)

val iterations : t -> int array
(** Alternating iterations spent on each component. *)

(** The *adaptive* variant Vía et al. actually advertise: one coupled
    recursive-least-squares filter per view, updated per sample, so the
    canonical vectors track the leading MAXVAR component of a (possibly
    drifting) stream without ever storing data.

    Per sample: the current common variate estimate is the average
    prediction [z = (1/m)Σₚ hₚᵀxₚ], and every view's filter takes one RLS
    step towards it with forgetting factor [beta].  On stationary streams
    the filters converge to the batch leading component (verified in the
    test suite). *)
module Online : sig
  type t

  val create : ?beta:float -> ?delta:float -> dims:int array -> unit -> t
  (** [beta] is the RLS forgetting factor in (0,1] (default 0.999 — values
      below 1 track drift); [delta] the inverse-covariance init scale
      (default 10). *)

  val step : t -> Vec.t array -> float
  (** Consume one multi-view sample (uncentered; a running mean is
      maintained internally) and return the current variate estimate for
      it. *)

  val samples_seen : t -> int

  val transform_view : t -> int -> Mat.t -> Vec.t
  (** Project a view's columns with the current filter (running mean
      subtracted): returns the 1-D canonical variable per instance. *)
end
