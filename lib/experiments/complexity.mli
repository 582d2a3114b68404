(** Computational-cost experiments (paper Figs. 7–10): fit time and memory
    versus the dimension of the common subspace, per method.

    Time is wall-clock seconds of the subspace fit (the paper's dominant
    cost); memory is bytes allocated during the fit plus the live heap after
    it — see {!Measure}.  Classification cost is excluded, as it is
    identical across methods at equal dimension. *)

type cost = { r : int; seconds : float; alloc_mb : float }

type curve = { label : string; costs : cost array }

val linear_costs :
  world:Synth.world -> n:int -> eps:float ->
  methods:Spec.linear_method list -> rs:int array -> seed:int -> curve list
(** Cost of fitting each method's subspace on an [n]-instance pool
    (BSF/CAT measure their embedding step; DSE/SSMVD their transductive
    fit). *)

val kernel_costs :
  world:Synth.world -> n:int -> eps:float -> bow_view:int ->
  methods:Spec.kernel_method list -> rs:int array -> seed:int -> curve list
(** Fig. 10: kernel construction is shared and excluded; the cost measured
    is each method's fit on the Gram matrices. *)

val time_figure : title:string -> curve list -> string
val memory_figure : title:string -> curve list -> string

val n_scaling :
  world:Synth.world -> ns:int array -> r:int -> eps:float -> dse_cap:int -> string
(** Sec. 5.3's large-N claim: fit seconds per method as the sample size
    grows.  TCCA's cost flattens after its single accumulation pass (and the
    pass itself is linear), while the transductive baselines hit their N²
    wall — DSE/SSMVD are measured only up to [dse_cap] and reported as
    [nan] beyond it, exactly like the paper's "No Attempt" cells. *)
