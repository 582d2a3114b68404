(** Greedy deflation "tensor power method" for a rank-r approximation
    (Allen 2012) — the other alternative solver the paper cites, used in the
    solver-ablation bench.

    Repeatedly extracts the best rank-1 term with {!Hopm} and subtracts it.
    Unlike joint ALS, the components greedily explain variance one at a time —
    the behaviour the paper contrasts with ALS in Sec. 5.1.1 (remark 5). *)

val decompose : ?max_iter:int -> ?tol:float -> rank:int -> Tensor.t -> Kruskal.t
(** Defaults follow {!Hopm.rank1}. *)
