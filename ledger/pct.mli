(** Percentiles that are only reported when the sample supports them.

    A percentile is a nearest-rank order statistic of the sorted sample.
    It is {e supported} when at least {!min_beyond} samples rank above
    it: a p99 over 500 samples would be the 5th-largest value, one bad
    scheduler tick away from a different number, so it is refused
    rather than printed. *)

val min_beyond : int
(** 10. *)

val rank : n:int -> float -> int
(** [rank ~n q] is the 0-based nearest-rank index of quantile [q]
    ([0 < q < 1]) in a sorted sample of size [n > 0]. *)

val beyond : n:int -> float -> int
(** Samples ranked strictly above {!rank}. *)

val quantile : float array -> float -> float option
(** [quantile sorted q]: [Some] the nearest-rank [q]-quantile of the
    ascending array [sorted], [None] when fewer than {!min_beyond}
    samples lie beyond it (including the empty sample). *)

val median : float array -> float
(** Median of an unsorted, non-empty array (mean of the middle pair for
    even sizes). Raises [Invalid_argument] on an empty array. *)
