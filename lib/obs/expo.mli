(** Prometheus text exposition (format 0.0.4) over a {!Metrics}
    aggregate.

    The scalar counters render one family per {!Metrics.rows} entry, in
    trailer order ([csync_<key>_total], or a [csync_<key>] gauge for a
    max-gauge row); hub gauges carry a [cohort] label, per-algorithm
    accuracy an [algo] label, and profiler spans render as one
    [csync_op_duration_seconds] histogram family with an [op] label
    (cumulative [le] buckets from {!Histogram.cumulative}, plus [_sum]
    and [_count]).  Pure string rendering — serving it is the caller's
    job ({!Stat_server} in lib/net, or [clocksync run --prof]). *)

val render : Metrics.t -> string

val escape_label : string -> string
(** Prometheus label-value escaping (backslash, quote, newline). *)
