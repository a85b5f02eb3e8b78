(** Arc timing: an issue order timed by the DAG's arc latencies and the
    non-pipelined units' busy times, one issue per cycle.  The optimal
    search used this cost model before it issued in the pipeline's
    machine state; kept as the reference that the two agree on symbolic
    DAGs.  Not for pipeline use. *)

open Dagsched

(** Completion time of [order] (node ids, parents first). *)
val evaluate : Dag.t -> int array -> int
