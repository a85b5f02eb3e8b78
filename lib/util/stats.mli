(** Descriptive-statistics accumulator used for the structural columns of
    Tables 3-5 (max and average of per-instruction / per-block counts),
    plus the multi-run wall-clock timing helper behind Tables 4-5. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit

val count : t -> int
val mean : t -> float
val max_value : t -> float
val min_value : t -> float
val total : t -> float

val of_list : float list -> t
val of_ints : int list -> t

(** [merge a b] is the accumulator of the concatenated samples: counts
    and sums add, max/min combine.  Neither argument is mutated.  Used to
    fold per-part statistics into corpus-level ones. *)
val merge : t -> t -> t

(** Hand-rolled JSON, used for the machine-readable perf reports
    ([BENCH_obs.json], [schedtool batch --json]).  The
    implementation lives in {!Ds_obs.Json} (the observability layer
    serializes traces through it and sits below
    [ds_util]); this transparent alias preserves every historical
    [Ds_util.Stats.Json] reference and type equality.  See
    [lib/obs/json.mli] for the full contract (exact float round trips,
    non-finite floats as [null], total [of_string], typed decode
    errors with path-threaded field accessors). *)
module Json = Ds_obs.Json

(** Accumulator summary as JSON ([count]/[mean]/[min]/[max]/[total]). *)
val to_json : t -> Json.t

(** [time_runs ~runs f] runs [f ()] [runs] times and returns (mean
    wall-clock seconds, last result) — the analogue of the paper's
    "average of user+sys over five runs".  Clocked by the
    monotonic-leaning {!Ds_obs.Clock}, so wall-clock steps can never
    yield a negative mean. *)
val time_runs : runs:int -> (unit -> 'a) -> float * 'a
