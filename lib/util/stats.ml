(** Small descriptive-statistics accumulator used for the structural columns
    of Tables 3-5 (max and average of per-instruction / per-block counts). *)

type t = {
  mutable n : int;
  mutable sum : float;
  mutable max : float;
  mutable min : float;
}

let create () = { n = 0; sum = 0.0; max = neg_infinity; min = infinity }

let add t x =
  t.n <- t.n + 1;
  t.sum <- t.sum +. x;
  if x > t.max then t.max <- x;
  if x < t.min then t.min <- x

let add_int t x = add t (float_of_int x)

let count t = t.n

let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

let max_value t = if t.n = 0 then 0.0 else t.max

let min_value t = if t.n = 0 then 0.0 else t.min

let total t = t.sum

let of_list xs =
  let t = create () in
  List.iter (add t) xs;
  t

let of_ints xs =
  let t = create () in
  List.iter (add_int t) xs;
  t

let merge a b =
  { n = a.n + b.n;
    sum = a.sum +. b.sum;
    max = Float.max a.max b.max;
    min = Float.min a.min b.min }

(* ------------------------------------------------------------------ *)
(* Hand-rolled JSON, used for the machine-readable perf reports
   (BENCH_obs.json, schedtool batch --json).  The implementation
   lives in lib/obs (the observability layer serializes through it and
   sits below ds_util); this alias keeps every historical
   Ds_util.Stats.Json reference and type equality intact. *)

module Json = Ds_obs.Json

(** Accumulator summary as JSON, for the perf reports. *)
let to_json t =
  Json.Obj
    [ ("count", Json.Int (count t)); ("mean", Json.Float (mean t));
      ("min", Json.Float (min_value t)); ("max", Json.Float (max_value t));
      ("total", Json.Float (total t)) ]

(** Timing helper: [time_runs ~runs f] runs [f ()] [runs] times and returns
    the mean wall-clock seconds — the analogue of the paper's
    "average of user+sys over five runs".  Reads the monotonic-leaning
    {!Ds_obs.Clock}, so a wall-clock step cannot produce a negative
    per-run time. *)
let time_runs ~runs f =
  assert (runs > 0);
  (* integer nanoseconds: no float is boxed per run, so what a timed
     call allocates does not depend on whether the clock moved *)
  let total_ns = ref 0 in
  let result = ref None in
  for _ = 1 to runs do
    let t0 = Ds_obs.Clock.now_ns () in
    let r = f () in
    total_ns := !total_ns + (Ds_obs.Clock.now_ns () - t0);
    result := Some r
  done;
  match !result with
  | Some r -> (float_of_int !total_ns *. 1e-9 /. float_of_int runs, r)
  | None -> assert false
