(** Randomized property/stress suite for the domain pool
    (lib/util/pool.ml).

    Two angles, both seeded through {!Prng} so any failure reproduces
    from the seed printed in the message:

    - [map] across random domain counts and chunk sizes: results equal
      the sequential map and every element is computed exactly once;
    - park/shutdown races on idle or just-finished pools: shutdown must
      terminate cleanly, after every mapped element ran.

    [dune build @slow] re-runs the suite with
    DAGSCHED_POOL_PROPS_HEAVY=1, which multiplies every iteration count
    by 10. *)

open Dagsched
open Helpers

let heavy = Sys.getenv_opt "DAGSCHED_POOL_PROPS_HEAVY" <> None
let scale n = if heavy then n * 10 else n

(* ------------------------------------------------------------------ *)
(* pool-level stress: map equivalence + exactly-once *)

let pool_map_iteration seed =
  let rng = Prng.create (0xab1e + seed) in
  let domains = 1 + Prng.int rng 4 in
  let n = Prng.int rng 120 in
  let chunk = 1 + Prng.int rng (n + 2) in
  let runs = Array.init n (fun _ -> Atomic.make 0) in
  let g i = (i * 2654435761) lxor seed in
  let f i =
    Atomic.incr runs.(i);
    g i
  in
  let got = Pool.map ~domains ~chunk f (List.init n Fun.id) in
  if got <> List.init n g then
    Alcotest.failf "seed %d: map (%d domains, chunk %d) <> List.map"
      seed domains chunk;
  Array.iteri
    (fun i c ->
      if Atomic.get c <> 1 then
        Alcotest.failf "seed %d: element %d computed %d times" seed i
          (Atomic.get c))
    runs

let test_pool_map () =
  for seed = 0 to scale 40 - 1 do
    pool_map_iteration seed
  done

(* ------------------------------------------------------------------ *)
(* park/shutdown races on idle or just-finished pools *)

let shutdown_race_iteration seed =
  let rng = Prng.create (0xd00f + seed) in
  let domains = 1 + Prng.int rng 4 in
  let pool = Pool.create ~domains () in
  let n = if Prng.bool rng 0.5 then Prng.int rng 4 else 0 in
  let hits = Atomic.make 0 in
  if n > 0 then
    ignore (Pool.map_on pool (fun () -> Atomic.incr hits) (List.init n ignore));
  (* must terminate whether workers are parked, just leaving a job or
     still starting up — and every mapped element must have run *)
  Pool.shutdown pool;
  check_int (Printf.sprintf "seed %d: submitted tasks all ran" seed) n
    (Atomic.get hits)

let test_shutdown_races () =
  for seed = 0 to scale 25 - 1 do
    shutdown_race_iteration seed
  done

let suite =
  [ quick "pool: map exactly-once across domains and chunk sizes"
      test_pool_map;
    quick "pool: park/shutdown races terminate cleanly"
      test_shutdown_races ]
