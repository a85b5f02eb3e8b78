(** Utility tests: PRNG determinism and distributions, bit sets, the
    table printer, the stats accumulator, the domain work pool, and the
    hand-rolled JSON writer/reader. *)

open Dagsched
open Helpers

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Prng.int a 1000) (Prng.int b 1000)
  done

let test_prng_seeds_differ () =
  let a = Prng.create 1 and b = Prng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Prng.int a 1_000_000 = Prng.int b 1_000_000 then incr same
  done;
  check_bool "streams differ" true (!same < 5)

let test_prng_bounds () =
  let rng = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int rng 10 in
    check_bool "in range" true (x >= 0 && x < 10);
    let y = Prng.range rng 5 9 in
    check_bool "range inclusive" true (y >= 5 && y <= 9);
    let f = Prng.float rng in
    check_bool "float in [0,1)" true (f >= 0.0 && f < 1.0)
  done

let test_prng_weighted () =
  let rng = Prng.create 3 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 3000 do
    let v = Prng.weighted rng [ (1.0, "a"); (9.0, "b") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let a = Option.value ~default:0 (Hashtbl.find_opt counts "a") in
  let b = Option.value ~default:0 (Hashtbl.find_opt counts "b") in
  check_bool "b dominates" true (b > 6 * a)

let test_prng_shuffle_permutes () =
  let rng = Prng.create 11 in
  let arr = Array.init 50 (fun i -> i) in
  Prng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "still a permutation" (Array.init 50 (fun i -> i)) sorted

let test_bitset_basics () =
  let b = Bitset.create () in
  check_bool "empty" false (Bitset.mem b 3);
  Bitset.set b 3;
  Bitset.set b 100;
  check_bool "mem 3" true (Bitset.mem b 3);
  check_bool "mem 100" true (Bitset.mem b 100);
  check_bool "not mem 4" false (Bitset.mem b 4);
  let m = Bitset.Matrix.create ~rows:1 ~cols:101 in
  Bitset.Matrix.set m 0 3;
  Bitset.Matrix.set m 0 100;
  check_int "cardinal" 2 (Bitset.Matrix.row_cardinal m 0);
  Bitset.Matrix.clear m 0 3;
  check_bool "cleared" false (Bitset.Matrix.mem m 0 3);
  check_int "cardinal after clear" 1 (Bitset.Matrix.row_cardinal m 0)

let test_bitset_growth () =
  let b = Bitset.create () in
  Bitset.set b 10_000;
  check_bool "grew" true (Bitset.mem b 10_000);
  check_bool "low bits still clear" false (Bitset.mem b 0)

(* the reachability merge: row OR row, across words *)
let test_bitset_union () =
  let m = Bitset.Matrix.create ~rows:2 ~cols:301 in
  Bitset.Matrix.set m 0 1;
  Bitset.Matrix.set m 1 2;
  Bitset.Matrix.set m 1 300;
  Bitset.Matrix.union_rows m ~into:0 ~from:1;
  check_bool "1" true (Bitset.Matrix.mem m 0 1);
  check_bool "2" true (Bitset.Matrix.mem m 0 2);
  check_bool "300" true (Bitset.Matrix.mem m 0 300);
  check_bool "from unchanged" false (Bitset.Matrix.mem m 1 1)

let test_bitset_subset_equal () =
  let m = Bitset.Matrix.create ~rows:2 ~cols:10 in
  Bitset.Matrix.set m 0 5;
  Bitset.Matrix.set m 1 5;
  Bitset.Matrix.set m 1 7;
  check_bool "subset" true (Bitset.Matrix.row_subset m 0 m 1);
  check_bool "not superset" false (Bitset.Matrix.row_subset m 1 m 0);
  check_bool "not equal" false (Bitset.Matrix.row_equal m 0 m 1);
  Bitset.Matrix.set m 0 7;
  check_bool "equal now" true (Bitset.Matrix.row_equal m 0 m 1);
  (* equality and inclusion across different row widths *)
  let wide = Bitset.Matrix.create ~rows:1 ~cols:5001 in
  Bitset.Matrix.set wide 0 5;
  Bitset.Matrix.set wide 0 7;
  Bitset.Matrix.set wide 0 5000;
  Bitset.Matrix.clear wide 0 5000;
  check_bool "equal across widths" true (Bitset.Matrix.row_equal m 0 wide 0);
  check_bool "subset across widths" true (Bitset.Matrix.row_subset wide 0 m 0);
  Bitset.Matrix.set wide 0 5000;
  check_bool "wider element not in narrow row" false
    (Bitset.Matrix.row_subset wide 0 m 0);
  check_bool "narrow row in wider" true (Bitset.Matrix.row_subset m 0 wide 0)

let test_bitset_elements () =
  let m = Bitset.Matrix.create ~rows:1 ~cols:65 in
  List.iter (Bitset.Matrix.set m 0) [ 9; 1; 64; 63 ];
  let acc = ref [] in
  Bitset.Matrix.iter_row (fun j -> acc := j :: !acc) m 0;
  Alcotest.(check (list int)) "sorted elements" [ 1; 9; 63; 64 ] (List.rev !acc)

(* A negative index used to hit [1 lsl (i mod word_size)] with a negative
   shift count and silently corrupt word 0; now every entry point raises. *)
let test_bitset_negative_raises () =
  let b = Bitset.create () in
  let raises name f =
    match f () with
    | () -> Alcotest.failf "%s: expected Invalid_argument" name
    | exception Invalid_argument msg ->
        check_bool (name ^ " names the operation") true (contains msg name)
  in
  raises "set" (fun () -> Bitset.set b (-1));
  raises "mem" (fun () -> ignore (Bitset.mem b (-1)));
  check_bool "word 0 untouched" true
    (List.for_all (fun i -> not (Bitset.mem b i)) (List.init 63 Fun.id));
  let m = Bitset.Matrix.create ~rows:2 ~cols:70 in
  raises "set" (fun () -> Bitset.Matrix.set m 0 (-1));
  raises "set" (fun () -> Bitset.Matrix.set m (-1) 0);
  raises "clear" (fun () -> Bitset.Matrix.clear m 1 (-1));
  raises "mem" (fun () -> ignore (Bitset.Matrix.mem m 0 (-1)));
  check_int "matrix untouched" 0 (Bitset.Matrix.row_cardinal m 0)

(* Word-boundary indices (63-bit words): bits 0, 62, 63 and the
   capacity-growth edge behave like any interior bit. *)
let test_bitset_word_boundaries () =
  let edges = [ 0; 1; 61; 62; 63; 64; 125; 126; 127 ] in
  List.iter
    (fun i ->
      let b = Bitset.create () in
      Bitset.set b i;
      check_bool "set is member" true (Bitset.mem b i);
      check_bool "neighbor clear" false (Bitset.mem b (i + 1));
      if i > 0 then check_bool "lower neighbor clear" false (Bitset.mem b (i - 1));
      let m = Bitset.Matrix.create ~rows:1 ~cols:129 in
      Bitset.Matrix.set m 0 i;
      check_int "only that bit" 1 (Bitset.Matrix.row_cardinal m 0);
      Bitset.Matrix.clear m 0 i;
      check_bool "cleared" false (Bitset.Matrix.mem m 0 i);
      check_int "empty again" 0 (Bitset.Matrix.row_cardinal m 0))
    edges;
  (* mem past the current capacity is total, not an error *)
  check_bool "mem past capacity" false (Bitset.mem (Bitset.create ()) 9999)

(* Random set/mem (growable set) and set/clear/mem (matrix row) sequences
   against a Hashtbl model, with indices concentrated on word boundaries
   and the growth edge. *)
let test_bitset_model_check () =
  let rng = Prng.create 2024 in
  let b = Bitset.create () in
  let m = Bitset.Matrix.create ~rows:1 ~cols:400 in
  let set_model = Hashtbl.create 64 and row_model = Hashtbl.create 64 in
  for _ = 1 to 4000 do
    let i =
      match Prng.int rng 4 with
      | 0 -> Prng.int rng 4                 (* word 0 *)
      | 1 -> 61 + Prng.int rng 5            (* first word boundary *)
      | 2 -> 124 + Prng.int rng 5           (* second word boundary *)
      | _ -> Prng.int rng 400               (* anywhere, forcing growth *)
    in
    (match Prng.int rng 3 with
    | 0 ->
        Bitset.set b i;
        Hashtbl.replace set_model i ();
        Bitset.Matrix.set m 0 i;
        Hashtbl.replace row_model i ()
    | 1 -> Bitset.Matrix.clear m 0 i; Hashtbl.remove row_model i
    | _ ->
        check_bool "set agrees" (Hashtbl.mem set_model i) (Bitset.mem b i);
        check_bool "row agrees" (Hashtbl.mem row_model i) (Bitset.Matrix.mem m 0 i));
    check_int "cardinal agrees" (Hashtbl.length row_model)
      (Bitset.Matrix.row_cardinal m 0)
  done

let test_matrix_edges () =
  let m = Bitset.Matrix.create ~rows:3 ~cols:64 in
  check_int "rows" 3 (Bitset.Matrix.rows m);
  check_int "cols" 64 (Bitset.Matrix.cols m);
  (* last valid column (straddles the 63-bit word boundary) *)
  Bitset.Matrix.set m 1 63;
  Bitset.Matrix.set m 1 62;
  Bitset.Matrix.set m 1 0;
  check_bool "bit 63" true (Bitset.Matrix.mem m 1 63);
  check_bool "bit 62" true (Bitset.Matrix.mem m 1 62);
  check_bool "bit 0" true (Bitset.Matrix.mem m 1 0);
  check_int "row cardinal" 3 (Bitset.Matrix.row_cardinal m 1);
  check_int "other rows untouched" 0 (Bitset.Matrix.row_cardinal m 0);
  (* columns at or past [cols]: set raises, clear is a no-op, mem is false *)
  (match Bitset.Matrix.set m 0 64 with
  | () -> Alcotest.fail "set past cols: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Bitset.Matrix.clear m 0 64;
  check_bool "mem past cols" false (Bitset.Matrix.mem m 0 64);
  (* rows out of range raise *)
  (match Bitset.Matrix.set m 3 0 with
  | () -> Alcotest.fail "set past rows: expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  (* union/clear_row stay within their row *)
  Bitset.Matrix.set m 0 5;
  Bitset.Matrix.union_rows m ~into:0 ~from:1;
  check_int "union merged" 4 (Bitset.Matrix.row_cardinal m 0);
  check_int "source intact" 3 (Bitset.Matrix.row_cardinal m 1);
  Bitset.Matrix.clear_row m 0;
  check_int "cleared row" 0 (Bitset.Matrix.row_cardinal m 0);
  check_int "neighbor row intact" 3 (Bitset.Matrix.row_cardinal m 1);
  (* a row ORed into an empty one equals it *)
  Bitset.Matrix.union_rows m ~into:2 ~from:1;
  check_bool "row_equal after union" true (Bitset.Matrix.row_equal m 1 m 2);
  (* degenerate shapes *)
  let z = Bitset.Matrix.create ~rows:0 ~cols:0 in
  check_int "zero rows" 0 (Bitset.Matrix.rows z);
  let e = Bitset.Matrix.create ~rows:2 ~cols:0 in
  Bitset.Matrix.clear_row e 0;
  check_int "zero-col cardinal" 0 (Bitset.Matrix.row_cardinal e 1)

let test_stats () =
  let s = Stats.of_ints [ 1; 2; 3; 4 ] in
  check_int "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max_value s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min_value s);
  Alcotest.(check (float 1e-9)) "total" 10.0 (Stats.total s);
  (* zero samples: every summary is a defined, finite 0.0 — what the
     batch reports rely on for empty corpora *)
  let empty = Stats.create () in
  check_int "empty count" 0 (Stats.count empty);
  Alcotest.(check (float 1e-9)) "empty mean" 0.0 (Stats.mean empty);
  Alcotest.(check (float 1e-9)) "empty max" 0.0 (Stats.max_value empty);
  Alcotest.(check (float 1e-9)) "empty min" 0.0 (Stats.min_value empty)

let test_stats_merge () =
  let whole = Stats.of_ints [ 1; 2; 3; 4; 10 ] in
  let merged = Stats.merge (Stats.of_ints [ 1; 2 ]) (Stats.of_ints [ 3; 4; 10 ]) in
  check_int "count" (Stats.count whole) (Stats.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean whole) (Stats.mean merged);
  Alcotest.(check (float 1e-9)) "max" (Stats.max_value whole) (Stats.max_value merged);
  Alcotest.(check (float 1e-9)) "min" (Stats.min_value whole) (Stats.min_value merged);
  Alcotest.(check (float 1e-9)) "total" (Stats.total whole) (Stats.total merged);
  (* the empty accumulator is the identity *)
  let with_empty = Stats.merge (Stats.create ()) whole in
  check_int "identity count" (Stats.count whole) (Stats.count with_empty);
  Alcotest.(check (float 1e-9)) "identity max"
    (Stats.max_value whole) (Stats.max_value with_empty);
  Alcotest.(check (float 1e-9)) "identity min"
    (Stats.min_value whole) (Stats.min_value with_empty)

(* ------------------------------------------------------------------ *)
(* the domain work pool *)

let test_pool_empty () =
  Alcotest.(check (list int)) "empty input" [] (Pool.map ~domains:3 (fun x -> x) [])

let test_pool_single () =
  Alcotest.(check (list int)) "single item" [ 42 ]
    (Pool.map ~domains:3 (fun x -> x * 2) [ 21 ])

let test_pool_many_items_few_workers () =
  let n = 500 in
  let input = List.init n (fun i -> i) in
  let expected = List.map (fun i -> (i * i) + 1) input in
  Alcotest.(check (list int)) "items >> workers"
    expected
    (Pool.map ~domains:4 ~chunk:7 (fun i -> (i * i) + 1) input)

let test_pool_ordering_uneven_tasks () =
  (* earlier items busy-wait longer, so a racy pool would reorder *)
  let spin i =
    let k = ref 0 in
    for _ = 1 to (50 - i) * 2000 do incr k done;
    ignore !k;
    i
  in
  let input = List.init 50 (fun i -> i) in
  Alcotest.(check (list int)) "order preserved" input
    (Pool.map ~domains:4 spin input)

exception Boom of int

let test_pool_exception_propagates () =
  (* a raising task surfaces the exception instead of hanging a worker *)
  match
    Pool.map ~domains:3 (fun i -> if i = 13 then raise (Boom i) else i)
      (List.init 40 (fun i -> i))
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 13 -> ()

let test_pool_usable_after_failed_wait () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      (match Pool.map_on pool (fun () -> raise (Boom 1)) [ () ] with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 1 -> ());
      (* the failure was cleared; the pool still runs chunks *)
      let hit = Atomic.make 0 in
      ignore
        (Pool.map_on pool (fun () -> Atomic.incr hit) (List.init 20 ignore));
      check_int "tasks after failure" 20 (Atomic.get hit))

let test_pool_submit_after_shutdown () =
  let pool = Pool.create ~domains:2 () in
  Pool.shutdown pool;
  match Pool.map_on pool Fun.id [ () ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_pool_map_on_reuse () =
  (* several maps over one pool: same results as fresh-pool maps, and the
     pool survives each round (what the serve daemon relies on) *)
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      for round = 1 to 4 do
        let n = 30 * round in
        let input = List.init n (fun i -> i) in
        Alcotest.(check (list int))
          (Printf.sprintf "round %d" round)
          (List.map (fun i -> i * round) input)
          (Pool.map_on pool ~chunk:3 (fun i -> i * round) input)
      done;
      Alcotest.(check (list int)) "empty input on live pool" []
        (Pool.map_on pool (fun x -> x) []))

let test_pool_map_on_usable_after_exception () =
  let pool = Pool.create ~domains:2 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      (match Pool.map_on pool (fun i -> if i = 3 then raise (Boom i) else i)
               (List.init 8 (fun i -> i)) with
      | _ -> Alcotest.fail "expected Boom"
      | exception Boom 3 -> ());
      (* the failure was cleared; the next map still works *)
      Alcotest.(check (list int)) "map after failure" [ 0; 2; 4 ]
        (Pool.map_on pool (fun i -> 2 * i) [ 0; 1; 2 ]))

let test_pool_chunk_exception_ordering () =
  (* Regression (pool.mli's exception contract): when f raises
     mid-chunk, the rest of that chunk is skipped and its result
     slots never written — the caller must see the chunk's own
     exception re-raised, never the internal assert on an unwritten
     slot.  Other chunks still run before the re-raise. *)
  let n = 8 in
  let visited = Array.make n false in
  let f i =
    visited.(i) <- true;
    if i = 1 then raise (Boom i);
    i
  in
  (match Pool.map ~domains:1 ~chunk:4 f (List.init n Fun.id) with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 1 -> ()
  | exception Assert_failure _ ->
      Alcotest.fail "unwritten chunk slot was read before the re-raise");
  (* same chunk after the raising element: skipped *)
  check_bool "element before the raise ran" true visited.(0);
  check_bool "raising element ran" true visited.(1);
  check_bool "rest of the failing chunk skipped" false (visited.(2) || visited.(3));
  (* the other chunk drains (single worker, so it ran before the re-raise) *)
  check_bool "later chunk still drained" true
    (visited.(4) && visited.(5) && visited.(6) && visited.(7))

let test_pool_multi_domain_exception_input_order () =
  (* Two raising elements land in different chunks.  Chunks are taken
     last-first, so the later one raises first in wall-clock time, and
     the input-earlier raiser also spins before raising, typically on
     another domain.  The map must still propagate the input-order-first
     failure (lowest chunk number), not the first one to fire, and the
     pool must stay joinable and usable afterwards. *)
  for round = 0 to 9 do
    let early = 5 and late = 29 in
    let f i =
      if i = early then begin
        let k = ref 0 in
        for _ = 1 to 2_000_000 do incr k done;
        ignore !k;
        raise (Boom i)
      end;
      if i = late then raise (Boom i);
      i
    in
    let pool = Pool.create ~domains:4 () in
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () ->
        (match Pool.map_on pool ~chunk:2 f (List.init 32 Fun.id) with
        | _ -> Alcotest.fail "expected Boom"
        | exception Boom i ->
            check_int
              (Printf.sprintf "round %d: first raise in input order" round)
              early i);
        (* the failure was cleared; workers survived the raise *)
        Alcotest.(check (list int))
          "pool usable after a failure on another domain" [ 0; 2; 4 ]
          (Pool.map_on pool (fun i -> 2 * i) [ 0; 1; 2 ]))
  done

let test_pool_not_on_calling_domain () =
  let here = Domain.self () in
  List.iter
    (fun domains ->
      let pool = Pool.create ~domains () in
      Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
          let ran_on =
            Pool.map_on pool (fun _ -> Domain.self ()) (List.init 40 Fun.id)
          in
          check_bool
            (Printf.sprintf "%d-domain pool: every chunk on a worker" domains)
            true
            (List.for_all (fun d -> d <> here) ran_on)))
    [ 1; 2; 3 ]

let test_pool_one_worker_last_first () =
  (* perfbench's "cross-domain minor words repeat" relies on this fixed
     order: a worker's per-domain scratch grows the same way every run *)
  let pool = Pool.create ~domains:1 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () ->
      let seen = ref [] in
      ignore
        (Pool.map_on pool ~chunk:3
           (fun i -> seen := i :: !seen)
           (List.init 10 Fun.id));
      Alcotest.(check (list int)) "chunks last-first, items in order"
        [ 9; 6; 7; 8; 3; 4; 5; 0; 1; 2 ] (List.rev !seen))

let test_pool_create_bound () =
  (* 100000 is past the bound, so no domain is spawned *)
  match Pool.create ~domains:100_000 () with
  | pool ->
      Pool.shutdown pool;
      Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* hand-rolled JSON *)

let sample_json =
  Stats.Json.(
    Obj
      [ ("name", String "batch \"x\"\n");
        ("ok", Bool true);
        ("none", Null);
        ("n", Int (-42));
        ("xs", List [ Int 1; Float 0.5; String "s"; List []; Obj [] ]);
        ("wall", Float 0.30000000000000004) ])

let test_json_writer () =
  check_string "rendering"
    "{\"name\": \"batch \\\"x\\\"\\n\", \"ok\": true, \"none\": null, \
     \"n\": -42, \"xs\": [1, 0.5, \"s\", [], {}], \
     \"wall\": 0.30000000000000004}"
    (Stats.Json.to_string sample_json)

let test_json_round_trip () =
  match Stats.Json.of_string (Stats.Json.to_string sample_json) with
  | Ok v -> check_bool "round trip" true (v = sample_json)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_json_number_forms () =
  let parse s =
    match Stats.Json.of_string s with
    | Ok v -> v
    | Error msg -> Alcotest.failf "parse %S failed: %s" s msg
  in
  check_bool "int" true (parse "3" = Stats.Json.Int 3);
  check_bool "negative int" true (parse "-7" = Stats.Json.Int (-7));
  check_bool "float" true (parse "3.5" = Stats.Json.Float 3.5);
  check_bool "exponent" true (parse "1e3" = Stats.Json.Float 1000.0);
  check_bool "float stays float" true
    (parse (Stats.Json.to_string (Stats.Json.Float 3.0)) = Stats.Json.Float 3.0)

let test_json_non_finite_floats () =
  (* JSON has no nan/infinity: the writer must never emit the raw %g
     spellings ("nan", "inf", "nan.0", ...), which no parser — including
     ours — would read back.  Non-finite floats are encoded as null. *)
  List.iter
    (fun f ->
      check_string "encoded as null" "null" (Stats.Json.to_string (Stats.Json.Float f)))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* writer-to-reader round trip: null reads back as Null *)
  (match Stats.Json.of_string (Stats.Json.to_string (Stats.Json.Float Float.nan)) with
  | Ok Stats.Json.Null -> ()
  | Ok _ -> Alcotest.fail "nan did not round-trip to Null"
  | Error msg -> Alcotest.failf "nan round trip does not parse: %s" msg);
  (* non-finite values nested in containers stay valid JSON too *)
  let nested =
    Stats.Json.(Obj [ ("xs", List [ Float Float.infinity; Int 1 ]) ])
  in
  match Stats.Json.of_string (Stats.Json.to_string nested) with
  | Ok v ->
      check_bool "infinity nested round trip" true
        (v = Stats.Json.(Obj [ ("xs", List [ Null; Int 1 ]) ]))
  | Error msg -> Alcotest.failf "nested round trip does not parse: %s" msg

let test_json_negative_zero () =
  (* -0.0 is finite and must survive a round trip with its sign *)
  let text = Stats.Json.to_string (Stats.Json.Float (-0.0)) in
  check_string "rendering" "-0.0" text;
  match Stats.Json.of_string text with
  | Ok (Stats.Json.Float f) ->
      check_bool "sign preserved" true (1.0 /. f = Float.neg_infinity)
  | Ok _ -> Alcotest.fail "-0.0 did not parse as a float"
  | Error msg -> Alcotest.failf "-0.0 does not parse: %s" msg

(* [Int]s are written digit by digit: the text is [string_of_int]'s,
   at the extremes and on random values of every magnitude. *)
let test_json_ints () =
  let rng = Random.State.make [| 24 |] in
  let random () =
    let bits = Random.State.bits64 rng in
    Int64.to_int (Int64.shift_right bits (Random.State.int rng 64))
  in
  List.iter
    (fun i ->
      check_string (string_of_int i) (string_of_int i)
        (Stats.Json.to_string (Stats.Json.Int i)))
    ([ 0; -1; 1; 9; 10; -9; -10; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.init 2000 (fun _ -> random ()))

let test_json_parse_errors () =
  List.iter
    (fun s ->
      match Stats.Json.of_string s with
      | Ok _ -> Alcotest.failf "expected parse error for %S" s
      | Error _ -> ())
    [ "{"; "[1,"; "\"unterminated"; "truish"; ""; "1 2"; "{\"a\" 1}" ]

(* [Json.of_string] against the per-byte yardstick: equal [Ok] values
   (floats compared bitwise) or byte-identical [Error] strings *)
let check_same_json text =
  let rec same a b =
    match (a, b) with
    | Stats.Json.Float x, Stats.Json.Float y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Stats.Json.List xs, Stats.Json.List ys ->
        List.length xs = List.length ys && List.for_all2 same xs ys
    | Stats.Json.Obj xs, Stats.Json.Obj ys ->
        List.length xs = List.length ys
        && List.for_all2 (fun (k, x) (l, y) -> String.equal k l && same x y) xs ys
    | a, b -> a = b
  in
  match (Json_legacy.of_string text, Stats.Json.of_string text) with
  | Ok a, Ok b -> if not (same a b) then Alcotest.failf "%S: values differ" text
  | Error a, Error b -> check_string (Printf.sprintf "error for %S" text) a b
  | Ok _, Error m -> Alcotest.failf "%S: only the yardstick parses (%s)" text m
  | Error m, Ok _ -> Alcotest.failf "%S: only the yardstick fails (%s)" text m

let test_json_strings_every_byte () =
  let all = String.init 256 Char.chr in
  (* each byte raw inside a literal: alone, around and between runs,
     unterminated *)
  for b = 0 to 255 do
    let c = String.make 1 (Char.chr b) in
    List.iter
      (fun t -> check_same_json ("\"" ^ t ^ "\""); check_same_json ("[\"" ^ t))
      [ c; "ab" ^ c; c ^ "cd"; "x\\n" ^ c ^ "y"; c ^ c ]
  done;
  check_same_json ("\"" ^ all ^ "\"");
  check_same_json (Stats.Json.to_string (Stats.Json.String all));
  check_same_json
    (Stats.Json.to_string
       (Stats.Json.Obj [ (all, Stats.Json.List [ Stats.Json.String all ]) ]))

let test_json_escapes () =
  let escapes =
    [ {|\"|}; {|\\|}; {|\/|}; {|\b|}; {|\f|}; {|\n|}; {|\r|}; {|\t|};
      {|\u0000|}; {|\u001f|}; {|\u0041|}; {|\u00e9|}; {|\u00E9|};
      {|\u20ac|}; {|\uffff|}; {|\ud7ff|}; {|\ue000|}; {|\uD800|};
      {|\udbff|}; {|\uDC00|}; {|\uDFFF|}; {|\ud83d\ude00|}; {|\u12|};
      {|\u|}; {|\u12g4|}; {|\u-123|}; {|\u 041|}; {|\x|}; {|\0|};
      {|\U0041|}; {|\|}; {|é|} ]
  in
  List.iter
    (fun e ->
      List.iter check_same_json
        [ "\"" ^ e ^ "\""; "\"" ^ e; "\"ab" ^ e ^ "cd\"";
          "\"" ^ e ^ e ^ "\""; "{\"" ^ e ^ "\": 1}"; "[\"" ^ e ^ "\", 2]" ])
    escapes

(* every prefix of a serve request, and the request itself *)
let test_json_request_prefixes () =
  let text =
    Parser.print_program (Array.to_list (random_block 7).Block.insns)
    ^ "tab:\there\r\n\"quoted\" \\ back\x01\xff"
  in
  let request =
    Stats.Json.to_string
      (Serve.request_to_json
         (Serve.Schedule
            { text; builder = Builder.Table_forward;
              strategy = Disambiguate.Base_offset;
              model = Latency.simple_risc }))
  in
  for k = 0 to String.length request do
    check_same_json (String.sub request 0 k)
  done

let test_json_member () =
  check_bool "member hit" true
    (Stats.Json.member "n" sample_json = Some (Stats.Json.Int (-42)));
  check_bool "member miss" true (Stats.Json.member "zzz" sample_json = None);
  check_bool "member of non-obj" true
    (Stats.Json.member "x" (Stats.Json.Int 1) = None)

let test_stats_to_json () =
  let s = Stats.of_ints [ 1; 2; 3 ] in
  let j = Stats.to_json s in
  check_bool "count" true (Stats.Json.member "count" j = Some (Stats.Json.Int 3));
  check_bool "mean" true (Stats.Json.member "mean" j = Some (Stats.Json.Float 2.0))

let test_table_render () =
  let t = Table.create ~title:"demo" [ "name"; "n" ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let out = Table.render t in
  check_bool "has title" true (String.length out > 0 && String.sub out 0 4 = "demo");
  check_bool "has rule" true (String.contains out '-');
  (* numeric right-alignment: " 1" under "n " *)
  let lines = String.split_on_char '\n' out in
  check_bool "enough lines" true (List.length lines >= 4)

let suite =
  [ quick "prng deterministic" test_prng_deterministic;
    quick "prng seeds differ" test_prng_seeds_differ;
    quick "prng bounds" test_prng_bounds;
    quick "prng weighted" test_prng_weighted;
    quick "prng shuffle permutes" test_prng_shuffle_permutes;
    quick "bitset basics" test_bitset_basics;
    quick "bitset growth" test_bitset_growth;
    quick "bitset union" test_bitset_union;
    quick "bitset subset/equal" test_bitset_subset_equal;
    quick "bitset elements" test_bitset_elements;
    quick "bitset negative raises" test_bitset_negative_raises;
    quick "bitset word boundaries" test_bitset_word_boundaries;
    quick "bitset model check" test_bitset_model_check;
    quick "matrix edges" test_matrix_edges;
    quick "stats" test_stats;
    quick "stats merge" test_stats_merge;
    quick "pool empty" test_pool_empty;
    quick "pool single" test_pool_single;
    quick "pool many items few workers" test_pool_many_items_few_workers;
    quick "pool ordering under uneven tasks" test_pool_ordering_uneven_tasks;
    quick "pool exception propagates" test_pool_exception_propagates;
    quick "pool usable after failed wait" test_pool_usable_after_failed_wait;
    quick "pool submit after shutdown" test_pool_submit_after_shutdown;
    quick "pool map_on reuses one pool" test_pool_map_on_reuse;
    quick "pool map_on usable after exception" test_pool_map_on_usable_after_exception;
    quick "pool chunk exception ordering" test_pool_chunk_exception_ordering;
    quick "pool multi-domain raise input order"
      test_pool_multi_domain_exception_input_order;
    quick "json writer" test_json_writer;
    quick "json round trip" test_json_round_trip;
    quick "json number forms" test_json_number_forms;
    quick "json non-finite floats" test_json_non_finite_floats;
    quick "json negative zero" test_json_negative_zero;
    quick "json parse errors" test_json_parse_errors;
    quick "json member" test_json_member;
    quick "stats to_json" test_stats_to_json;
    quick "table render" test_table_render;
    quick "json strings: every byte matches the yardstick"
      test_json_strings_every_byte;
    quick "json escapes match the yardstick" test_json_escapes;
    quick "json request prefixes match the yardstick"
      test_json_request_prefixes;
    quick "json ints spelled as string_of_int" test_json_ints;
    quick "pool runs no chunk on the calling domain"
      test_pool_not_on_calling_domain;
    quick "a one-worker pool runs chunks last-first"
      test_pool_one_worker_last_first;
    quick "pool create rejects more than max_domains workers"
      test_pool_create_bound ]
