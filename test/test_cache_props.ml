(** Randomized model check for the serve result cache
    (lib/driver/cache.ml).

    The cache is driven op-by-op against a reference model of SIEVE — a
    plain list in insertion order (newest first) with a visited flag per
    entry and the hand as an index into the list, the same bounds and
    the same counter rules — and after {e every} operation the two must
    agree exactly: queue order, requests, responses, entry and byte
    occupancy, and all four monotone counters.  [Cache.selfcheck] (the
    intrusive-list/table invariant walk) also runs after every op, so a
    corrupted link or a table/list disagreement is caught at the op
    that introduced it, not at the end of the run.

    Tier-1 runs 1000 seeded interleavings; [dune build @slow] re-runs
    the suite with DAGSCHED_CACHE_PROPS_HEAVY=1, which multiplies the
    seed count and per-seed op count by 10.  Any failure names its
    seed.

    The LRU model the cache used to follow stays here as a yardstick:
    replayed over seeded Zipf streams shaped like perfbench's
    [serve_zipf], SIEVE must miss less than it. *)

open Dagsched

let heavy = Sys.getenv_opt "DAGSCHED_CACHE_PROPS_HEAVY" <> None
let scale n = if heavy then n * 10 else n

(* ------------------------------------------------------------------ *)
(* reference model *)

type model_entry = {
  m_request : string;
  m_response : string;
  m_bytes : int;
  mutable m_visited : bool;  (* SIEVE only *)
}

type model = {
  mx_entries : int;
  mx_bytes : int;
  (* SIEVE: insertion order, newest first; LRU: recency order, MRU
     first *)
  mutable items : model_entry list;
  (* SIEVE only: the index in [items] of the next eviction candidate;
     [None] stands for the tail *)
  mutable hand : int option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejects : int;
}

let model_create ~max_entries ~max_bytes =
  { mx_entries = max 1 max_entries; mx_bytes = max 1 max_bytes;
    items = []; hand = None; hits = 0; misses = 0; evictions = 0;
    rejects = 0 }

let model_same request e = String.equal e.m_request request

let model_bytes m =
  List.fold_left (fun a e -> a + e.m_bytes) 0 m.items

let model_entry request response =
  { m_request = request; m_response = response;
    m_bytes =
      String.length request + String.length response + Cache.entry_overhead;
    m_visited = false }

(* ---- SIEVE ---- *)

(* a miss is counted only when the caller says the request was a
   cacheable one ([counted]); a hit sets the visited flag and moves
   nothing *)
let model_find m ~counted request =
  match List.find_opt (model_same request) m.items with
  | Some e ->
      e.m_visited <- true;
      m.hits <- m.hits + 1;
      Some e.m_response
  | None ->
      if counted then m.misses <- m.misses + 1;
      None

(* drop index [i]; a hand on it moves to the newer neighbour (index
   [i - 1], or past the head to the tail), a hand behind it shifts *)
let model_remove m i =
  m.items <- List.filteri (fun j _ -> j <> i) m.items;
  m.hand <-
    (match m.hand with
    | Some h when h = i -> if i = 0 then None else Some (i - 1)
    | Some h when h > i -> Some (h - 1)
    | hand -> hand)

(* the hand passes over the head, index 0: the entry being put *)
let rec model_evict m =
  let i =
    match m.hand with Some h -> h | None -> List.length m.items - 1
  in
  let e = List.nth m.items i in
  if e.m_visited || i = 0 then begin
    e.m_visited <- false;
    m.hand <- (if i = 0 then None else Some (i - 1));
    model_evict m
  end
  else begin
    model_remove m i;
    m.evictions <- m.evictions + 1
  end

let model_put m request response =
  let e = model_entry request response in
  if e.m_bytes > m.mx_bytes then m.rejects <- m.rejects + 1
  else begin
    (* replacing an existing entry is not an eviction *)
    Option.iter (model_remove m) (List.find_index (model_same request) m.items);
    m.items <- e :: m.items;
    m.hand <- Option.map succ m.hand;
    while List.length m.items > m.mx_entries || model_bytes m > m.mx_bytes do
      model_evict m
    done
  end

(* ---- LRU, the yardstick ---- *)

let lru_find m ~counted request =
  match List.find_opt (model_same request) m.items with
  | Some e ->
      m.items <- e :: List.filter (fun e' -> e' != e) m.items;
      m.hits <- m.hits + 1;
      Some e.m_response
  | None ->
      if counted then m.misses <- m.misses + 1;
      None

let lru_put m request response =
  let e = model_entry request response in
  if e.m_bytes > m.mx_bytes then m.rejects <- m.rejects + 1
  else begin
    (* replacing an existing entry is not an eviction *)
    m.items <- List.filter (fun e -> not (model_same request e)) m.items;
    m.items <- e :: m.items;
    while
      List.length m.items > m.mx_entries || model_bytes m > m.mx_bytes
    do
      (* drop the least recently used: the list tail *)
      m.items <- List.filteri (fun i _ -> i < List.length m.items - 1) m.items;
      m.evictions <- m.evictions + 1
    done
  end

(* ------------------------------------------------------------------ *)
(* agreement *)

let check_agree ~seed ~op cache m =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Alcotest.failf "seed %d, op %d: %s" seed op msg)
      fmt
  in
  (match Cache.selfcheck cache with
  | Ok () -> ()
  | Error msg -> fail "selfcheck: %s" msg);
  let items = Cache.items cache in
  if List.length items <> List.length m.items then
    fail "entry count: cache %d, model %d" (List.length items)
      (List.length m.items);
  List.iteri
    (fun i ((request, response), e) ->
      if not (String.equal request e.m_request) then
        fail "request mismatch at queue position %d: cache %S, model %S" i
          request e.m_request;
      if not (String.equal response e.m_response) then
        fail "response mismatch at queue position %d" i)
    (List.combine items m.items);
  let s = Cache.stats cache in
  if s.Cache.entries <> List.length m.items then
    fail "stats.entries %d, model %d" s.Cache.entries (List.length m.items);
  if s.Cache.bytes <> model_bytes m then
    fail "stats.bytes %d, model %d" s.Cache.bytes (model_bytes m);
  if s.Cache.hits <> m.hits then fail "hits %d, model %d" s.Cache.hits m.hits;
  if s.Cache.misses <> m.misses then
    fail "misses %d, model %d" s.Cache.misses m.misses;
  if s.Cache.evictions <> m.evictions then
    fail "evictions %d, model %d" s.Cache.evictions m.evictions;
  if s.Cache.rejects <> m.rejects then
    fail "rejects %d, model %d" s.Cache.rejects m.rejects;
  if s.Cache.entries > Cache.max_entries cache then
    fail "entry bound exceeded: %d > %d" s.Cache.entries
      (Cache.max_entries cache);
  if s.Cache.bytes > Cache.max_bytes cache then
    fail "byte bound exceeded: %d > %d" s.Cache.bytes (Cache.max_bytes cache)

(* ------------------------------------------------------------------ *)
(* the seeded interleaving *)

(* keys from a small pool (12 texts x 2 builders x 2 strategies, the
   configuration as two digits) so lookups hit, replace and collide on
   purpose; keys differing only in configuration are distinct *)
let random_request rng =
  Printf.sprintf "text-%d/%d%d" (Prng.int rng 12) (Prng.int rng 2)
    (Prng.int rng 2)

let random_payload rng =
  (* occasionally huge, to exercise the single-entry reject path *)
  let n =
    if Prng.int rng 20 = 0 then 400 + Prng.int rng 200
    else Prng.int rng 60
  in
  String.make n (Char.chr (Char.code 'a' + Prng.int rng 26))

let model_iteration seed =
  let rng = Prng.create (0xcac4e000 + seed) in
  let max_entries = 1 + Prng.int rng 8 in
  (* byte bound tight enough that byte-driven eviction happens even
     when the entry bound alone would not trigger *)
  let max_bytes = 150 + Prng.int rng 400 in
  let cache = Cache.create ~max_entries ~max_bytes () in
  let m = model_create ~max_entries ~max_bytes in
  let ops = scale 100 in
  for op = 1 to ops do
    let request = random_request rng in
    (if Prng.int rng 2 = 0 then begin
       (* most lookups stand for schedule requests, whose misses count;
          the rest for ping/stats/bad requests, whose misses do not *)
       let counted = Prng.int rng 4 <> 0 in
       let expected = model_find m ~counted request in
       let got = Cache.find cache request in
       if got = None && counted then Cache.count_miss cache;
       if got <> expected then
         Alcotest.failf "seed %d, op %d: find disagrees (cache %s, model %s)"
           seed op
           (match got with Some _ -> "hit" | None -> "miss")
           (match expected with Some _ -> "hit" | None -> "miss")
     end
     else begin
       let response = random_payload rng in
       model_put m request response;
       Cache.put cache request response
     end);
    check_agree ~seed ~op cache m
  done

let test_model_check () =
  let seeds = scale 1000 in
  for seed = 0 to seeds - 1 do
    model_iteration seed
  done

(* the same interleavings with strict checks armed: after every find
   and put the cache itself re-runs [selfcheck], whose byte and entry
   totals are recomputed from the entries, so an occupancy count that
   drifts from reality fails at the op that introduced the drift *)
let test_strict_selfcheck () =
  let was_strict = Cache.strict_checks () in
  Cache.set_strict_checks true;
  Fun.protect
    ~finally:(fun () -> Cache.set_strict_checks was_strict)
    (fun () ->
      let seeds = scale 60 in
      for seed = 0 to seeds - 1 do
        model_iteration seed
      done)

(* ------------------------------------------------------------------ *)
(* deterministic corner cases *)

let responses cache =
  List.map (fun (_, r) -> r) (Cache.items cache)

let keys cache = List.map fst (Cache.items cache)

let hit cache request =
  match Cache.find cache request with
  | Some _ -> ()
  | None -> Alcotest.failf "expected a hit on %S" request

let test_eviction_order () =
  let cache = Cache.create ~max_entries:3 ~max_bytes:max_int ()
  and response = "p" in
  Cache.put cache "a" response;
  Cache.put cache "b" response;
  Cache.put cache "c" response;
  (* a hit on "a" sets its bit: the hand, starting at the tail, clears
     it and moves on, so the eviction takes "b", and "a" keeps its
     place in the queue *)
  hit cache "a";
  Cache.put cache "d" response;
  Alcotest.(check (list string)) "queue order after eviction"
    [ "d"; "c"; "a" ] (keys cache);
  let s = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

(* the hand clears a visited entry's bit as it passes, so the entry
   outlives that pass, and only that one unless it is hit again *)
let test_visited_survives_one_pass () =
  let cache = Cache.create ~max_entries:3 ~max_bytes:max_int () in
  List.iter (fun k -> Cache.put cache k "p") [ "a"; "b"; "c" ];
  hit cache "a";
  Cache.put cache "d" "p";
  Alcotest.(check (list string)) "the hand passes a and evicts b"
    [ "d"; "c"; "a" ] (keys cache);
  (* the hand clears c and d, passes the new head e, wraps to the tail
     and takes a, whose bit the first pass spent *)
  hit cache "c";
  hit cache "d";
  Cache.put cache "e" "p";
  Alcotest.(check (list string)) "a's bit is spent: the hand takes it"
    [ "e"; "d"; "c" ] (keys cache);
  Alcotest.(check int) "two evictions" 2 (Cache.stats cache).Cache.evictions;
  match Cache.selfcheck cache with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "selfcheck: %s" msg

let test_replacement_is_not_eviction () =
  let cache = Cache.create ~max_entries:4 ~max_bytes:max_int () in
  Cache.put cache "a" "first";
  Cache.put cache "a" "second";
  let s = Cache.stats cache in
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions;
  Alcotest.(check (list string)) "replaced response" [ "second" ]
    (responses cache)

let test_oversized_reject () =
  let cache = Cache.create ~max_entries:4 ~max_bytes:200 () in
  Cache.put cache "small" "p";
  let occupancy_before = (Cache.stats cache).Cache.bytes in
  Cache.put cache "big" (String.make 500 'x');
  let s = Cache.stats cache in
  Alcotest.(check int) "reject counted" 1 s.Cache.rejects;
  Alcotest.(check int) "no eviction churn" 0 s.Cache.evictions;
  Alcotest.(check int) "occupancy untouched" occupancy_before s.Cache.bytes;
  Alcotest.(check int) "existing entry survives" 1 s.Cache.entries

let test_byte_bound_eviction () =
  (* entries of ~(64 + 1 + 100) bytes against a 400-byte bound: the
     third insert must evict the oldest even though max_entries is 10 *)
  let cache = Cache.create ~max_entries:10 ~max_bytes:400 () in
  Cache.put cache "a" (String.make 100 'a');
  Cache.put cache "b" (String.make 100 'b');
  Cache.put cache "c" (String.make 100 'c');
  let s = Cache.stats cache in
  Alcotest.(check int) "evicted to fit bytes" 1 s.Cache.evictions;
  Alcotest.(check int) "two entries left" 2 s.Cache.entries;
  Alcotest.(check bool) "bytes within bound" true (s.Cache.bytes <= 400);
  (match Cache.find cache "a" with
  | None -> ()
  | Some _ -> Alcotest.fail "oldest entry should have been evicted");
  match Cache.selfcheck cache with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "selfcheck: %s" msg

(* the configuration travels in the request bytes: two requests for the
   same text under different builders are two entries *)
let test_config_distinguishes () =
  let request builder =
    Json.to_string
      (Serve.request_to_json
         (Serve.Schedule
            { text = "nop\n"; builder; strategy = Disambiguate.Base_offset;
              model = Latency.simple_risc }))
  in
  let table = request Builder.Table_forward
  and compare = request Builder.N2_forward in
  let cache = Cache.create () in
  Cache.put cache table "table";
  Cache.put cache compare "compare";
  Alcotest.(check int) "two entries" 2 (Cache.stats cache).Cache.entries;
  Alcotest.(check (option string)) "table response" (Some "table")
    (Cache.find cache table);
  Alcotest.(check (option string)) "compare response" (Some "compare")
    (Cache.find cache compare)

let test_response_returned () =
  let cache = Cache.create () in
  let response = "{\"status\": \"ok\"}" in
  Cache.put cache "a" response;
  match Cache.find cache "a" with
  | Some r ->
      Alcotest.(check bool) "the stored response itself comes back" true
        (r == response)
  | None -> Alcotest.fail "expected a hit"

(* every request at one address: a lookup that finds another request
   there is a miss, and the put that follows replaces that entry *)
let test_collision_refused () =
  let cache = Cache.create ~hash:(fun _ -> 42L) () in
  Cache.put cache "a" "for a";
  Alcotest.(check (option string)) "same address, other request: miss"
    None (Cache.find cache "b");
  Cache.put cache "b" "for b";
  let s = Cache.stats cache in
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check int) "replacement, not eviction" 0 s.Cache.evictions;
  Alcotest.(check (option string)) "displaced request misses" None
    (Cache.find cache "a");
  Alcotest.(check (option string)) "new request hits" (Some "for b")
    (Cache.find cache "b");
  Alcotest.(check int) "find counted no miss" 0 (Cache.stats cache).Cache.misses;
  match Cache.selfcheck cache with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "selfcheck: %s" msg

(* a miss and the put that follows hash the request once; a put of an
   equal but distinct string hashes it again *)
let test_miss_hashes_once () =
  (* strict checks rehash every entry: keep them out of the count *)
  let was_strict = Cache.strict_checks () in
  Cache.set_strict_checks false;
  Fun.protect ~finally:(fun () -> Cache.set_strict_checks was_strict)
  @@ fun () ->
  let calls = ref 0 in
  let cache =
    Cache.create ~hash:(fun s -> incr calls; Cache.hash s) ()
  in
  let request = String.concat "" [ "req"; "uest" ] in
  calls := 0;
  ignore (Cache.find cache request);
  Cache.put cache request "r";
  Alcotest.(check int) "find + put: one hash" 1 !calls;
  Cache.put cache (String.concat "" [ "req"; "uest" ]) "r'";
  Alcotest.(check int) "a copy is hashed" 2 !calls;
  Alcotest.(check int) "still one entry" 1 (Cache.stats cache).Cache.entries

(* A byte-at-a-time XXH64 (seed 0) over [len] bytes of [s] from [off],
   written straight from the xxHash specification: every lane is
   assembled from single bytes, so it shares no word reads with
   [Cache.hash]. *)
let reference_xxh64 s off len =
  let p1 = 0x9E3779B185EBCA87L and p2 = 0xC2B2AE3D27D4EB4FL
  and p3 = 0x165667B19E3779F9L and p4 = 0x85EBCA77C2B2AE63L
  and p5 = 0x27D4EB2F165667C5L in
  let ( +: ) = Int64.add and ( *: ) = Int64.mul and ( ^: ) = Int64.logxor in
  let rotl x r =
    Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))
  in
  let byte i = Int64.of_int (Char.code s.[off + i]) in
  let lane i n =
    let v = ref 0L in
    for k = n - 1 downto 0 do
      v := Int64.logor (Int64.shift_left !v 8) (byte (i + k))
    done;
    !v
  in
  let round acc input = rotl (acc +: (input *: p2)) 31 *: p1 in
  let merge acc v = ((acc ^: round 0L v) *: p1) +: p4 in
  let pos = ref 0 in
  let acc =
    if len < 32 then ref p5
    else begin
      let v = [| p1 +: p2; p2; 0L; Int64.neg p1 |] in
      while len - !pos >= 32 do
        for k = 0 to 3 do
          v.(k) <- round v.(k) (lane (!pos + (8 * k)) 8)
        done;
        pos := !pos + 32
      done;
      let acc =
        rotl v.(0) 1 +: rotl v.(1) 7 +: rotl v.(2) 12 +: rotl v.(3) 18
      in
      ref (Array.fold_left merge acc v)
    end
  in
  acc := !acc +: Int64.of_int len;
  while len - !pos >= 8 do
    acc := (rotl (!acc ^: round 0L (lane !pos 8)) 27 *: p1) +: p4;
    pos := !pos + 8
  done;
  if len - !pos >= 4 then begin
    acc := (rotl (!acc ^: (lane !pos 4 *: p1)) 23 *: p2) +: p3;
    pos := !pos + 4
  end;
  while !pos < len do
    acc := rotl (!acc ^: (byte !pos *: p5)) 11 *: p1;
    incr pos
  done;
  let h = !acc in
  let h = (h ^: Int64.shift_right_logical h 33) *: p2 in
  let h = (h ^: Int64.shift_right_logical h 29) *: p3 in
  h ^: Int64.shift_right_logical h 32

(* The address is XXH64 with seed 0: the published test vectors pin it,
   and a byte-at-a-time reference agrees on every length through every
   stripe and tail path, so a rewrite of the word loop cannot change an
   address.  It allocates only its boxed result however long the
   request. *)
let test_xxh64_vectors () =
  let hex = Printf.sprintf "%016Lx" in
  List.iter
    (fun (text, want) ->
      Alcotest.(check string) (Printf.sprintf "%S" text) want
        (hex (Cache.hash text)))
    [ ("", "ef46db3751d8e999"); ("a", "d24ec4f1a98c6e5b");
      ("abc", "44bc2cf5ad770999");
      (* 63 bytes: a stripe, then every tail path *)
      ( "Call me Ishmael. Some years ago--never mind how long precisely-",
        "02a2e85470d6fd96" ) ];
  let base = String.init 200 (fun i -> Char.chr ((i * 131 + 17) land 0xff)) in
  for off = 0 to 7 do
    for len = 0 to 100 do
      Alcotest.(check string)
        (Printf.sprintf "offset %d, length %d" off len)
        (hex (reference_xxh64 base off len))
        (hex (Cache.hash (String.sub base off len)))
    done
  done;
  let text = String.make 65536 'x' in
  Alcotest.(check string) "64 KiB" (hex (reference_xxh64 text 0 65536))
    (hex (Cache.hash text));
  let m0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (Cache.hash text));
  let w = Gc.minor_words () -. m0 in
  if w > 16.0 then Alcotest.failf "hash of 64 KiB allocated %.0f words" w

(* ------------------------------------------------------------------ *)
(* the gain over LRU, on counts *)

(* [n] requests over [items] keys, key [i] drawn with weight 1/(i+1):
   each key's exact share, rounded down, the remainder handed out by
   largest fraction, the whole shuffled — the shape of perfbench's
   [serve_zipf] stream *)
let zipf_stream ~seed ~n ~items =
  let weight i = 1.0 /. float_of_int (i + 1) in
  let total = ref 0.0 in
  for i = 0 to items - 1 do total := !total +. weight i done;
  let exact =
    Array.init items (fun i -> float_of_int n *. weight i /. !total)
  in
  let counts = Array.map int_of_float exact in
  let remainder i = exact.(i) -. float_of_int counts.(i) in
  let by_remainder = Array.init items Fun.id in
  Array.stable_sort
    (fun a b -> Float.compare (remainder b) (remainder a))
    by_remainder;
  for k = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(by_remainder.(k)) <- counts.(by_remainder.(k)) + 1
  done;
  let stream =
    Array.concat (List.init items (fun i -> Array.make counts.(i) i))
  in
  Prng.shuffle (Prng.create ((seed * 0x2545f491) + 0x21bf)) stream;
  stream

(* Twenty seeded Zipf(s=1) streams of 2,000 requests over 64 keys
   through a 24-entry cache, as the serve daemon runs them (a miss is
   counted, then put): SIEVE hits at least as often as the LRU yardstick
   on every stream, and misses at least 10% less over all of them.  The
   threshold is fixed (EXPERIMENTS.md); the cache is deterministic, so
   these are exact counts, not timings. *)
let test_sieve_beats_lru () =
  let sieve_misses = ref 0 and lru_misses = ref 0 in
  for seed = 0 to 19 do
    let cache = Cache.create ~max_entries:24 ~max_bytes:max_int () in
    let lru = model_create ~max_entries:24 ~max_bytes:max_int in
    Array.iter
      (fun key ->
        let request = Printf.sprintf "program-%d" key in
        if Cache.find cache request = None then begin
          Cache.count_miss cache;
          Cache.put cache request "r"
        end;
        if lru_find lru ~counted:true request = None then
          lru_put lru request "r")
      (zipf_stream ~seed ~n:2000 ~items:64);
    let s = Cache.stats cache in
    if s.Cache.hits < lru.hits then
      Alcotest.failf "seed %d: SIEVE %d hits, LRU %d" seed s.Cache.hits
        lru.hits;
    sieve_misses := !sieve_misses + s.Cache.misses;
    lru_misses := !lru_misses + lru.misses
  done;
  if 10 * !sieve_misses > 9 * !lru_misses then
    Alcotest.failf "misses over 20 streams: SIEVE %d, LRU %d (want <= 90%%)"
      !sieve_misses !lru_misses

let suite =
  [ Alcotest.test_case "XXH64 test vectors" `Quick test_xxh64_vectors;
    Alcotest.test_case "model check (seeded interleavings)" `Quick
      test_model_check;
    Alcotest.test_case "strict checks: selfcheck after every mutation" `Quick
      test_strict_selfcheck;
    Alcotest.test_case "eviction follows the SIEVE hand" `Quick
      test_eviction_order;
    Alcotest.test_case "replacement is not an eviction" `Quick
      test_replacement_is_not_eviction;
    Alcotest.test_case "oversized entry rejected outright" `Quick
      test_oversized_reject;
    Alcotest.test_case "byte bound evicts before entry bound" `Quick
      test_byte_bound_eviction;
    Alcotest.test_case "config is part of the key" `Quick
      test_config_distinguishes;
    Alcotest.test_case "hit returns the stored response" `Quick
      test_response_returned;
    Alcotest.test_case "address collision is a miss, then a replacement"
      `Quick test_collision_refused;
    Alcotest.test_case "a miss hashes its request once" `Quick
      test_miss_hashes_once;
    Alcotest.test_case "a visited entry survives one pass of the hand" `Quick
      test_visited_survives_one_pass;
    Alcotest.test_case "SIEVE misses at least 10% less than LRU on Zipf streams"
      `Quick test_sieve_beats_lru ]
