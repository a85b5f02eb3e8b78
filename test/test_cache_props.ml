(** Randomized model check for the serve result cache
    (lib/driver/cache.ml).

    The cache is driven op-by-op against a reference model — a plain
    association list in recency order (most recently used first) with
    the same bounds and the same counter rules — and after {e every}
    operation the two must agree exactly: entry order (which fixes the
    eviction order), payloads, stored fingerprints, entry and byte
    occupancy, and all four monotone counters.  [Cache.selfcheck] (the
    intrusive-list/table invariant walk) also runs after every op, so a
    corrupted link or a table/list disagreement is caught at the op
    that introduced it, not at the end of the run.

    Tier-1 runs 1000 seeded interleavings; [dune build @slow] re-runs
    the suite with DAGSCHED_CACHE_PROPS_HEAVY=1, which multiplies the
    seed count and per-seed op count by 10.  Any failure names its
    seed. *)

open Dagsched

let heavy = Sys.getenv_opt "DAGSCHED_CACHE_PROPS_HEAVY" <> None
let scale n = if heavy then n * 10 else n

(* ------------------------------------------------------------------ *)
(* reference model *)

type model_entry = {
  m_text : string;
  m_config : Cache.config;
  m_fingerprint : int64;
  m_payload : string;
  m_bytes : int;
}

type model = {
  mx_entries : int;
  mx_bytes : int;
  (* recency order, MRU first — the reverse of eviction order *)
  mutable items : model_entry list;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejects : int;
}

let model_create ~max_entries ~max_bytes =
  { mx_entries = max 1 max_entries; mx_bytes = max 1 max_bytes;
    items = []; hits = 0; misses = 0; evictions = 0; rejects = 0 }

let model_same text config e =
  String.equal e.m_text text && e.m_config = config

let model_find m ~text config =
  match List.find_opt (model_same text config) m.items with
  | Some e ->
      m.items <- e :: List.filter (fun e' -> e' != e) m.items;
      m.hits <- m.hits + 1;
      Some e.m_payload
  | None ->
      m.misses <- m.misses + 1;
      None

let model_bytes m =
  List.fold_left (fun a e -> a + e.m_bytes) 0 m.items

let model_put m ~text ~fingerprint config ~payload =
  let ebytes = String.length text + String.length payload + Cache.entry_overhead in
  if ebytes > m.mx_bytes then m.rejects <- m.rejects + 1
  else begin
    (* replacing an existing entry is not an eviction *)
    m.items <- List.filter (fun e -> not (model_same text config e)) m.items;
    m.items <-
      { m_text = text; m_config = config; m_fingerprint = fingerprint;
        m_payload = payload; m_bytes = ebytes }
      :: m.items;
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

let config_to_string c =
  Printf.sprintf "%s/%s/%s" c.Cache.builder c.Cache.strategy c.Cache.model

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
    (fun i ((key, payload), e) ->
      if not (String.equal payload e.m_payload) then
        fail "payload mismatch at recency position %d" i;
      if key.Cache.config <> e.m_config then
        fail "config mismatch at position %d: cache %s, model %s" i
          (config_to_string key.Cache.config)
          (config_to_string e.m_config);
      if not (Int64.equal key.Cache.text_hash (Cache.hash_text e.m_text)) then
        fail "text hash mismatch at position %d" i;
      if not (Int64.equal key.Cache.fingerprint e.m_fingerprint) then
        fail "fingerprint mismatch at position %d" i)
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

let builders = [| "compare-forward"; "table-forward" |]
let strategies = [| "base-offset"; "symbolic" |]

let random_config rng =
  { Cache.builder = builders.(Prng.int rng (Array.length builders));
    strategy = strategies.(Prng.int rng (Array.length strategies));
    model = "simple-risc" }

(* a small text pool so lookups hit, replace and collide on purpose *)
let random_text rng = Printf.sprintf "text-%d" (Prng.int rng 12)

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
    let text = random_text rng in
    let config = random_config rng in
    (if Prng.int rng 2 = 0 then begin
       let expected = model_find m ~text config in
       let got =
         Option.map
           (fun (h : Cache.hit) -> h.Cache.payload)
           (Cache.find cache ~text config)
       in
       if got <> expected then
         Alcotest.failf "seed %d, op %d: find disagrees (cache %s, model %s)"
           seed op
           (match got with Some _ -> "hit" | None -> "miss")
           (match expected with Some _ -> "hit" | None -> "miss")
     end
     else begin
       let payload = random_payload rng in
       let fingerprint = Cache.hash_text payload in
       model_put m ~text ~fingerprint config ~payload;
       Cache.put cache ~text ~fingerprint config ~payload
     end);
    check_agree ~seed ~op cache m
  done

let test_model_check () =
  let seeds = scale 1000 in
  for seed = 0 to seeds - 1 do
    model_iteration seed
  done

(* the same interleavings with strict checks armed: after every find
   and put the cache itself re-walks its invariants AND compares the
   cache.bytes / cache.entries metrics gauges against the recomputed
   totals, so a gauge that drifts from reality fails at the op that
   introduced the drift.  One cache per seed with the registry reset:
   the gauges are process-global, so they track exactly one live
   cache's occupancy. *)
let test_strict_gauge_agreement () =
  let was_strict = Cache.strict_checks () in
  Metrics.disable ();
  Metrics.reset ();
  Metrics.enable ();
  Cache.set_strict_checks true;
  Fun.protect
    ~finally:(fun () ->
      Cache.set_strict_checks was_strict;
      Metrics.disable ();
      Metrics.reset ())
    (fun () ->
      let seeds = scale 60 in
      for seed = 0 to seeds - 1 do
        Metrics.reset ();
        model_iteration seed
      done)

(* ------------------------------------------------------------------ *)
(* deterministic corner cases *)

let cfg = { Cache.builder = "table-forward"; strategy = "base-offset";
            model = "simple-risc" }

let put_simple cache text payload =
  Cache.put cache ~text ~fingerprint:(Cache.hash_text text) cfg ~payload

let payloads cache =
  List.map (fun (_, p) -> p) (Cache.items cache)

let test_eviction_order () =
  let cache = Cache.create ~max_entries:3 ~max_bytes:max_int ()
  and payload = "p" in
  put_simple cache "a" payload;
  put_simple cache "b" payload;
  put_simple cache "c" payload;
  (* touch "a": it becomes MRU, so the next eviction takes "b" *)
  (match Cache.find cache ~text:"a" cfg with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a hit on \"a\"");
  put_simple cache "d" payload;
  let keys =
    List.map (fun (k, _) -> k.Cache.text_hash) (Cache.items cache)
  in
  let expect = List.map Cache.hash_text [ "d"; "a"; "c" ] in
  Alcotest.(check (list int64)) "recency order after eviction" expect keys;
  let s = Cache.stats cache in
  Alcotest.(check int) "one eviction" 1 s.Cache.evictions

let test_replacement_is_not_eviction () =
  let cache = Cache.create ~max_entries:4 ~max_bytes:max_int () in
  put_simple cache "a" "first";
  put_simple cache "a" "second";
  let s = Cache.stats cache in
  Alcotest.(check int) "one entry" 1 s.Cache.entries;
  Alcotest.(check int) "no evictions" 0 s.Cache.evictions;
  Alcotest.(check (list string)) "replaced payload" [ "second" ]
    (payloads cache)

let test_oversized_reject () =
  let cache = Cache.create ~max_entries:4 ~max_bytes:200 () in
  put_simple cache "small" "p";
  let occupancy_before = (Cache.stats cache).Cache.bytes in
  put_simple cache "big" (String.make 500 'x');
  let s = Cache.stats cache in
  Alcotest.(check int) "reject counted" 1 s.Cache.rejects;
  Alcotest.(check int) "no eviction churn" 0 s.Cache.evictions;
  Alcotest.(check int) "occupancy untouched" occupancy_before s.Cache.bytes;
  Alcotest.(check int) "existing entry survives" 1 s.Cache.entries

let test_byte_bound_eviction () =
  (* entries of ~(64 + 1 + 100) bytes against a 400-byte bound: the
     third insert must evict the oldest even though max_entries is 10 *)
  let cache = Cache.create ~max_entries:10 ~max_bytes:400 () in
  put_simple cache "a" (String.make 100 'a');
  put_simple cache "b" (String.make 100 'b');
  put_simple cache "c" (String.make 100 'c');
  let s = Cache.stats cache in
  Alcotest.(check int) "evicted to fit bytes" 1 s.Cache.evictions;
  Alcotest.(check int) "two entries left" 2 s.Cache.entries;
  Alcotest.(check bool) "bytes within bound" true (s.Cache.bytes <= 400);
  (match Cache.find cache ~text:"a" cfg with
  | None -> ()
  | Some _ -> Alcotest.fail "oldest entry should have been evicted");
  match Cache.selfcheck cache with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "selfcheck: %s" msg

let test_config_distinguishes () =
  let cache = Cache.create () in
  let cfg' = { cfg with Cache.builder = "compare-forward" } in
  put_simple cache "a" "table";
  Cache.put cache ~text:"a" ~fingerprint:0L cfg' ~payload:"compare";
  Alcotest.(check int) "two entries" 2 (Cache.stats cache).Cache.entries;
  (match Cache.find cache ~text:"a" cfg with
  | Some h -> Alcotest.(check string) "table payload" "table" h.Cache.payload
  | None -> Alcotest.fail "expected hit under the table config");
  match Cache.find cache ~text:"a" cfg' with
  | Some h -> Alcotest.(check string) "compare payload" "compare" h.Cache.payload
  | None -> Alcotest.fail "expected hit under the compare config"

let test_fingerprint_returned () =
  let cache = Cache.create () in
  Cache.put cache ~text:"a" ~fingerprint:0x1234L cfg ~payload:"p";
  match Cache.find cache ~text:"a" cfg with
  | Some h ->
      Alcotest.(check int64) "stored fingerprint comes back" 0x1234L
        h.Cache.key.Cache.fingerprint
  | None -> Alcotest.fail "expected a hit"

(* The text half of the key is standard FNV-1a-64: the published test
   vectors pin it, so a rewrite of the byte loop cannot change a key.
   It allocates only its boxed result however long the text. *)
let test_fnv_vectors () =
  List.iter
    (fun (text, want) ->
      Alcotest.(check string) (Printf.sprintf "%S" text) want
        (Printf.sprintf "%016Lx" (Cache.hash_text text)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c");
      ("foobar", "85944171f73967e8") ];
  Alcotest.(check string) "fold of 0 from the seed" "a8c7f832281a39c5"
    (Printf.sprintf "%016Lx" (Cache.hash_fold_int64 Cache.hash_seed 0L));
  let text = String.make 65536 'x' in
  let words f =
    let m0 = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. m0
  in
  let w = words (fun () -> Cache.hash_text text) in
  if w > 16.0 then Alcotest.failf "hash_text of 64 KiB allocated %.0f words" w;
  let w = words (fun () -> Cache.hash_fold_int64 Cache.hash_seed 42L) in
  if w > 16.0 then Alcotest.failf "hash_fold_int64 allocated %.0f words" w

let suite =
  [ Alcotest.test_case "FNV-1a test vectors" `Quick test_fnv_vectors;
    Alcotest.test_case "model check (seeded interleavings)" `Quick
      test_model_check;
    Alcotest.test_case "strict checks: gauges never drift" `Quick
      test_strict_gauge_agreement;
    Alcotest.test_case "eviction order follows recency" `Quick
      test_eviction_order;
    Alcotest.test_case "replacement is not an eviction" `Quick
      test_replacement_is_not_eviction;
    Alcotest.test_case "oversized entry rejected outright" `Quick
      test_oversized_reject;
    Alcotest.test_case "byte bound evicts before entry bound" `Quick
      test_byte_bound_eviction;
    Alcotest.test_case "config is part of the key" `Quick
      test_config_distinguishes;
    Alcotest.test_case "hit returns the stored fingerprint" `Quick
      test_fingerprint_returned ]
