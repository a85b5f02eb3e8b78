(** Bounded LRU result cache, full-key-compared on lookup.  See
    cache.mli for the contract. *)

type config = { builder : string; strategy : string; model : string }

type key = {
  text_hash : int64;
  fingerprint : int64;
  config : config;
}

(* 64-bit FNV-1a.  The accumulators are local refs no closure captures,
   so the compiler keeps them unboxed: a hash allocates only its
   result. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let hash_text s =
  let h = ref fnv_offset in
  for i = 0 to String.length s - 1 do
    h := fnv_byte !h (Char.code (String.unsafe_get s i))
  done;
  !h

let hash_seed = fnv_offset

let hash_fold_int64 h v =
  let h = ref h in
  for i = 0 to 7 do
    h :=
      fnv_byte !h
        (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xFFL))
  done;
  !h

let entry_overhead = 64

type entry = {
  ekey : key;
  text : string;    (* full request text: byte-compared on lookup *)
  payload : string;
  ebytes : int;
  mutable prev : entry option;  (* toward MRU *)
  mutable next : entry option;  (* toward LRU *)
}

(* the table is addressed by the (text_hash, config) projection of the
   key — same text + config deterministically implies the same
   fingerprint, so the projection identifies the full key; the stored
   entry carries the whole thing and [find] compares text and config
   byte-for-byte before serving *)
module Addr = struct
  type t = int64 * config

  let equal (h1, c1) (h2, c2) = Int64.equal h1 h2 && c1 = c2

  let hash (h, c) =
    Hashtbl.hash (Int64.to_int h, c.builder, c.strategy, c.model)
end

module Tbl = Hashtbl.Make (Addr)

type t = {
  max_entries : int;
  max_bytes : int;
  table : entry Tbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable entries : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejects : int;
  mutable missed_text : string;  (* the last text [find] missed, and   *)
  mutable missed_hash : int64;   (* its hash, for the [put] that follows *)
}

(* metrics registry counters (gated: no-ops unless --metrics/--trace
   enabled the registry); cache.bytes and cache.entries are gauges
   maintained by deltas *)
let m_hits = Ds_obs.Metrics.counter "cache.hits"
let m_misses = Ds_obs.Metrics.counter "cache.misses"
let m_evictions = Ds_obs.Metrics.counter "cache.evictions"
let m_bytes = Ds_obs.Metrics.counter "cache.bytes"
let m_entries = Ds_obs.Metrics.counter "cache.entries"

let create ?(max_entries = 4096) ?(max_bytes = 256 * 1024 * 1024) () =
  { max_entries = max 1 max_entries;
    max_bytes = max 1 max_bytes;
    table = Tbl.create 64;
    mru = None; lru = None;
    entries = 0; bytes = 0;
    hits = 0; misses = 0; evictions = 0; rejects = 0;
    missed_text = ""; missed_hash = hash_text "" }

let max_entries t = t.max_entries
let max_bytes t = t.max_bytes

let addr_of e = (e.ekey.text_hash, e.ekey.config)

(* ---------------- intrusive recency list ---------------- *)

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.mru <- e.next);
  (match e.next with Some n -> n.prev <- e.prev | None -> t.lru <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.mru;
  (match t.mru with Some m -> m.prev <- Some e | None -> t.lru <- Some e);
  t.mru <- Some e

(* ---------------- selfcheck ---------------- *)

let selfcheck t =
  let ( let* ) = Result.bind in
  (* walk MRU->LRU checking back links, table agreement and uniqueness *)
  let rec walk n bytes seen prev = function
    | None ->
        let tail_ok =
          match (prev, t.lru) with
          | None, None -> true
          | Some p, Some l -> p == l
          | _ -> false
        in
        if tail_ok then Ok (n, bytes)
        else Error "lru pointer does not match list tail"
    | Some e ->
        let addr = addr_of e in
        let* () =
          if List.mem addr seen then Error "duplicate address in recency list"
          else Ok ()
        in
        let* () =
          match (e.prev, prev) with
          | None, None -> Ok ()
          | Some a, Some b when a == b -> Ok ()
          | _ -> Error "broken prev link in recency list"
        in
        let* () =
          match Tbl.find_opt t.table addr with
          | Some e' when e' == e -> Ok ()
          | Some _ -> Error "recency list entry shadowed in table"
          | None -> Error "recency list entry missing from table"
        in
        walk (n + 1) (bytes + e.ebytes) (addr :: seen) (Some e) e.next
  in
  let* n, bytes = walk 0 0 [] None t.mru in
  if n <> t.entries then Error "entry count does not match list length"
  else if n <> Tbl.length t.table then
    Error "table size does not match list length"
  else if bytes <> t.bytes then Error "byte total does not match entries"
  else if t.entries > t.max_entries then Error "entry bound violated"
  else if t.bytes > t.max_bytes then Error "byte bound violated"
  else Ok ()

(* strict mode: re-run [selfcheck] after every mutation and require the
   Metrics gauge mirrors to equal the recomputed totals.  O(n) per
   operation, so opt-in (tests, debugging) — never the service path. *)
let strict =
  ref
    (match Sys.getenv_opt "DAGSCHED_CACHE_STRICT" with
    | Some s when s <> "" && s <> "0" -> true
    | _ -> false)

let set_strict_checks b = strict := b
let strict_checks () = !strict

let strict_check t =
  if !strict then begin
    (match selfcheck t with
    | Ok () -> ()
    | Error msg -> failwith ("Cache strict check: " ^ msg));
    (* gauge mirrors only move while the registry records, so they are
       comparable only when it is enabled (and has been for this
       cache's whole life — the strict harness's responsibility) *)
    if Ds_obs.Metrics.is_enabled () then begin
      let gb = Ds_obs.Metrics.value m_bytes in
      let ge = Ds_obs.Metrics.value m_entries in
      if gb <> t.bytes then
        failwith
          (Printf.sprintf
             "Cache strict check: cache.bytes gauge %d, recomputed %d" gb
             t.bytes);
      if ge <> t.entries then
        failwith
          (Printf.sprintf
             "Cache strict check: cache.entries gauge %d, recomputed %d" ge
             t.entries)
    end
  end

(* ---------------- operations ---------------- *)

type hit = { key : key; payload : string }

let find t ~text config =
  let result =
    let h = hash_text text in
    match Tbl.find_opt t.table (h, config) with
    | Some e when String.equal e.text text && e.ekey.config = config ->
        unlink t e;
        push_front t e;
        t.hits <- t.hits + 1;
        Ds_obs.Metrics.incr m_hits;
        Some { key = e.ekey; payload = e.payload }
    | Some _ | None ->
        (* a same-address entry whose stored text differs is a genuine
           64-bit hash collision: refuse to serve it (miss), and the
           subsequent put will replace it *)
        t.misses <- t.misses + 1;
        Ds_obs.Metrics.incr m_misses;
        t.missed_text <- text;
        t.missed_hash <- h;
        None
  in
  strict_check t;
  result

let remove_entry t e =
  Tbl.remove t.table (addr_of e);
  unlink t e;
  t.entries <- t.entries - 1;
  t.bytes <- t.bytes - e.ebytes;
  Ds_obs.Metrics.add m_bytes (-e.ebytes);
  Ds_obs.Metrics.add m_entries (-1)

let evict_lru t =
  match t.lru with
  | None -> ()
  | Some e ->
      remove_entry t e;
      t.evictions <- t.evictions + 1;
      Ds_obs.Metrics.incr m_evictions

let put t ~text ~fingerprint config ~payload =
  (* a miss's put carries the very string [find] hashed: hash it once *)
  let text_hash =
    if text == t.missed_text then t.missed_hash else hash_text text
  in
  let ebytes = String.length text + String.length payload + entry_overhead in
  if ebytes > t.max_bytes then t.rejects <- t.rejects + 1
  else begin
    (* replacement (same address) is not an eviction *)
    (match Tbl.find_opt t.table (text_hash, config) with
    | Some old -> remove_entry t old
    | None -> ());
    let e =
      { ekey = { text_hash; fingerprint; config }; text; payload; ebytes;
        prev = None; next = None }
    in
    Tbl.replace t.table (addr_of e) e;
    push_front t e;
    t.entries <- t.entries + 1;
    t.bytes <- t.bytes + ebytes;
    Ds_obs.Metrics.add m_bytes ebytes;
    Ds_obs.Metrics.add m_entries 1;
    while t.entries > t.max_entries || t.bytes > t.max_bytes do
      evict_lru t
    done
  end;
  strict_check t

type stats = {
  entries : int;
  bytes : int;
  hits : int;
  misses : int;
  evictions : int;
  rejects : int;
}

let stats (t : t) =
  { entries = t.entries; bytes = t.bytes; hits = t.hits; misses = t.misses;
    evictions = t.evictions; rejects = t.rejects }

let items t =
  let rec go acc = function
    | None -> List.rev acc
    | Some e -> go ((e.ekey, e.payload) :: acc) e.next
  in
  go [] t.mru
