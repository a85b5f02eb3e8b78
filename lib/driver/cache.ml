(** Bounded LRU result cache addressed by the request bytes, compared
    in full on lookup.  See cache.mli for the contract. *)

(* XXH64 with seed 0, after the xxHash specification
   (https://github.com/Cyan4973/xxHash/blob/dev/doc/xxhash_spec.md):
   32-byte stripes into four lanes, then the 8-, 4- and 1-byte tails
   and the final avalanche.  Every accumulator is a local ref no closure
   captures and every helper is inlined, so the compiler keeps them
   unboxed: a hash allocates only its result. *)
let prime1 = 0x9E3779B185EBCA87L
let prime2 = 0xC2B2AE3D27D4EB4FL
let prime3 = 0x165667B19E3779F9L
let prime4 = 0x85EBCA77C2B2AE63L
let prime5 = 0x27D4EB2F165667C5L

let[@inline] rotl x r =
  Int64.logor (Int64.shift_left x r) (Int64.shift_right_logical x (64 - r))

let[@inline] round acc lane =
  Int64.mul (rotl (Int64.add acc (Int64.mul lane prime2)) 31) prime1

let[@inline] merge acc v =
  Int64.add (Int64.mul (Int64.logxor acc (round 0L v)) prime1) prime4

let hash s =
  let len = String.length s in
  let p = ref 0 in
  let acc = ref 0L in
  if len >= 32 then begin
    let v1 = ref (Int64.add prime1 prime2) in
    let v2 = ref prime2 in
    let v3 = ref 0L in
    let v4 = ref (Int64.neg prime1) in
    while !p <= len - 32 do
      v1 := round !v1 (String.get_int64_le s !p);
      v2 := round !v2 (String.get_int64_le s (!p + 8));
      v3 := round !v3 (String.get_int64_le s (!p + 16));
      v4 := round !v4 (String.get_int64_le s (!p + 24));
      p := !p + 32
    done;
    acc :=
      Int64.add
        (Int64.add (rotl !v1 1) (rotl !v2 7))
        (Int64.add (rotl !v3 12) (rotl !v4 18));
    acc := merge !acc !v1;
    acc := merge !acc !v2;
    acc := merge !acc !v3;
    acc := merge !acc !v4
  end
  else acc := prime5;
  acc := Int64.add !acc (Int64.of_int len);
  while !p <= len - 8 do
    acc := Int64.logxor !acc (round 0L (String.get_int64_le s !p));
    acc := Int64.add (Int64.mul (rotl !acc 27) prime1) prime4;
    p := !p + 8
  done;
  if !p <= len - 4 then begin
    let lane =
      Int64.logand (Int64.of_int32 (String.get_int32_le s !p)) 0xFFFFFFFFL
    in
    acc := Int64.logxor !acc (Int64.mul lane prime1);
    acc := Int64.add (Int64.mul (rotl !acc 23) prime2) prime3;
    p := !p + 4
  end;
  while !p < len do
    let lane = Int64.of_int (Char.code (String.unsafe_get s !p)) in
    acc := Int64.logxor !acc (Int64.mul lane prime5);
    acc := Int64.mul (rotl !acc 11) prime1;
    incr p
  done;
  acc := Int64.logxor !acc (Int64.shift_right_logical !acc 33);
  acc := Int64.mul !acc prime2;
  acc := Int64.logxor !acc (Int64.shift_right_logical !acc 29);
  acc := Int64.mul !acc prime3;
  Int64.logxor !acc (Int64.shift_right_logical !acc 32)

let entry_overhead = 64

type entry = {
  request : string;  (* the whole request: byte-compared on lookup *)
  addr : int;        (* its hash: the table key *)
  response : string;
  ebytes : int;
  mutable prev : entry option;  (* toward MRU *)
  mutable next : entry option;  (* toward LRU *)
}

(* the XXH64 bits are already mixed: the address is its own hash *)
module Tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash a = a land max_int
end)

type t = {
  max_entries : int;
  max_bytes : int;
  hash : string -> int64;
  table : entry Tbl.t;
  mutable mru : entry option;
  mutable lru : entry option;
  mutable entries : int;
  mutable bytes : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable rejects : int;
  mutable missed : string;     (* the last request [find] missed, and  *)
  mutable missed_addr : int;   (* its address, for the [put] that follows *)
}

(* metrics registry counters (gated: no-ops unless --metrics/--trace
   enabled the registry); cache.bytes and cache.entries are gauges
   maintained by deltas *)
let m_hits = Ds_obs.Metrics.counter "cache.hits"
let m_misses = Ds_obs.Metrics.counter "cache.misses"
let m_evictions = Ds_obs.Metrics.counter "cache.evictions"
let m_bytes = Ds_obs.Metrics.counter "cache.bytes"
let m_entries = Ds_obs.Metrics.counter "cache.entries"

let create ?(max_entries = 4096) ?(max_bytes = 256 * 1024 * 1024) ?(hash = hash)
    () =
  { max_entries = max 1 max_entries;
    max_bytes = max 1 max_bytes;
    hash;
    table = Tbl.create 64;
    mru = None; lru = None;
    entries = 0; bytes = 0;
    hits = 0; misses = 0; evictions = 0; rejects = 0;
    missed = ""; missed_addr = Int64.to_int (hash "") }

let max_entries t = t.max_entries
let max_bytes t = t.max_bytes

let address t request = Int64.to_int (t.hash request)

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
        let addr = e.addr in
        let* () =
          if addr <> address t e.request then
            Error "entry stored under another address"
          else Ok ()
        in
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

let find t request =
  let addr = address t request in
  let result =
    match Tbl.find t.table addr with
    | e when String.equal e.request request ->
        unlink t e;
        push_front t e;
        t.hits <- t.hits + 1;
        Ds_obs.Metrics.incr m_hits;
        Some e.response
    | _ | (exception Not_found) ->
        (* a same-address entry whose stored request differs is a
           genuine 64-bit hash collision: refuse to serve it (miss), and
           a following put replaces it *)
        t.missed <- request;
        t.missed_addr <- addr;
        None
  in
  strict_check t;
  result

let count_miss t =
  t.misses <- t.misses + 1;
  Ds_obs.Metrics.incr m_misses;
  strict_check t

let remove_entry t e =
  Tbl.remove t.table e.addr;
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

let put t request response =
  (* a miss's put carries the very string [find] hashed: hash it once *)
  let addr =
    if request == t.missed then t.missed_addr else address t request
  in
  let ebytes =
    String.length request + String.length response + entry_overhead
  in
  if ebytes > t.max_bytes then t.rejects <- t.rejects + 1
  else begin
    (* replacement (same address) is not an eviction *)
    (match Tbl.find_opt t.table addr with
    | Some old -> remove_entry t old
    | None -> ());
    let e =
      { request; addr; response; ebytes; prev = None; next = None }
    in
    Tbl.replace t.table addr e;
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
    | Some e -> go ((e.request, e.response) :: acc) e.next
  in
  go [] t.mru
