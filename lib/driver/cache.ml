(** Bounded LRU result cache addressed by the request bytes, compared
    in full on lookup.  See cache.mli for the contract. *)

(* 64-bit FNV-1a.  The accumulators are local refs no closure captures,
   so the compiler keeps them unboxed: a hash allocates only its
   result. *)
let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv_byte h b = Int64.mul (Int64.logxor h (Int64.of_int b)) fnv_prime

let hash s =
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
  request : string;  (* the whole request: byte-compared on lookup *)
  addr : int;        (* its hash: the table key *)
  response : string;
  ebytes : int;
  mutable prev : entry option;  (* toward MRU *)
  mutable next : entry option;  (* toward LRU *)
}

(* the FNV bits are already mixed: the address is its own hash *)
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
