(** Process-wide metrics registry: named counters and log-bucketed
    histograms, lock-free on the hot path and a no-op unless enabled.
    See metrics.mli for the contract. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

(* The hot path is sharded per domain: every handle owns a Domain.DLS
   key whose per-domain cell is a plain mutable record, so an enabled
   [incr]/[observe] is ordinary loads and stores on domain-local memory
   — no fetch_and_add, no shared cache line.  A traced corpus run bumps
   metrics ~1M times; the shared-atomic version was a measurable part
   of the 15-25% enabled-mode overhead on a 1-core CI host.  The cost:
   a snapshot taken while other domains are mid-update is approximate
   (plain reads may lag); every snapshot in the tree happens after the
   pool has quiesced (joined), where it is exact. *)

(* Buckets are powers of two: bucket 0 holds values <= 0, bucket i >= 1
   holds [2^(i-1), 2^i - 1].  64 buckets cover the whole int range. *)
let n_buckets = 64

type ccell = { mutable cv : int }

type counter = {
  cname : string;
  ckey : ccell Domain.DLS.key;
  ccells : ccell list ref; (* every domain's cell; guarded by the registry *)
}

type hcell = { mutable hcount : int; mutable hsum : int; hbuckets : int array }

type histogram = {
  hname : string;
  hkey : hcell Domain.DLS.key;
  hcells : hcell list ref;
}

(* Registration happens at module initialization (handles are module-
   level lets at every instrumentation site) but is mutex-protected so a
   late [counter] call from a worker domain stays safe.  The same lock
   guards the per-handle cell lists, which grow when a new domain first
   touches a handle. *)
let registry_mutex = Mutex.create ()
let all_counters : counter list ref = ref []
let all_histograms : histogram list ref = ref []

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let counter name =
  with_registry (fun () ->
      match List.find_opt (fun c -> c.cname = name) !all_counters with
      | Some c -> c
      | None ->
          let ccells = ref [] in
          let ckey =
            Domain.DLS.new_key (fun () ->
                let cell = { cv = 0 } in
                with_registry (fun () -> ccells := cell :: !ccells);
                cell)
          in
          let c = { cname = name; ckey; ccells } in
          all_counters := c :: !all_counters;
          c)

let histogram name =
  with_registry (fun () ->
      match List.find_opt (fun h -> h.hname = name) !all_histograms with
      | Some h -> h
      | None ->
          let hcells = ref [] in
          let hkey =
            Domain.DLS.new_key (fun () ->
                let cell =
                  { hcount = 0; hsum = 0; hbuckets = Array.make n_buckets 0 }
                in
                with_registry (fun () -> hcells := cell :: !hcells);
                cell)
          in
          let h = { hname = name; hkey; hcells } in
          all_histograms := h :: !all_histograms;
          h)

let add c n =
  if Atomic.get enabled then begin
    let cell = Domain.DLS.get c.ckey in
    cell.cv <- cell.cv + n
  end

let incr c = add c 1

(* exact once recording domains have quiesced, like [snapshot] *)
let value c =
  with_registry (fun () ->
      List.fold_left (fun a cell -> a + cell.cv) 0 !(c.ccells))

let bucket_index v =
  if v <= 0 then 0
  else begin
    let bits = ref 0 and v = ref v in
    while !v <> 0 do
      v := !v lsr 1;
      Stdlib.incr bits
    done;
    min (n_buckets - 1) !bits
  end

(* inclusive upper bound of bucket [i]; the last bucket is unbounded but
   serializes with its nominal bound *)
let bucket_le i = if i = 0 then 0 else (1 lsl i) - 1

let observe h v =
  if Atomic.get enabled then begin
    let cell = Domain.DLS.get h.hkey in
    cell.hcount <- cell.hcount + 1;
    cell.hsum <- cell.hsum + max 0 v;
    let i = bucket_index v in
    cell.hbuckets.(i) <- cell.hbuckets.(i) + 1
  end

(* like snapshot, meaningful once recording domains have quiesced *)
let reset () =
  with_registry (fun () ->
      List.iter
        (fun c -> List.iter (fun cell -> cell.cv <- 0) !(c.ccells))
        !all_counters;
      List.iter
        (fun h ->
          List.iter
            (fun cell ->
              cell.hcount <- 0;
              cell.hsum <- 0;
              Array.fill cell.hbuckets 0 n_buckets 0)
            !(h.hcells))
        !all_histograms)

(* ------------------------------------------------------------------ *)
(* snapshots *)

type hist_snapshot = {
  name : string;
  count : int;
  sum : int;
  buckets : (int * int) list; (* inclusive upper bound, count *)
}

type snapshot = {
  counters : (string * int) list;
  histograms : hist_snapshot list;
}

(* Only live data is captured (zero counters and empty histograms are
   dropped) and everything is name-sorted, so a snapshot is independent
   of registration order and of which modules happened to be linked. *)
let snapshot () =
  with_registry (fun () ->
      let counters =
        List.filter_map
          (fun c ->
            let v = List.fold_left (fun a cell -> a + cell.cv) 0 !(c.ccells) in
            if v = 0 then None else Some (c.cname, v))
          !all_counters
        |> List.sort compare
      in
      let histograms =
        List.filter_map
          (fun (h : histogram) ->
            let cells = !(h.hcells) in
            let count = List.fold_left (fun a c -> a + c.hcount) 0 cells in
            if count = 0 then None
            else
              let sum = List.fold_left (fun a c -> a + c.hsum) 0 cells in
              let buckets = ref [] in
              for i = n_buckets - 1 downto 0 do
                let n =
                  List.fold_left (fun a c -> a + c.hbuckets.(i)) 0 cells
                in
                if n > 0 then buckets := (bucket_le i, n) :: !buckets
              done;
              Some { name = h.hname; count; sum; buckets = !buckets })
          !all_histograms
        |> List.sort compare
      in
      { counters; histograms })

(* ------------------------------------------------------------------ *)
(* JSON (schema in docs/FORMAT.md) *)

let snapshot_to_json s =
  Json.Obj
    [ ( "counters",
        Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters) );
      ( "histograms",
        Json.List
          (List.map
             (fun h ->
               Json.Obj
                 [ ("name", Json.String h.name);
                   ("count", Json.Int h.count);
                   ("sum", Json.Int h.sum);
                   ( "buckets",
                     Json.List
                       (List.map
                          (fun (le, n) ->
                            Json.Obj
                              [ ("le", Json.Int le); ("count", Json.Int n) ])
                          h.buckets) ) ])
             s.histograms) ) ]

(* ------------------------------------------------------------------ *)
(* quantile estimation from the log buckets: the value returned is the
   inclusive upper bound of the bucket where the cumulative count first
   reaches the rank, i.e. an upper estimate within one power of two *)

let quantile (h : hist_snapshot) q =
  if h.count <= 0 then 0
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.count)))
    in
    let rec walk cum = function
      | [] -> ( match List.rev h.buckets with (le, _) :: _ -> le | [] -> 0)
      | (le, n) :: rest ->
          let cum = cum + n in
          if cum >= rank then le else walk cum rest
    in
    walk 0 h.buckets
  end

type hist_summary = {
  name : string;
  count : int;
  sum : int;
  mean : float;
  p50 : int;
  p95 : int;
  p99 : int;
}

let summarize (h : hist_snapshot) =
  { name = h.name; count = h.count; sum = h.sum;
    mean = float_of_int h.sum /. float_of_int (max 1 h.count);
    p50 = quantile h 0.50; p95 = quantile h 0.95; p99 = quantile h 0.99 }

let summary (s : snapshot) = List.map summarize s.histograms
