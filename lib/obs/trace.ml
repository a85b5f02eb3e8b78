(** Span recorder with Chrome trace-event serialization.  See trace.mli
    for the contract. *)

type span = {
  name : string;
  cat : string;
  ts_us : float;
  dur_us : float;
  minor_words : int;
  pid : int;
  tid : int;
  args : (string * Json.t) list;
}

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

(* Recording pushes onto a lock-free per-domain list: each domain hashes
   to one of [n_slots] Treiber stacks, so concurrent domains almost
   never touch the same cache line and never serialize on a shared
   mutex.  The shared-mutex version cost 15-25% enabled-mode overhead on
   a single-core CI host (lock/unlock per span on top of the clock
   reads); CAS-on-own-slot is the cheapest recording that still merges
   into one deterministic snapshot. *)
let n_slots = 64

let span_slots : span list Atomic.t array =
  Array.init n_slots (fun _ -> Atomic.make [])

let slot_index () = (Domain.self () :> int) land (n_slots - 1)

let rec slot_push cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (x :: old)) then slot_push cell x

let reset () = Array.iter (fun c -> Atomic.set c []) span_slots

let tid () = (Domain.self () :> int)

let push ~cat ~args ~minor_words ~name ~start_s ~stop_s =
  slot_push
    span_slots.(slot_index ())
    { name; cat;
      ts_us = start_s *. 1e6;
      dur_us = Clock.duration ~start:start_s ~stop:stop_s *. 1e6;
      minor_words; pid = 0; tid = tid (); args }

let record ?(cat = "") ?(args = []) ~name ~start_s ~stop_s () =
  push ~cat ~args ~minor_words:0 ~name ~start_s ~stop_s

(* The tallies of the calling domain's open spans, as one stack of
   (name, count) entries: entries [base .. top - 1] belong to the
   innermost open span, and [base] is -1 while none is open.  A span
   saves the [base] it found and restores it on exit. *)
type tally = {
  mutable names : string array;
  mutable counts : int array;
  mutable top : int;
  mutable base : int;
}

let tally_key =
  Domain.DLS.new_key (fun () ->
      { names = Array.make 8 ""; counts = Array.make 8 0; top = 0; base = -1 })

let rec tally_add t name n i =
  if i = t.top then begin
    if i = Array.length t.names then begin
      t.names <- Array.append t.names (Array.make i "");
      t.counts <- Array.append t.counts (Array.make i 0)
    end;
    t.names.(i) <- name;
    t.counts.(i) <- n;
    t.top <- i + 1
  end
  else if String.equal t.names.(i) name then t.counts.(i) <- t.counts.(i) + n
  else tally_add t name n (i + 1)

let count name n =
  if enabled () then begin
    let t = Domain.DLS.get tally_key in
    if t.base >= 0 then tally_add t name n t.base
  end

(* pop the innermost span's tally, appended to its [args] *)
let close_tally t ~outer args =
  let rec tail i =
    if i = t.top then []
    else (t.names.(i), Json.Int t.counts.(i)) :: tail (i + 1)
  in
  let args = if t.top = t.base then args else args @ tail t.base in
  t.top <- t.base;
  t.base <- outer;
  args

let with_span ?(cat = "") ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let t = Domain.DLS.get tally_key in
    let outer = t.base in
    t.base <- t.top;
    let start_s = Clock.now () in
    (* [Gc.minor_words] counts this domain's allocation and does not
       allocate itself; both reads sit inside the clock reads, so the
       span is charged exactly what [f] allocated *)
    let w0 = Gc.minor_words () in
    (* record even when [f] raises, so aborted phases (verify failures,
       killed attempts) still appear on the timeline.  Hand-rolled
       rather than Fun.protect: this is the hot path, and the exception
       case needs no finally-raised wrapping *)
    match f () with
    | v ->
        let minor_words = int_of_float (Gc.minor_words () -. w0) in
        let stop_s = Clock.now () in
        push ~cat ~args:(close_tally t ~outer args) ~minor_words ~name
          ~start_s ~stop_s;
        v
    | exception e ->
        let minor_words = int_of_float (Gc.minor_words () -. w0) in
        let stop_s = Clock.now () in
        let bt = Printexc.get_raw_backtrace () in
        push ~cat ~args:(close_tally t ~outer args) ~minor_words ~name
          ~start_s ~stop_s;
        Printexc.raise_with_backtrace e bt
  end

(* Chronological and fully ordered (args/cat as final tiebreak), so
   equal runs snapshot equally no matter which slot or interleaving the
   recording domains used. *)
let span_order a b =
  match
    compare
      (a.ts_us, a.pid, a.tid, a.dur_us, a.name)
      (b.ts_us, b.pid, b.tid, b.dur_us, b.name)
  with
  | 0 -> compare a b
  | c -> c

let collect slots =
  Array.fold_left (fun acc cell -> List.rev_append (Atomic.get cell) acc) []
    slots

let snapshot () = List.sort span_order (collect span_slots)

(* ------------------------------------------------------------------ *)
(* Chrome trace-event JSON (docs/FORMAT.md; load in Perfetto /
   chrome://tracing).  Timestamps are absolute epoch microseconds —
   viewers normalize to the earliest event. *)

(* the minor-words charge travels as an arg, omitted when 0 (pool
   waits, the aggregate pick span, explain's issue timelines) *)
let span_to_json s =
  let args =
    if s.minor_words = 0 then s.args
    else s.args @ [ ("minor_words", Json.Int s.minor_words) ]
  in
  Json.Obj
    [ ("name", Json.String s.name);
      ("cat", Json.String s.cat);
      ("ph", Json.String "X");
      ("ts", Json.Float s.ts_us);
      ("dur", Json.Float s.dur_us);
      ("pid", Json.Int s.pid);
      ("tid", Json.Int s.tid);
      ("args", Json.Obj args) ]

let process_name_event pid name =
  Json.Obj
    [ ("name", Json.String "process_name");
      ("ph", Json.String "M");
      ("pid", Json.Int pid);
      ("tid", Json.Int 0);
      ("args", Json.Obj [ ("name", Json.String name) ]) ]

let to_json ?(pid_names = []) spans =
  let metadata =
    List.filter_map
      (fun (pid, name) ->
        if List.exists (fun s -> s.pid = pid) spans then
          Some (process_name_event pid name)
        else None)
      pid_names
  in
  Json.Obj
    [ ("traceEvents", Json.List (metadata @ List.map span_to_json spans)) ]

let span_of_json ~path json =
  let ( let* ) = Result.bind in
  let* name = Json.get_string ~path "name" json in
  let* ts_us = Json.get_float ~path "ts" json in
  let* pid = Json.get_int ~path "pid" json in
  let* tid = Json.get_int ~path "tid" json in
  (* cat / dur / args are optional in the wild; default them *)
  let* cat =
    match Json.member "cat" json with
    | None -> Ok ""
    | Some _ -> Json.get_string ~path "cat" json
  in
  let* dur_us =
    match Json.member "dur" json with
    | None -> Ok 0.0
    | Some _ -> Json.get_float ~path "dur" json
  in
  let* args =
    match Json.member "args" json with
    | None -> Ok []
    | Some (Json.Obj fields) -> Ok fields
    | Some v ->
        Json.decode_error ~path:(path @ [ "args" ])
          (Printf.sprintf "expected an object, found %s" (Json.type_name v))
  in
  let* minor_words =
    match List.assoc_opt "minor_words" args with
    | None -> Ok 0
    | Some (Json.Int w) -> Ok w
    | Some v ->
        Json.decode_error
          ~path:(path @ [ "args"; "minor_words" ])
          (Printf.sprintf "expected an integer, found %s" (Json.type_name v))
  in
  let args = List.filter (fun (k, _) -> k <> "minor_words") args in
  Ok { name; cat; ts_us; dur_us; minor_words; pid; tid; args }

let events_of_json ?(path = []) json =
  let ( let* ) = Result.bind in
  let* tagged =
    Json.get_list ~path "traceEvents"
      (fun ~path ev ->
        let* ph = Json.get_string ~path "ph" ev in
        (* only complete ("X") events carry span data; metadata and any
           other phases a viewer tolerates are skipped, not errors *)
        if ph = "X" then
          let* s = span_of_json ~path ev in
          Ok (Some s)
        else Ok None)
      json
  in
  Ok (List.filter_map Fun.id tagged)

(* ------------------------------------------------------------------ *)
(* per-phase aggregation for the human-readable stderr table *)

type phase_stat = {
  phase : string;
  spans : int;
  total_us : float;
  max_us : float;
  minor_words : int;
}

let summary spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let st =
        match Hashtbl.find_opt tbl s.name with
        | Some st -> st
        | None ->
            { phase = s.name; spans = 0; total_us = 0.0; max_us = 0.0;
              minor_words = 0 }
      in
      Hashtbl.replace tbl s.name
        { st with
          spans = st.spans + 1;
          total_us = st.total_us +. s.dur_us;
          max_us = Float.max st.max_us s.dur_us;
          minor_words = st.minor_words + s.minor_words })
    spans;
  Hashtbl.fold (fun _ st acc -> st :: acc) tbl []
  |> List.sort (fun a b ->
         compare (b.total_us, a.phase) (a.total_us, b.phase))

let gc_totals () =
  Gc.minor ();
  Gc.quick_stat ()
