(** Per-phase GC/heap resource profiling.  See resource.mli for the
    contract. *)

let enabled = Atomic.make false
let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

type phase_stat = {
  phase : string;
  calls : int;
  minor_words : float;
  promoted_words : float;
  major_words : float;
  minor_collections : int;
  major_collections : int;
  top_heap_words : int;
}

(* accumulation happens at phase boundaries (well off the per-
   instruction hot path), so a single mutex-protected table is fine —
   the hot-path discipline lives in Trace/Metrics *)
type acc = {
  mutable a_calls : int;
  mutable a_minor : float;
  mutable a_promoted : float;
  mutable a_major : float;
  mutable a_minor_c : int;
  mutable a_major_c : int;
  mutable a_top_heap : int;
}

let registry_mutex = Mutex.create ()
let registry : (string, acc) Hashtbl.t = Hashtbl.create 16

let find_acc name =
  match Hashtbl.find_opt registry name with
  | Some a -> a
  | None ->
      let a =
        { a_calls = 0; a_minor = 0.0; a_promoted = 0.0; a_major = 0.0;
          a_minor_c = 0; a_major_c = 0; a_top_heap = 0 }
      in
      Hashtbl.replace registry name a;
      a

let record name ~minor ~promoted ~major ~minor_c ~major_c ~top_heap =
  let a = find_acc name in
  a.a_calls <- a.a_calls + 1;
  a.a_minor <- a.a_minor +. minor;
  a.a_promoted <- a.a_promoted +. promoted;
  a.a_major <- a.a_major +. major;
  a.a_minor_c <- a.a_minor_c + minor_c;
  a.a_major_c <- a.a_major_c + major_c;
  if top_heap > a.a_top_heap then a.a_top_heap <- top_heap

(* Counter tracks are sampled, not per-phase: a batch run crosses a
   phase boundary ~40k times, and two counter events at every one would
   double the trace volume for heap curves no viewer can resolve
   anyway.  One sample per millisecond (first boundary in each window
   wins the CAS) keeps the Perfetto tracks smooth at ~1/70th the
   recording cost. *)
let counter_sample_s = 0.001
let last_counter = Atomic.make neg_infinity

let maybe_record_counters (s1 : Gc.stat) =
  if Trace.enabled () then begin
    let t = Clock.now () in
    let seen = Atomic.get last_counter in
    if
      t -. seen >= counter_sample_s
      && Atomic.compare_and_set last_counter seen t
    then begin
      (* cumulative gauges, so Perfetto draws heap/GC tracks that move
         as the run progresses *)
      Trace.record_counter ~name:"heap"
        ~values:
          [ ("heap_words", float_of_int s1.Gc.heap_words);
            ("top_heap_words", float_of_int s1.Gc.top_heap_words) ]
        ();
      Trace.record_counter ~name:"gc"
        ~values:
          [ ("minor_collections", float_of_int s1.Gc.minor_collections);
            ("major_collections", float_of_int s1.Gc.major_collections) ]
        ()
    end
  end

let with_phase ?detail phase f =
  if not (Atomic.get enabled) then f ()
  else begin
    let s0 = Gc.quick_stat () in
    (* [Gc.minor_words] (the primitive) includes the live young region,
       so the minor delta is exact even when no minor collection runs
       inside the phase; the [quick_stat] field is only refreshed at
       collections and reads as 0 across allocation-light phases. *)
    let m0 = Gc.minor_words () in
    (* record even when [f] raises, so an aborted phase's allocation
       still shows up — same discipline as Trace.with_span *)
    Fun.protect
      ~finally:(fun () ->
        let s1 = Gc.quick_stat () in
        let minor = Gc.minor_words () -. m0
        and promoted = s1.Gc.promoted_words -. s0.Gc.promoted_words
        and major = s1.Gc.major_words -. s0.Gc.major_words
        and minor_c = s1.Gc.minor_collections - s0.Gc.minor_collections
        and major_c = s1.Gc.major_collections - s0.Gc.major_collections
        and top_heap = s1.Gc.top_heap_words in
        Mutex.lock registry_mutex;
        record phase ~minor ~promoted ~major ~minor_c ~major_c ~top_heap;
        (match detail with
        | Some d ->
            record (phase ^ "/" ^ d) ~minor ~promoted ~major ~minor_c
              ~major_c ~top_heap
        | None -> ());
        Mutex.unlock registry_mutex;
        maybe_record_counters s1)
      f
  end

let snapshot () =
  Mutex.lock registry_mutex;
  let rows =
    Hashtbl.fold
      (fun phase a acc ->
        if a.a_calls = 0 then acc
        else
          { phase; calls = a.a_calls; minor_words = a.a_minor;
            promoted_words = a.a_promoted; major_words = a.a_major;
            minor_collections = a.a_minor_c; major_collections = a.a_major_c;
            top_heap_words = a.a_top_heap }
          :: acc)
      registry []
  in
  Mutex.unlock registry_mutex;
  List.sort (fun a b -> compare a.phase b.phase) rows

let reset () =
  Mutex.lock registry_mutex;
  Hashtbl.reset registry;
  Mutex.unlock registry_mutex;
  Atomic.set last_counter neg_infinity

let stat_equal a b =
  a.phase = b.phase && a.calls = b.calls
  && Float.equal a.minor_words b.minor_words
  && Float.equal a.promoted_words b.promoted_words
  && Float.equal a.major_words b.major_words
  && a.minor_collections = b.minor_collections
  && a.major_collections = b.major_collections
  && a.top_heap_words = b.top_heap_words

let equal a b =
  List.length a = List.length b && List.for_all2 stat_equal a b

(* ------------------------------------------------------------------ *)
(* JSON (schema in docs/FORMAT.md) *)

let stat_to_json r =
  Json.Obj
    [ ("phase", Json.String r.phase);
      ("calls", Json.Int r.calls);
      ("minor_words", Json.Float r.minor_words);
      ("promoted_words", Json.Float r.promoted_words);
      ("major_words", Json.Float r.major_words);
      ("minor_collections", Json.Int r.minor_collections);
      ("major_collections", Json.Int r.major_collections);
      ("top_heap_words", Json.Int r.top_heap_words) ]

let to_json rows = Json.Obj [ ("phases", Json.List (List.map stat_to_json rows)) ]

let stat_of_json ~path json =
  let ( let* ) = Result.bind in
  let* phase = Json.get_string ~path "phase" json in
  let* calls = Json.get_int ~path "calls" json in
  let* minor_words = Json.get_float ~path "minor_words" json in
  let* promoted_words = Json.get_float ~path "promoted_words" json in
  let* major_words = Json.get_float ~path "major_words" json in
  let* minor_collections = Json.get_int ~path "minor_collections" json in
  let* major_collections = Json.get_int ~path "major_collections" json in
  let* top_heap_words = Json.get_int ~path "top_heap_words" json in
  Ok
    { phase; calls; minor_words; promoted_words; major_words;
      minor_collections; major_collections; top_heap_words }

let of_json ?(path = []) json = Json.get_list ~path "phases" stat_of_json json
