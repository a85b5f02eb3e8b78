(** Generic list-scheduling engine.

    "List scheduling algorithms examine a candidate list of ready-to-execute
    instructions at each time step and apply one or more heuristics to
    determine the best instruction to issue" (§1).  The engine supports:

    - forward and backward scheduling passes (a backward pass schedules
      from the leaves and reverses the result);
    - *winnowing*: heuristics applied in rank order, each narrowing the
      candidate set (Gibbons & Muchnick, Shieh & Papachristou, Warren);
    - a *priority function*: heuristic values combined into a single
      per-node priority by rank weighting (Krishnamurthy, Schlansker,
      Tiemann — marked "(priority fn)" in Table 2).

    Ties always fall back to original program order. *)

open Ds_heur

type mode = Winnowing | Priority_fn

type key = { heuristic : Heuristic.t; sense : Heuristic.sense }

let key ?sense heuristic =
  let sense =
    match sense with Some s -> s | None -> Heuristic.default_sense heuristic
  in
  { heuristic; sense }

type config = {
  direction : Dyn_state.direction;
  mode : mode;
  keys : key list;
}

(* Signed value: larger is always better after applying the sense. *)
let signed_value k ~annot ~st i =
  let v = Evaluate.value k.heuristic ~annot ~st i in
  match k.sense with Heuristic.Maximize -> v | Heuristic.Minimize -> -v

(* Final tie-break: original program order — the first remaining
   instruction in a forward pass, the last in a backward pass. *)
let order_tie direction candidates =
  match (direction : Dyn_state.direction) with
  | Dyn_state.Forward -> List.fold_left min max_int candidates
  | Dyn_state.Backward -> List.fold_left max min_int candidates

(* [order_tie] of two nodes. *)
let order_tie2 direction a b =
  match (direction : Dyn_state.direction) with
  | Dyn_state.Forward -> Int.min a b
  | Dyn_state.Backward -> Int.max a b

(* [order_tie] over the first [m] (>= 1) entries of [cand]. *)
let order_tie_prefix direction cand m =
  let best = ref cand.(0) in
  for j = 1 to m - 1 do
    best := order_tie2 direction !best cand.(j)
  done;
  !best

(* Winnowing over the first [m] (>= 2) entries of [cand]: narrow one
   heuristic at a time, compacting the nodes tied for the best value to
   the front.  [vals] is scratch at least [m] long. *)
let pick_winnowing direction keys ~annot ~st cand vals m =
  let rec narrow m = function
    | [] -> order_tie_prefix direction cand m
    | k :: rest ->
        let best = ref min_int in
        for j = 0 to m - 1 do
          let v = signed_value k ~annot ~st cand.(j) in
          vals.(j) <- v;
          if v > !best then best := v
        done;
        let kept = ref 0 in
        for j = 0 to m - 1 do
          if vals.(j) = !best then begin
            cand.(!kept) <- cand.(j);
            incr kept
          end
        done;
        if !kept = 1 then cand.(0) else narrow !kept rest
  in
  narrow m keys

(* Priority-function rank weights: of [n] keys, rank [r] (from 1) weighs
   10^(n - r), so earlier ranks dominate by an order of magnitude.
   They are computed once per block (per call of [pick]), not per
   candidate. *)
let weights keys =
  let nkeys = List.length keys in
  Array.init nkeys (fun r -> int_of_float (10.0 ** float_of_int (nkeys - r - 1)))

(* Priority function: rank-weighted sum of signed values. *)
let priority keys weights ~annot ~st i =
  let rec sum acc r = function
    | [] -> acc
    | k :: rest ->
        sum (acc + (weights.(r) * signed_value k ~annot ~st i)) (r + 1) rest
  in
  sum 0 0 keys

(* The full top-priority tie set, so the tracer can tell when the
   program-order fallback fired. *)
let priority_best keys ~annot ~st candidates =
  let weights = weights keys in
  let best = ref [] and best_p = ref min_int in
  List.iter
    (fun i ->
      let p = priority keys weights ~annot ~st i in
      if p > !best_p then begin
        best := [ i ];
        best_p := p
      end
      else if p = !best_p then best := i :: !best)
    candidates;
  !best

(* The program-order winner of the top-priority set over the first [m]
   (>= 1) entries of [cand]. *)
let pick_priority direction keys weights ~annot ~st cand m =
  let best = ref cand.(0) in
  let best_p = ref (priority keys weights ~annot ~st cand.(0)) in
  for j = 1 to m - 1 do
    let i = cand.(j) in
    let p = priority keys weights ~annot ~st i in
    if p > !best_p then begin
      best := i;
      best_p := p
    end
    else if p = !best_p then best := order_tie2 direction !best i
  done;
  !best

(* ------------------------------------------------------------------ *)
(* the static priority: one precomputed rank per node *)

(* A block's static ranking for the bare pick.  [prio.(i)] is node [i]'s
   priority: for winnowing, the signed values of the config's longest
   prefix of static keys packed rank-major into one int (each offset by
   its block minimum and scaled by the value ranges of the packed keys
   after it), then program order where it fits; for a priority function whose keys are all static, its
   weighted sum.  [rest] are the keys that winnow the nodes tied for the
   top priority, in rank order. *)
type static_rank = { prio : int array; rest : key list }

let is_static k = Evaluate.is_static k.heuristic

(* Fold key [k] into [prio] when its value range fits beside the [span]
   distinct priorities packed so far; returns the new span, or 0 when it
   does not fit. *)
let pack_key ~annot ~st prio span k =
  let n = Array.length prio in
  let lo = ref max_int and hi = ref min_int in
  for i = 0 to n - 1 do
    let v = signed_value k ~annot ~st i in
    if v < !lo then lo := v;
    if v > !hi then hi := v
  done;
  (* [d] is negative exactly when [hi - lo] overflows *)
  let d = !hi - !lo in
  if d >= 0 && d < max_int / span then begin
    let range = d + 1 and lo = !lo in
    for i = 0 to n - 1 do
      prio.(i) <- (prio.(i) * range) + (signed_value k ~annot ~st i - lo)
    done;
    span * range
  end
  else 0

(* Fold the leading static keys into [prio] while they fit; returns the
   keys left over.  When every key fits, [last] follows if it fits too. *)
let rec pack_keys ~annot ~st prio span last = function
  | k :: rest as keys when is_static k ->
      let span = pack_key ~annot ~st prio span k in
      if span = 0 then keys else pack_keys ~annot ~st prio span last rest
  | [] ->
      ignore (pack_key ~annot ~st prio span last);
      []
  | keys -> keys

(* The final tie-break as a key: the first instruction forward, the last
   backward.  The pick breaks ties by program order anyway; packed, it
   leaves no ties to break. *)
let forward_order = key ~sense:Heuristic.Minimize Heuristic.Original_order
let backward_order = key ~sense:Heuristic.Maximize Heuristic.Original_order

(* [None] when the leading key is dynamic (or its range alone does not
   fit in an int): the pick then winnows the whole ready list.  [n] >= 1. *)
let static_rank config weights ~annot ~st n =
  match (config.mode, config.keys) with
  | Winnowing, [] -> Some { prio = Array.make n 0; rest = [] }
  | Winnowing, k :: _ when is_static k ->
      let prio = Array.make n 0 in
      let last =
        match config.direction with
        | Dyn_state.Forward -> forward_order
        | Dyn_state.Backward -> backward_order
      in
      let rest = pack_keys ~annot ~st prio 1 last config.keys in
      if rest == config.keys then None else Some { prio; rest }
  | Winnowing, _ -> None
  | Priority_fn, keys ->
      if List.for_all is_static keys then
        Some { prio = Array.init n (priority keys weights ~annot ~st); rest = [] }
      else None

(* ------------------------------------------------------------------ *)
(* decision tracing: which heuristic actually decided each issue *)

(** One scheduling decision: the ready candidates at [time], the
    winnowing trail (survivors after each applied heuristic, with the
    winning value), the chosen node, and whether the program-order
    tie-break made the final call.  A forced decision (single ready
    candidate) has an empty trail.  Priority-fn configs report a
    *restricted narrowing* trail — each rank keeps the best of the
    previous rank's survivors — which matches the weighted sum except
    when a low rank's magnitude overflows its weight. *)
type decision = {
  time : int;
  candidates : int list;
  trail : (Heuristic.t * int * int list) list;
      (* heuristic, best signed value, survivors *)
  chosen : int;
  tie_break : bool;
}

let winnow_trail direction keys ~annot ~st candidates =
  let rec narrow acc candidates = function
    | [] ->
        (List.rev acc, order_tie direction candidates,
         match candidates with [] | [ _ ] -> false | _ -> true)
    | k :: rest ->
        let best =
          List.fold_left
            (fun b i -> max b (signed_value k ~annot ~st i))
            min_int candidates
        in
        let survivors =
          List.filter (fun i -> signed_value k ~annot ~st i = best) candidates
        in
        let acc = (k.heuristic, best, survivors) :: acc in
        (match survivors with
        | [ only ] -> (List.rev acc, only, false)
        | several -> narrow acc several rest)
  in
  narrow [] candidates keys

(* Restricted narrowing for a priority function: the same lexicographic
   walk, run alongside the real weighted-sum winner.  [overruled] marks
   decisions where the weighted sum's winner is not among the narrowing
   survivors — i.e. a lower rank's value magnitude overflowed the 10×
   weight separation and beat the rank order. *)
let priority_trail direction keys ~annot ~st candidates =
  let best_set = priority_best keys ~annot ~st candidates in
  let chosen = order_tie direction best_set in
  let tie_break = match best_set with [] | [ _ ] -> false | _ -> true in
  let rec narrow acc survivors = function
    | [] -> (List.rev acc, survivors)
    | k :: rest ->
        let best =
          List.fold_left
            (fun b i -> max b (signed_value k ~annot ~st i))
            min_int survivors
        in
        let survivors =
          List.filter (fun i -> signed_value k ~annot ~st i = best) survivors
        in
        let acc = (k.heuristic, best, survivors) :: acc in
        (match survivors with
        | [ _ ] -> (List.rev acc, survivors)
        | several -> narrow acc several rest)
  in
  let trail, final = narrow [] candidates keys in
  let overruled = not (List.mem chosen final) in
  (trail, chosen, tie_break, overruled)

(* [traced_pick] returns (trail, chosen, tie_break, overruled); the
   chosen node is always identical to what the untraced [pick] would
   return on the same state. *)
let traced_pick config ~annot ~st candidates =
  match candidates with
  | [ only ] -> ([], only, false, false)
  | _ -> (
      match config.mode with
      | Winnowing ->
          let trail, chosen, tie_break =
            winnow_trail config.direction config.keys ~annot ~st candidates
          in
          (trail, chosen, tie_break, false)
      | Priority_fn ->
          priority_trail config.direction config.keys ~annot ~st candidates)

(* ------------------------------------------------------------------ *)
(* decisiveness registry hookup (Ds_obs.Explain) *)

(* A strategy's registry key is derived from the config itself — the
   engine has no notion of a strategy name — and embeds the key order,
   so colliding signatures always agree on ranks. *)
(* Display names already carry their natural direction ("max path
   length to a leaf"), so only a non-default sense is annotated. *)
let key_label k =
  let base = Heuristic.to_string k.heuristic in
  if k.sense = Heuristic.default_sense k.heuristic then base
  else
    match k.sense with
    | Heuristic.Maximize -> base ^ " (maximized)"
    | Heuristic.Minimize -> base ^ " (minimized)"

let key_labels config = List.map key_label config.keys

let signature_of config =
  (match config.direction with
  | Dyn_state.Forward -> "forward"
  | Dyn_state.Backward -> "backward")
  ^ "/"
  ^ (match config.mode with
    | Winnowing -> "winnowing"
    | Priority_fn -> "priority")
  ^ ": "
  ^ String.concat " > " (key_labels config)

(* Signature strings are built once per (domain, config) — the cache is
   domain-local so no lock is taken on the pick path. *)
let signature_cache : (config, string) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let signature config =
  let tbl = Domain.DLS.get signature_cache in
  match Hashtbl.find_opt tbl config with
  | Some s -> s
  | None ->
      let s = signature_of config in
      Hashtbl.add tbl config s;
      s

let explain_observe config ~ncand ~trail ~forced ~tie_break ~overruled =
  Ds_obs.Explain.observe ~signature:(signature config)
    ~keys:(key_labels config) ~candidates:ncand
    ~survivor_counts:(List.map (fun (_, _, s) -> List.length s) trail)
    ~forced ~tie_break ~overruled ()

(* Per-block handle: the scheduling loop resolves the strategy's
   registry accumulator once and records per pick with no hashing. *)
let explain_cell config =
  if Ds_obs.Explain.enabled () then
    Some
      (Ds_obs.Explain.cell ~signature:(signature config)
         ~keys:(key_labels config))
  else None

let explain_record cell ~ncand ~trail ~forced ~tie_break ~overruled =
  Ds_obs.Explain.record cell ~candidates:ncand
    ~survivor_counts:(List.map (fun (_, _, s) -> List.length s) trail)
    ~forced ~tie_break ~overruled

(* Choose the best candidate.  The singleton fast path skips the key
   walk entirely — both modes trivially return the only candidate — and
   is what the decisiveness stats count as a *forced* decision.  When
   the explain registry is live the trail is computed so the decision's
   shape can be recorded; otherwise this is one atomic read on top of
   the bare winnowing/priority pick. *)
let bare_pick config weights ~annot ~st cand vals m =
  match config.mode with
  | Winnowing ->
      pick_winnowing config.direction config.keys ~annot ~st cand vals m
  | Priority_fn ->
      pick_priority config.direction config.keys weights ~annot ~st cand m

(* a config's priority weights, none for winnowing *)
let config_weights config =
  match config.mode with
  | Winnowing -> [||]
  | Priority_fn -> weights config.keys

let pick config ~annot ~st candidates =
  match candidates with
  | [ only ] ->
      if Ds_obs.Explain.enabled () then
        explain_observe config ~ncand:1 ~trail:[] ~forced:true
          ~tie_break:false ~overruled:false;
      only
  | _ ->
      if not (Ds_obs.Explain.enabled ()) then begin
        let cand = Array.of_list candidates in
        let m = Array.length cand in
        bare_pick config (config_weights config) ~annot ~st cand
          (Array.make m 0) m
      end
      else begin
        let trail, chosen, tie_break, overruled =
          traced_pick config ~annot ~st candidates
        in
        explain_observe config ~ncand:(List.length candidates) ~trail
          ~forced:false ~tie_break ~overruled;
        chosen
      end

(* Choose among the [m] ready candidates [ready.(0 .. m-1)] (list
   order).  The candidates become a list only for a recorder or the
   decisiveness registry; otherwise the pick runs over the array. *)
let pick_ready ?recorder config weights ~annot ~st expl ready vals m =
  match (recorder, expl) with
  | None, None ->
      if m = 1 then ready.(0)
      else bare_pick config weights ~annot ~st ready vals m
  | None, Some cell ->
      if m = 1 then begin
        Ds_obs.Explain.record cell ~candidates:1 ~survivor_counts:[]
          ~forced:true ~tie_break:false ~overruled:false;
        ready.(0)
      end
      else begin
        let trail, chosen, tie_break, overruled =
          traced_pick config ~annot ~st (List.init m (Array.get ready))
        in
        explain_record cell ~ncand:m ~trail ~forced:false ~tie_break
          ~overruled;
        chosen
      end
  | Some record, _ ->
      let candidates = List.init m (Array.get ready) in
      let trail, chosen, tie_break, overruled =
        traced_pick config ~annot ~st candidates
      in
      (* the recorder branch bypasses [pick], so feed the decisiveness
         registry here (no double count) *)
      (match expl with
      | Some cell ->
          explain_record cell ~ncand:m ~trail ~forced:(m = 1) ~tie_break
            ~overruled
      | None -> ());
      record { time = st.Dyn_state.time; candidates; trail; chosen; tie_break };
      chosen

(* The scheduling loop, optionally recording decisions. *)
let run_impl ?seed ?recorder config ~annot dag =
  let n = Ds_dag.Dag.length dag in
  if n = 0 then [||]
  else begin
    let st = Dyn_state.create dag config.direction in
    (match seed with Some f -> f st | None -> ());
    (* The candidate list keeps one order that [explain] prints:
       ascending at first, newly available nodes in front in
       [fold_successors] order, removals keeping the rest in place.  It
       lives in an array with the list's head last.  The priority pick
       reads no order, so it fills a removal's gap with the last
       entry. *)
    let avail = Array.make n 0 and n_avail = ref 0 in
    let push i =
      avail.(!n_avail) <- i;
      incr n_avail
    in
    for i = n - 1 downto 0 do
      if Dyn_state.available st i then push i
    done;
    let on_successor () peer _ _ =
      if Dyn_state.available st peer then push peer
    in
    let position i =
      let j = ref (!n_avail - 1) in
      while avail.(!j) <> i do
        decr j
      done;
      !j
    in
    (* trace bookkeeping is resolved once per block; the common
       (disabled) path costs one atomic read per run_impl call; only
       tracing reads the clock around each pick *)
    let trace_on = Ds_obs.Trace.enabled () in
    (* decisiveness accumulator resolved once per block; [None] when the
       explain registry is off, leaving the pick path untouched *)
    let expl = explain_cell config in
    (* the bare path ranks by one static priority per node when the
       config leads with static keys; a recorder or the registry sees
       the list-order candidates *)
    let weights = config_weights config in
    let rank =
      match (recorder, expl) with
      | None, None -> static_rank config weights ~annot ~st n
      | _ -> None
    in
    (* the ready candidates in list order, or the top-priority front;
       winnowing scratch unless the priority decides alone *)
    let ready = Array.make n 0 in
    let ties_by_order =
      match rank with Some { rest = []; _ } -> true | _ -> false
    in
    let vals = if ties_by_order then [||] else Array.make n 0 in
    let picks = ref 0 and pick_first = ref 0.0 and pick_total = ref 0.0 in
    (* the summed ready-list lengths and the cycles no candidate could
       issue: the heur_dynamic span's args *)
    let candidates = ref 0 and stall_cycles = ref 0 in
    let order = Array.make n 0 in
    (* where the priority pick's winner sits in [avail] *)
    let at = ref 0 in
    while not (Dyn_state.complete st) do
      let t0 = if trace_on then Ds_obs.Clock.now () else 0.0 in
      (* the node to issue now, or -1 when none is released *)
      let chosen =
        match rank with
        | Some { prio; rest } ->
            (* one pass: skip the unreleased nodes, keep the released
               ones tied for the top priority in [ready.(0 .. f-1)] and
               their program-order winner at [avail.(!at)] *)
            let m = ref 0 and f = ref 0 and best = ref min_int in
            for j = 0 to !n_avail - 1 do
              let i = avail.(j) in
              if st.earliest_exec.(i) <= st.time then begin
                incr m;
                let p = prio.(i) in
                if !f = 0 || p > !best then begin
                  best := p;
                  ready.(0) <- i;
                  f := 1;
                  at := j
                end
                else if p = !best then begin
                  ready.(!f) <- i;
                  incr f;
                  if order_tie2 config.direction avail.(!at) i = i then at := j
                end
              end
            done;
            candidates := !candidates + !m;
            if !m = 0 then -1
            else if !f = 1 || ties_by_order then avail.(!at)
            else pick_winnowing config.direction rest ~annot ~st ready vals !f
        | None ->
            let m = ref 0 in
            for j = !n_avail - 1 downto 0 do
              let i = avail.(j) in
              if st.earliest_exec.(i) <= st.time then begin
                ready.(!m) <- i;
                incr m
              end
            done;
            let m = !m in
            candidates := !candidates + m;
            if m = 0 then -1
            else pick_ready ?recorder config weights ~annot ~st expl ready vals m
      in
      if chosen < 0 then begin
        (* no candidate can issue: advance to the nearest release time *)
        let next = ref max_int in
        for j = 0 to !n_avail - 1 do
          next := Int.min !next st.earliest_exec.(avail.(j))
        done;
        assert (!next < max_int);
        stall_cycles := !stall_cycles + (!next - st.time);
        st.time <- !next
      end
      else begin
        if trace_on then begin
          if !picks = 0 then pick_first := t0;
          pick_total := !pick_total +. Ds_obs.Clock.since t0;
          incr picks
        end;
        (* a backward pass builds the schedule last-to-first *)
        (match config.direction with
        | Dyn_state.Forward -> order.(st.n_scheduled) <- chosen
        | Dyn_state.Backward -> order.(n - 1 - st.n_scheduled) <- chosen);
        Dyn_state.schedule st chosen ~at:st.time;
        st.time <- st.time + 1;
        (match rank with
        | Some _ ->
            let j = if avail.(!at) = chosen then !at else position chosen in
            avail.(j) <- avail.(!n_avail - 1)
        | None ->
            let j = position chosen in
            Array.blit avail (j + 1) avail j (!n_avail - j - 1));
        decr n_avail;
        (* arcs are coalesced, so a peer's counter reaches zero exactly
           when its last predecessor, [chosen], issues: it cannot
           already be in the list *)
        Dyn_state.fold_successors st chosen on_successor ()
      end
    done;
    (* one aggregate span per block: total dynamic-heuristic time spent
       inside the enclosing "schedule" span (the picks themselves are
       interleaved with issue bookkeeping, so a contiguous sub-span per
       pick would be noise; args carry the pick count, the candidates
       examined and the stall cycles) *)
    if trace_on && !picks > 0 then
      Ds_obs.Trace.record ~cat:"pipeline" ~name:"heur_dynamic"
        ~args:
          [ ("picks", Ds_obs.Json.Int !picks);
            ("aggregate", Ds_obs.Json.Bool true);
            ("candidates", Ds_obs.Json.Int !candidates);
            ("stall_cycles", Ds_obs.Json.Int !stall_cycles) ]
        ~start_s:!pick_first
        ~stop_s:(!pick_first +. !pick_total)
        ();
    order
  end

(** Run the scheduling pass.  Returns node ids in program order of the new
    schedule.  [seed] can prime the state with inherited cross-block
    latencies before the candidate list is formed. *)
let run ?seed config ~annot dag = run_impl ?seed config ~annot dag

(** Like {!run}, also returning the per-issue decision trace (in issue
    order, regardless of scheduling direction). *)
let run_traced ?seed config ~annot dag =
  let decisions = ref [] in
  let order =
    run_impl ?seed ~recorder:(fun d -> decisions := d :: !decisions) config
      ~annot dag
  in
  (order, List.rev !decisions)

(** Convenience: schedule with static annotations computed here. *)
let schedule config dag =
  let annot = Static_pass.compute dag in
  run config ~annot dag
