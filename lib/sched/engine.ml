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

(* Final tie-break: original program order — the first of two nodes in a
   forward pass, the last in a backward pass. *)
let order_tie2 direction a b =
  match (direction : Dyn_state.direction) with
  | Dyn_state.Forward -> Int.min a b
  | Dyn_state.Backward -> Int.max a b

(* [order_tie2] over the first [m] (>= 1) entries of [cand]. *)
let order_tie_prefix direction cand m =
  let best = ref cand.(0) in
  for j = 1 to m - 1 do
    best := order_tie2 direction !best cand.(j)
  done;
  !best

(* Winnowing over the first [m] (>= 2) entries of [cand]: narrow one
   heuristic at a time, compacting the nodes tied for the best value to
   the front.  Compaction keeps relative order, so after each key the
   survivors are [cand.(0 .. kept-1)] in candidate order; [on_key k best
   kept] sees them.  [vals] is scratch at least [m] long. *)
let rec pick_winnowing ?on_key direction keys ~annot ~st cand vals m =
  match keys with
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
      (match on_key with Some f -> f k !best !kept | None -> ());
      if !kept = 1 then cand.(0)
      else pick_winnowing ?on_key direction rest ~annot ~st cand vals !kept

(* Priority-function rank weights: of [n] keys, rank [r] (from 1) weighs
   10^(n - r), so earlier ranks dominate by an order of magnitude.
   They are computed once per block (per call of [pick]), not per
   candidate. *)
let weights keys =
  let nkeys = List.length keys in
  Array.init nkeys (fun r -> int_of_float (10.0 ** float_of_int (nkeys - r - 1)))

(* Priority function: rank-weighted sum of signed values. *)
let rec weighted_sum weights ~annot ~st i acc r = function
  | [] -> acc
  | k :: rest ->
      weighted_sum weights ~annot ~st i
        (acc + (weights.(r) * signed_value k ~annot ~st i))
        (r + 1) rest

let priority keys weights ~annot ~st i = weighted_sum weights ~annot ~st i 0 0 keys

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

(* The pick over the first [m] (>= 2) entries of [cand] by [keys]:
   winnowed or weighted as the config says, program order last. *)
let choose config keys weights ~annot ~st cand vals m =
  match config.mode with
  | Winnowing -> pick_winnowing config.direction keys ~annot ~st cand vals m
  | Priority_fn -> pick_priority config.direction keys weights ~annot ~st cand m

(* a config's priority weights, none for winnowing *)
let config_weights config =
  match config.mode with
  | Winnowing -> [||]
  | Priority_fn -> weights config.keys

(* ------------------------------------------------------------------ *)
(* the static priority: one precomputed rank per node *)

let is_static k = Evaluate.is_static k.heuristic

(* Fold key [k] into [prio.(0 .. n-1)] when its value range fits beside
   the [span] distinct priorities packed so far; returns the new span, or
   0 when it does not fit. *)
let pack_key ~annot ~st prio n span k =
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
let rec pack_keys ~annot ~st prio n span last = function
  | k :: rest as keys when is_static k ->
      let span = pack_key ~annot ~st prio n span k in
      if span = 0 then keys else pack_keys ~annot ~st prio n span last rest
  | [] ->
      ignore (pack_key ~annot ~st prio n span last);
      []
  | keys -> keys

(* The final tie-break as a key: the first instruction forward, the last
   backward.  The pick breaks ties by program order anyway; packed, it
   leaves no ties to break. *)
let forward_order = key ~sense:Heuristic.Minimize Heuristic.Original_order
let backward_order = key ~sense:Heuristic.Maximize Heuristic.Original_order

(* A block's static ranking, into [prio.(0 .. n-1)]: node [i]'s priority
   is, for winnowing, the signed values of the config's longest prefix of
   static keys packed rank-major into one int (each offset by its block
   minimum and scaled by the value ranges of the packed keys after it),
   then program order where it fits; for a priority function whose keys
   are all static, its weighted sum.  Returns the keys that {!choose}
   among the nodes tied for the top priority, in rank order.  With no
   static prefix every priority is 0 and every key is returned. *)
let static_rank config weights ~annot ~st prio n =
  match config.mode with
  | Winnowing ->
      Array.fill prio 0 n 0;
      let last =
        match config.direction with
        | Dyn_state.Forward -> forward_order
        | Dyn_state.Backward -> backward_order
      in
      pack_keys ~annot ~st prio n 1 last config.keys
  | Priority_fn ->
      if List.for_all is_static config.keys then begin
        for i = 0 to n - 1 do
          prio.(i) <- priority config.keys weights ~annot ~st i
        done;
        []
      end
      else begin
        Array.fill prio 0 n 0;
        config.keys
      end

(* ------------------------------------------------------------------ *)
(* decision tracing: which heuristic actually decided each issue *)

(* One scheduling decision (see engine.mli). *)
type decision = {
  time : int;
  candidates : int list;
  trail : (Heuristic.t * int * int list) list;
      (* heuristic, best signed value, survivors *)
  chosen : int;
  tie_break : bool;
}

(* The observer: the pick has already chosen [chosen] from the ready
   candidates [cand] (list order, left as is); rebuild the decision's
   shape as (trail, tie_break).  A copy of [cand] is winnowed key by
   key, its survivors noted after each key; for a priority function that
   is the restricted narrowing, and [tie_break] means several nodes
   share the top weighted sum.  The observer's own winner must be
   [chosen]: it never decides. *)
let observe config weights ~annot ~st cand chosen =
  let m = Array.length cand in
  if m = 1 then ([], false)
  else begin
    let survivors = Array.copy cand and trail = ref [] and kept = ref m in
    let on_key k best n =
      trail := (k.heuristic, best, List.init n (Array.get survivors)) :: !trail;
      kept := n
    in
    let narrowed =
      pick_winnowing ~on_key config.direction config.keys ~annot ~st survivors
        (Array.make m 0) m
    in
    let winner, tie_break =
      match config.mode with
      | Winnowing -> (narrowed, !kept > 1)
      | Priority_fn ->
          let prio = priority config.keys weights ~annot ~st in
          let winner =
            pick_priority config.direction config.keys weights ~annot ~st cand m
          in
          let top = prio winner in
          (winner, Array.fold_left (fun c i -> if prio i = top then c + 1 else c) 0 cand > 1)
    in
    assert (winner = chosen);
    (List.rev !trail, tie_break)
  end

(* ------------------------------------------------------------------ *)
(* a config's identity in decision records *)

(* The signature is derived from the config itself — the engine has no
   notion of a strategy name — and embeds the key order, so colliding
   signatures always agree on ranks.  Display names already carry their
   natural direction ("max path length to a leaf"), so only a
   non-default sense is annotated. *)
let key_label k =
  let base = Heuristic.to_string k.heuristic in
  if k.sense = Heuristic.default_sense k.heuristic then base
  else
    match k.sense with
    | Heuristic.Maximize -> base ^ " (maximized)"
    | Heuristic.Minimize -> base ^ " (minimized)"

let key_labels config = List.map key_label config.keys

let signature config =
  (match config.direction with
  | Dyn_state.Forward -> "forward"
  | Dyn_state.Backward -> "backward")
  ^ "/"
  ^ (match config.mode with
    | Winnowing -> "winnowing"
    | Priority_fn -> "priority")
  ^ ": "
  ^ String.concat " > " (key_labels config)

(* A single candidate is returned without consulting any heuristic. *)
let pick config ~annot ~st candidates =
  let cand = Array.of_list candidates in
  let m = Array.length cand in
  if m = 1 then cand.(0)
  else choose config config.keys (config_weights config) ~annot ~st cand (Array.make m 0) m

(* A recorder sees the chosen node and the released nodes of
   [avail.(0 .. n_avail-1)], newest push first by [stamp]: the list
   order the narrative prints.  It never decides. *)
let observe_ready record config weights ~annot ~st avail n_avail stamp chosen =
  let cand = ref [] in
  for j = 0 to n_avail - 1 do
    let i = avail.(j) in
    if st.Dyn_state.earliest_exec.(i) <= st.time then cand := i :: !cand
  done;
  let cand = Array.of_list !cand in
  Array.sort (fun a b -> Int.compare stamp.(b) stamp.(a)) cand;
  let trail, tie_break = observe config weights ~annot ~st cand chosen in
  record { time = st.time; candidates = Array.to_list cand; trail; chosen; tie_break }

(* ------------------------------------------------------------------ *)
(* per-domain work arrays *)

(* A run's work arrays, each at least as long as the block: the
   available list and each node's slot in it, the top-priority front,
   the winnowing values and the static priorities, plus the dynamic
   state, reset in place for each block.  Each domain keeps one, grown
   to the largest block it has scheduled; [in_use] marks it taken by a
   run in progress.  [n_avail] is the available list's length and
   [stamp] an observed run's push stamps ([[||]] unobserved): fields
   here, so that pushing a node takes no closure. *)
type scratch = {
  mutable in_use : bool;
  st : Dyn_state.t;
  mutable avail : int array;
  mutable slot : int array;
  mutable ready : int array;
  mutable vals : int array;
  mutable prio : int array;
  mutable n_avail : int;
  mutable stamp : int array;
}

let fresh_scratch () =
  { in_use = false;
    st = Dyn_state.scratch ();
    avail = [||];
    slot = [||];
    ready = [||];
    vals = [||];
    prio = [||];
    n_avail = 0;
    stamp = [||] }

let scratch_key = Domain.DLS.new_key fresh_scratch

(* The calling domain's scratch, grown to [n] and marked in use; while a
   run holds it (a seed, or a latency-model function the dynamic state
   calls, that runs the engine again), fresh arrays instead. *)
let acquire n =
  let s = Domain.DLS.get scratch_key in
  let s = if s.in_use then fresh_scratch () else s in
  s.in_use <- true;
  if Array.length s.avail < n then begin
    let cap = Int.max n (2 * Array.length s.avail) in
    s.avail <- Array.make cap 0;
    s.slot <- Array.make cap 0;
    s.ready <- Array.make cap 0;
    s.vals <- Array.make cap 0;
    s.prio <- Array.make cap 0
  end;
  s

(* The available nodes, in no order: [slot.(i)] is node [i]'s index in
   [avail], and an issue moves the last entry into its gap.  For an
   observer, [stamp.(i)] counts the pushes before [i]'s (every pushed
   node is available or scheduled): the candidate list [explain] prints
   is newest push first, so ascending ids for the nodes available at
   block start. *)
let push s i =
  if Array.length s.stamp > 0 then s.stamp.(i) <- s.st.Dyn_state.n_scheduled + s.n_avail;
  s.avail.(s.n_avail) <- i;
  s.slot.(i) <- s.n_avail;
  s.n_avail <- s.n_avail + 1

(* an arc leaving the node just issued: its peer joins the list once
   every predecessor has issued *)
let on_successor s peer _ _ =
  if Dyn_state.available s.st peer then push s peer;
  s

(* The scheduling loop over a block of [n] >= 1 nodes, in [s]'s arrays,
   optionally recording decisions. *)
let schedule_block ?seed ?recorder s config ~annot dag n =
  let st = Dyn_state.create_in s.st dag config.direction in
  (match seed with Some f -> f st | None -> ());
  s.n_avail <- 0;
  s.stamp <- (if Option.is_some recorder then Array.make n 0 else [||]);
  let avail = s.avail and slot = s.slot in
  for i = n - 1 downto 0 do
    if Dyn_state.available st i then push s i
  done;
  (* trace bookkeeping is resolved once per block; the common
     (disabled) path costs one atomic read per run_impl call; only
     tracing reads the clock around each pick *)
  let trace_on = Ds_obs.Trace.enabled () in
  let weights = config_weights config in
  let prio = s.prio in
  let rest = static_rank config weights ~annot ~st prio n in
  (* the top-priority front of the ready candidates, and the winnowing
     values when keys are left to winnow it *)
  let ready = s.ready and vals = s.vals in
  let picks = ref 0 and pick_first = ref 0.0 and pick_total = ref 0.0 in
  (* the summed ready-list lengths and the cycles no candidate could
     issue: the heur_dynamic span's args *)
  let candidates = ref 0 and stall_cycles = ref 0 in
  let order = Array.make n 0 in
  while not (Dyn_state.complete st) do
    let t0 = if trace_on then Ds_obs.Clock.now () else 0.0 in
    (* one pass: skip the unreleased nodes and keep the released ones
       tied for the top priority in [ready.(0 .. f-1)] *)
    let m = ref 0 and f = ref 0 and best = ref min_int in
    for j = 0 to s.n_avail - 1 do
      let i = avail.(j) in
      if st.earliest_exec.(i) <= st.time then begin
        incr m;
        let p = prio.(i) in
        if !f = 0 || p > !best then begin
          best := p;
          ready.(0) <- i;
          f := 1
        end
        else if p = !best then begin
          ready.(!f) <- i;
          incr f
        end
      end
    done;
    candidates := !candidates + !m;
    if !m = 0 then begin
      (* no candidate can issue: advance to the nearest release time *)
      let next = ref max_int in
      for j = 0 to s.n_avail - 1 do
        next := Int.min !next st.earliest_exec.(avail.(j))
      done;
      assert (!next < max_int);
      stall_cycles := !stall_cycles + (!next - st.time);
      st.time <- !next
    end
    else begin
      let chosen =
        if !f = 1 then ready.(0)
        else choose config rest weights ~annot ~st ready vals !f
      in
      if trace_on then begin
        if !picks = 0 then pick_first := t0;
        pick_total := !pick_total +. Ds_obs.Clock.since t0;
        incr picks
      end;
      (match recorder with
      | Some record ->
          observe_ready record config weights ~annot ~st avail s.n_avail s.stamp chosen
      | None -> ());
      (* a backward pass builds the schedule last-to-first *)
      (match config.direction with
      | Dyn_state.Forward -> order.(st.n_scheduled) <- chosen
      | Dyn_state.Backward -> order.(n - 1 - st.n_scheduled) <- chosen);
      Dyn_state.schedule st chosen ~at:st.time;
      st.time <- st.time + 1;
      let j = slot.(chosen) and last = avail.(s.n_avail - 1) in
      avail.(j) <- last;
      slot.(last) <- j;
      s.n_avail <- s.n_avail - 1;
      (* arcs are coalesced, so a peer's counter reaches zero exactly
         when its last predecessor, [chosen], issues: it cannot
         already be in the list *)
      ignore (Dyn_state.fold_successors st chosen on_successor s)
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

(* Hand the scratch back, keeping nothing of the block: its DAG can be
   collected as soon as the caller drops it. *)
let release s =
  Dyn_state.release s.st;
  s.stamp <- [||];
  s.in_use <- false

(* The block's order; the scratch is released however the run ends. *)
let run_impl ?seed ?recorder config ~annot dag =
  let n = Ds_dag.Dag.length dag in
  if n = 0 then [||]
  else begin
    let s = acquire n in
    match schedule_block ?seed ?recorder s config ~annot dag n with
    | order ->
        release s;
        order
    | exception e ->
        let bt = Printexc.get_raw_backtrace () in
        release s;
        Printexc.raise_with_backtrace e bt
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
