(** The list scheduler's bare pick before the static priority, and the
    list-based decision trail, kept as the differential yardstick (see
    engine_legacy.mli). *)

open Dagsched

type counts = { picks : int; candidates : int; stall_cycles : int }

type traced = { decision : Engine.decision; overruled : bool }

(* Signed value: larger is always better after applying the sense. *)
let signed_value (k : Engine.key) ~annot ~st i =
  let v = Evaluate.value k.Engine.heuristic ~annot ~st i in
  match k.Engine.sense with Heuristic.Maximize -> v | Heuristic.Minimize -> -v

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
   10^(n - r). *)
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

(* ------------------------------------------------------------------ *)
(* decision tracing: which heuristic actually decided each issue *)

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
        let acc = (k.Engine.heuristic, best, survivors) :: acc in
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
        let acc = (k.Engine.heuristic, best, survivors) :: acc in
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
let traced_pick (config : Engine.config) ~annot ~st candidates =
  match candidates with
  | [ only ] -> ([], only, false, false)
  | _ -> (
      match config.Engine.mode with
      | Engine.Winnowing ->
          let trail, chosen, tie_break =
            winnow_trail config.Engine.direction config.Engine.keys ~annot ~st
              candidates
          in
          (trail, chosen, tie_break, false)
      | Engine.Priority_fn ->
          priority_trail config.Engine.direction config.Engine.keys ~annot ~st
            candidates)

let bare_pick (config : Engine.config) weights ~annot ~st cand vals m =
  match config.Engine.mode with
  | Engine.Winnowing ->
      pick_winnowing config.Engine.direction config.Engine.keys ~annot ~st
        cand vals m
  | Engine.Priority_fn ->
      pick_priority config.Engine.direction config.Engine.keys weights ~annot
        ~st cand m

let run_impl ?seed ?recorder (config : Engine.config) ~annot dag =
  let n = Dag.length dag in
  if n = 0 then ([||], { picks = 0; candidates = 0; stall_cycles = 0 })
  else begin
    let st = Dyn_state.create dag config.Engine.direction in
    (match seed with Some f -> f st | None -> ());
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
    let ready = Array.make n 0 and vals = Array.make n 0 in
    let weights =
      match config.Engine.mode with
      | Engine.Winnowing -> [||]
      | Engine.Priority_fn -> weights config.Engine.keys
    in
    let picks = ref 0 and candidates = ref 0 and stall_cycles = ref 0 in
    let order = Array.make n 0 in
    while not (Dyn_state.complete st) do
      let m = ref 0 in
      for j = !n_avail - 1 downto 0 do
        let i = avail.(j) in
        if st.Dyn_state.earliest_exec.(i) <= st.Dyn_state.time then begin
          ready.(!m) <- i;
          incr m
        end
      done;
      let m = !m in
      candidates := !candidates + m;
      if m = 0 then begin
        let next = ref max_int in
        for j = 0 to !n_avail - 1 do
          next := Int.min !next st.Dyn_state.earliest_exec.(avail.(j))
        done;
        assert (!next < max_int);
        stall_cycles := !stall_cycles + (!next - st.Dyn_state.time);
        st.Dyn_state.time <- !next
      end
      else begin
        let chosen =
          match recorder with
          | None ->
              if m = 1 then ready.(0)
              else bare_pick config weights ~annot ~st ready vals m
          | Some record ->
              let candidates = List.init m (Array.get ready) in
              let trail, chosen, tie_break, overruled =
                traced_pick config ~annot ~st candidates
              in
              record
                { decision =
                    { Engine.time = st.Dyn_state.time; candidates; trail; chosen;
                      tie_break };
                  overruled };
              chosen
        in
        incr picks;
        (match config.Engine.direction with
        | Dyn_state.Forward -> order.(st.Dyn_state.n_scheduled) <- chosen
        | Dyn_state.Backward -> order.(n - 1 - st.Dyn_state.n_scheduled) <- chosen);
        Dyn_state.schedule st chosen ~at:st.Dyn_state.time;
        st.Dyn_state.time <- st.Dyn_state.time + 1;
        let j = ref (!n_avail - 1) in
        while avail.(!j) <> chosen do
          decr j
        done;
        Array.blit avail (!j + 1) avail !j (!n_avail - !j - 1);
        decr n_avail;
        Dyn_state.fold_successors st chosen on_successor ()
      end
    done;
    (order, { picks = !picks; candidates = !candidates; stall_cycles = !stall_cycles })
  end

let run ?seed config ~annot dag = run_impl ?seed config ~annot dag

let run_traced ?seed config ~annot dag =
  let decisions = ref [] in
  let order, _ = run_impl ?seed ~recorder:(fun d -> decisions := d :: !decisions) config ~annot dag in
  (order, List.rev !decisions)
