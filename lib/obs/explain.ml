(** Decision provenance: per-step decision traces and the decisiveness
    fold over them.  See explain.mli for the contract. *)

(* ------------------------------------------------------------------ *)
(* decision traces *)

type step = { heuristic : string; best : int; survivors : int list }

type decision = {
  block : int;
  strategy : string;
  time : int;
  candidates : int list;
  steps : step list;
  chosen : int;
  tie_break : bool;
}

let ints l = Json.List (List.map (fun i -> Json.Int i) l)

let step_to_json (s : step) =
  Json.Obj
    [ ("heuristic", Json.String s.heuristic);
      ("best", Json.Int s.best);
      ("survivors", ints s.survivors) ]

let decision_to_json (d : decision) =
  Json.Obj
    [ ("block", Json.Int d.block);
      ("strategy", Json.String d.strategy);
      ("time", Json.Int d.time);
      ("candidates", ints d.candidates);
      ("steps", Json.List (List.map step_to_json d.steps));
      ("chosen", Json.Int d.chosen);
      ("tie_break", Json.Bool d.tie_break) ]

let ( let* ) = Result.bind

let decode_int ~path = function
  | Json.Int i -> Ok i
  | v ->
      Json.decode_error ~path
        (Printf.sprintf "expected an int, found %s" (Json.type_name v))

let get_bool ~path k json =
  match Json.member k json with
  | Some (Json.Bool b) -> Ok b
  | Some v ->
      Json.decode_error ~path:(path @ [ k ])
        (Printf.sprintf "expected a bool, found %s" (Json.type_name v))
  | None -> Json.decode_error ~path:(path @ [ k ]) "missing field"

let step_of_json ~path json =
  let* heuristic = Json.get_string ~path "heuristic" json in
  let* best = Json.get_int ~path "best" json in
  let* survivors = Json.get_list ~path "survivors" decode_int json in
  Ok { heuristic; best; survivors }

let decision_of_json ?(path = []) json =
  let* block = Json.get_int ~path "block" json in
  let* strategy = Json.get_string ~path "strategy" json in
  let* time = Json.get_int ~path "time" json in
  let* candidates = Json.get_list ~path "candidates" decode_int json in
  let* steps = Json.get_list ~path "steps" step_of_json json in
  let* chosen = Json.get_int ~path "chosen" json in
  let* tie_break = get_bool ~path "tie_break" json in
  Ok { block; strategy; time; candidates; steps; chosen; tie_break }

let decisions_to_jsonl ds =
  String.concat ""
    (List.map (fun d -> Json.to_string (decision_to_json d) ^ "\n") ds)

let decisions_of_jsonl text =
  Json.of_jsonl (fun ~path -> decision_of_json ~path) text

(* ------------------------------------------------------------------ *)
(* decisiveness *)

type rank_stat = {
  rank : int;
  heuristic : string;
  consulted : int;
  decided : int;
  eliminated : int;
}

type strategy_stat = {
  signature : string;
  keys : string list;
  decisions : int;
  forced : int;
  tie_breaks : int;
  overruled : int;
  ranks : rank_stat list;
}

type stats = strategy_stat list

(* Each decision counts once.  One candidate is a forced pick: no rank
   was consulted.  Otherwise the steps walk the ranks in order, each
   consulted rank eliminating the survivors it removed; the last one
   settled the pick iff it narrowed to one survivor and the result stood
   (no tie-break, no priority-weight overrule).  Steps past the key list
   are ignored. *)
let decisiveness ~signature ~keys decisions =
  let n = List.length keys in
  let consulted = Array.make n 0
  and decided = Array.make n 0
  and eliminated = Array.make n 0 in
  let forced = ref 0 and tie_breaks = ref 0 and overruled = ref 0 in
  let count (d : decision) =
    match d.candidates with
    | [ _ ] -> incr forced
    | candidates ->
        let over =
          match List.rev d.steps with
          | last :: _ -> not (List.mem d.chosen last.survivors)
          | [] -> false
        in
        if d.tie_break then incr tie_breaks;
        if over then incr overruled;
        let rec walk i prev = function
          | [] ->
              if i > 0 && i <= n && prev = 1 && (not d.tie_break) && not over
              then decided.(i - 1) <- decided.(i - 1) + 1
          | (s : step) :: rest ->
              let cur = List.length s.survivors in
              if i < n then begin
                consulted.(i) <- consulted.(i) + 1;
                eliminated.(i) <- eliminated.(i) + max 0 (prev - cur)
              end;
              walk (i + 1) cur rest
        in
        walk 0 (List.length candidates) d.steps
  in
  List.iter count decisions;
  {
    signature;
    keys;
    decisions = List.length decisions;
    forced = !forced;
    tie_breaks = !tie_breaks;
    overruled = !overruled;
    ranks =
      List.mapi
        (fun i heuristic ->
          {
            rank = i + 1;
            heuristic;
            consulted = consulted.(i);
            decided = decided.(i);
            eliminated = eliminated.(i);
          })
        keys;
  }

let equal (a : stats) (b : stats) = a = b

let never_consulted (st : strategy_stat) =
  List.filter_map
    (fun r -> if r.consulted = 0 then Some r.heuristic else None)
    st.ranks

(* ------------------------------------------------------------------ *)
(* JSON (schema in docs/FORMAT.md, "decisiveness") *)

let rank_to_json (r : rank_stat) =
  Json.Obj
    [ ("rank", Json.Int r.rank);
      ("heuristic", Json.String r.heuristic);
      ("consulted", Json.Int r.consulted);
      ("decided", Json.Int r.decided);
      ("eliminated", Json.Int r.eliminated) ]

let strategy_to_json (st : strategy_stat) =
  Json.Obj
    [ ("signature", Json.String st.signature);
      ("keys", Json.List (List.map (fun k -> Json.String k) st.keys));
      ("decisions", Json.Int st.decisions);
      ("forced", Json.Int st.forced);
      ("tie_breaks", Json.Int st.tie_breaks);
      ("overruled", Json.Int st.overruled);
      ("ranks", Json.List (List.map rank_to_json st.ranks)) ]

let to_json (s : stats) = Json.List (List.map strategy_to_json s)

let rank_of_json ~path json =
  let* rank = Json.get_int ~path "rank" json in
  let* heuristic = Json.get_string ~path "heuristic" json in
  let* consulted = Json.get_int ~path "consulted" json in
  let* decided = Json.get_int ~path "decided" json in
  let* eliminated = Json.get_int ~path "eliminated" json in
  Ok { rank; heuristic; consulted; decided; eliminated }

let strategy_of_json ~path json =
  let* signature = Json.get_string ~path "signature" json in
  let* keys = Json.get_list ~path "keys" Json.decode_string json in
  let* decisions = Json.get_int ~path "decisions" json in
  let* forced = Json.get_int ~path "forced" json in
  let* tie_breaks = Json.get_int ~path "tie_breaks" json in
  let* overruled = Json.get_int ~path "overruled" json in
  let* ranks = Json.get_list ~path "ranks" rank_of_json json in
  Ok { signature; keys; decisions; forced; tie_breaks; overruled; ranks }

let of_json ?(path = []) json =
  match json with
  | Json.List items ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest -> (
            match
              strategy_of_json ~path:(path @ [ Json.index_seg "" i ]) item
            with
            | Error e -> Error e
            | Ok st -> go (i + 1) (st :: acc) rest)
      in
      go 0 [] items
  | v ->
      Json.decode_error ~path
        (Printf.sprintf "expected a list, found %s" (Json.type_name v))
