(** Decision provenance: per-step decision traces and a corpus-level
    decisiveness registry.  See explain.mli for the contract. *)

let enabled_flag = Atomic.make false
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false
let enabled () = Atomic.get enabled_flag

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
  let lines = String.split_on_char '\n' text in
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        if String.trim line = "" then go (n + 1) acc rest
        else begin
          match Json.of_string line with
          | Error e -> Error (Printf.sprintf "line %d: %s" n e)
          | Ok json -> (
              match decision_of_json json with
              | Error e ->
                  Error
                    (Printf.sprintf "line %d: %s" n (Json.error_to_string e))
              | Ok d -> go (n + 1) (d :: acc) rest)
        end
  in
  go 1 [] lines

(* ------------------------------------------------------------------ *)
(* decisiveness registry *)

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

(* One cell per (domain, signature).  Signatures arrive dynamically, so
   each domain owns a hashtable of cells; the tables themselves are
   registered into a global list under the mutex so [snapshot]/[reset]
   can reach them. *)
type cell = {
  ckeys : string array;
  mutable cdecisions : int;
  mutable cforced : int;
  mutable cties : int;
  mutable coverruled : int;
  cconsulted : int array;
  cdecided : int array;
  celiminated : int array;
}

let registry_mutex = Mutex.create ()
let all_tables : (string, cell) Hashtbl.t list ref = ref []

let with_registry f =
  Mutex.lock registry_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_mutex) f

let dls_key : (string, cell) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let tbl = Hashtbl.create 8 in
      with_registry (fun () -> all_tables := tbl :: !all_tables);
      tbl)

let fresh_cell keys =
  let n = Array.length keys in
  {
    ckeys = keys;
    cdecisions = 0;
    cforced = 0;
    cties = 0;
    coverruled = 0;
    cconsulted = Array.make n 0;
    cdecided = Array.make n 0;
    celiminated = Array.make n 0;
  }

(* resolve the calling domain's accumulator once, then record with no
   hashing or gating (see the mli) *)
let cell ~signature ~keys =
  let tbl = Domain.DLS.get dls_key in
  match Hashtbl.find_opt tbl signature with
  | Some c -> c
  | None ->
      let c = fresh_cell (Array.of_list keys) in
      Hashtbl.add tbl signature c;
      c

let record c ~candidates ~survivor_counts ~forced ~tie_break ~overruled =
  c.cdecisions <- c.cdecisions + 1;
  if forced then c.cforced <- c.cforced + 1
  else begin
    if tie_break then c.cties <- c.cties + 1;
    if overruled then c.coverruled <- c.coverruled + 1;
    let n = Array.length c.ckeys in
    let rec walk i prev = function
      | [] ->
          (* the last consulted rank settled it iff it narrowed to one
             survivor and the result stood (no tie-break, no priority-
             weight override of the lexicographic order) *)
          if i > 0 && i <= n && prev = 1 && (not tie_break) && not overruled
          then c.cdecided.(i - 1) <- c.cdecided.(i - 1) + 1
      | cur :: rest ->
          if i < n then begin
            c.cconsulted.(i) <- c.cconsulted.(i) + 1;
            c.celiminated.(i) <- c.celiminated.(i) + max 0 (prev - cur)
          end;
          walk (i + 1) cur rest
    in
    walk 0 candidates survivor_counts
  end

(* ------------------------------------------------------------------ *)
(* snapshots *)

let add_cell (dst : cell) (src : cell) =
  dst.cdecisions <- dst.cdecisions + src.cdecisions;
  dst.cforced <- dst.cforced + src.cforced;
  dst.cties <- dst.cties + src.cties;
  dst.coverruled <- dst.coverruled + src.coverruled;
  let n = min (Array.length dst.ckeys) (Array.length src.ckeys) in
  for i = 0 to n - 1 do
    dst.cconsulted.(i) <- dst.cconsulted.(i) + src.cconsulted.(i);
    dst.cdecided.(i) <- dst.cdecided.(i) + src.cdecided.(i);
    dst.celiminated.(i) <- dst.celiminated.(i) + src.celiminated.(i)
  done

let stat_of_cell signature (c : cell) =
  {
    signature;
    keys = Array.to_list c.ckeys;
    decisions = c.cdecisions;
    forced = c.cforced;
    tie_breaks = c.cties;
    overruled = c.coverruled;
    ranks =
      List.init (Array.length c.ckeys) (fun i ->
          {
            rank = i + 1;
            heuristic = c.ckeys.(i);
            consulted = c.cconsulted.(i);
            decided = c.cdecided.(i);
            eliminated = c.celiminated.(i);
          });
  }

(* Empty cells (decisions = 0) are dropped, so a snapshot is independent
   of which signatures merely registered. *)
let snapshot () =
  with_registry (fun () ->
      let merged : (string, cell) Hashtbl.t = Hashtbl.create 8 in
      List.iter
        (fun tbl ->
          Hashtbl.iter
            (fun signature c ->
              match Hashtbl.find_opt merged signature with
              | Some dst -> add_cell dst c
              | None ->
                  let dst = fresh_cell (Array.copy c.ckeys) in
                  add_cell dst c;
                  Hashtbl.add merged signature dst)
            tbl)
        !all_tables;
      Hashtbl.fold
        (fun signature c acc ->
          if c.cdecisions = 0 then acc else stat_of_cell signature c :: acc)
        merged []
      |> List.sort (fun a b -> compare a.signature b.signature))

let reset () =
  with_registry (fun () -> List.iter Hashtbl.reset !all_tables)

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
