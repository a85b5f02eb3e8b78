(** The decisiveness registry's arithmetic, kept as the yardstick for
    the decisiveness fold (see explain_legacy.mli). *)

open Ds_obs.Explain

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

type t = (string, cell) Hashtbl.t

let create () = Hashtbl.create 8

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

let cell tbl ~signature ~keys =
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
let snapshot tbl =
  Hashtbl.fold
    (fun signature c acc ->
      if c.cdecisions = 0 then acc else stat_of_cell signature c :: acc)
    tbl []
  |> List.sort (fun a b -> compare a.signature b.signature)
