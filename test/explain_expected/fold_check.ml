(** [fold_check.exe SCHEDTOOL PROGRAM]: for each of the six published
    strategies, read [schedtool explain -q -A S --jsonl -] back through
    [Explain.decisions_of_jsonl], fold it with [Explain.decisiveness],
    and compare the result with that strategy's entry in
    [schedtool explain -q --json -].  Exits 1 naming the first strategy
    that differs. *)

open Dagsched

let output tool args =
  let cmd = Filename.quote_command tool args in
  let ic = Unix.open_process_in cmd in
  let text = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> text
  | _ -> failwith (cmd ^ " failed")

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let () =
  let tool = Sys.argv.(1) and program = Sys.argv.(2) in
  let stats =
    match Json.of_string (output tool [ "explain"; "-q"; "--json"; "-"; program ]) with
    | Error msg -> fail "explain --json: %s" msg
    | Ok json -> (
        match Json.member "explain" json with
        | None -> fail "explain --json: no explain field"
        | Some e -> (
            match Explain.of_json e with
            | Ok stats -> stats
            | Error e -> fail "explain --json: %s" (Json.error_to_string e)))
  in
  List.iter
    (fun sp ->
      let short = sp.Published.short in
      let config = Published.engine_config sp in
      let signature = Engine.signature config in
      let decisions =
        match
          Explain.decisions_of_jsonl
            (output tool [ "explain"; "-q"; "-A"; short; "--jsonl"; "-"; program ])
        with
        | Ok ds -> ds
        | Error e -> fail "%s: %s" short (Json.error_to_string e)
      in
      let folded =
        Explain.decisiveness ~signature ~keys:(Engine.key_labels config) decisions
      in
      match List.find_opt (fun st -> st.Explain.signature = signature) stats with
      | Some st when Explain.equal [ st ] [ folded ] -> ()
      | Some _ -> fail "%s: the folded trace differs from explain --json" short
      | None -> fail "%s: no entry in explain --json" short)
    Published.all
