(** Structured, leveled JSONL event logging.  See log.mli for the
    contract. *)

type level = Debug | Info | Warn | Error

let level_to_string = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "debug" -> Some Debug
  | "info" -> Some Info
  | "warn" | "warning" -> Some Warn
  | "error" -> Some Error
  | _ -> None

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

(* 4 = disabled sentinel: no level reaches it, so [enabled] is a single
   atomic read + compare in the (default) off state *)
let threshold = Atomic.make 4

let set_level = function
  | None -> Atomic.set threshold 4
  | Some l -> Atomic.set threshold (severity l)

let level () =
  match Atomic.get threshold with
  | 0 -> Some Debug
  | 1 -> Some Info
  | 2 -> Some Warn
  | 3 -> Some Error
  | _ -> None

let enabled l = severity l >= Atomic.get threshold

(* ------------------------------------------------------------------ *)
(* events *)

type event = {
  ts_s : float;
  level : level;
  scope : string;
  msg : string;
  fields : (string * Json.t) list;
  pid : int;
  tid : int;
}

(* ------------------------------------------------------------------ *)
(* sink: O_APPEND + one write(2) per line = signal-safe write-through.
   POSIX guarantees O_APPEND writes land whole at the end of the file,
   so concurrent domains never tear a line. *)

let sink : Unix.file_descr option Atomic.t = Atomic.make None

let close_sink () =
  match Atomic.exchange sink None with
  | None -> ()
  | Some fd -> ( try Unix.close fd with Unix.Unix_error _ -> ())

let set_sink path =
  let flags = [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_TRUNC ] in
  match Unix.openfile path flags 0o644 with
  | exception Unix.Unix_error (e, _, _) ->
      Stdlib.Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
  | fd ->
      close_sink ();
      Atomic.set sink (Some fd);
      Ok ()

let rec write_all fd bytes off len =
  if len > 0 then
    match Unix.write fd bytes off len with
    | n -> if n < len then write_all fd bytes (off + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd bytes off len

(* best-effort: logging must never take the pipeline down *)
let write_line fd line =
  let b = Bytes.of_string (line ^ "\n") in
  try write_all fd b 0 (Bytes.length b) with Unix.Unix_error _ -> ()

(* ------------------------------------------------------------------ *)
(* JSON *)

let event_to_json e =
  Json.Obj
    [ ("ts", Json.Float e.ts_s);
      ("level", Json.String (level_to_string e.level));
      ("scope", Json.String e.scope);
      ("msg", Json.String e.msg);
      ("pid", Json.Int e.pid);
      ("tid", Json.Int e.tid);
      ("fields", Json.Obj e.fields) ]

let event_of_json ?(path = []) json =
  let ( let* ) = Result.bind in
  let* ts_s = Json.get_float ~path "ts" json in
  let* level_name = Json.get_string ~path "level" json in
  let* level =
    match level_of_string level_name with
    | Some l -> Ok l
    | None ->
        Json.decode_error ~path:(path @ [ "level" ])
          (Printf.sprintf "unknown level %S" level_name)
  in
  let* scope = Json.get_string ~path "scope" json in
  let* msg = Json.get_string ~path "msg" json in
  (* pid/tid/fields are defaulted so a hand-written or foreign event
     still reads *)
  let* pid =
    match Json.member "pid" json with
    | None -> Ok 0
    | Some _ -> Json.get_int ~path "pid" json
  in
  let* tid =
    match Json.member "tid" json with
    | None -> Ok 0
    | Some _ -> Json.get_int ~path "tid" json
  in
  let* fields =
    match Json.member "fields" json with
    | None -> Ok []
    | Some (Json.Obj fs) -> Ok fs
    | Some v ->
        Json.decode_error ~path:(path @ [ "fields" ])
          (Printf.sprintf "expected an object, found %s" (Json.type_name v))
  in
  Ok { ts_s; level; scope; msg; fields; pid; tid }

let jsonl_lines text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> String.trim l <> "")

let events_of_jsonl text = Json.of_jsonl (fun ~path -> event_of_json ~path) text

let events_of_jsonl_prefix text =
  let rec go acc = function
    | [] -> (List.rev acc, None)
    | line :: rest -> (
        match Json.of_string line with
        | Stdlib.Error _ -> (List.rev acc, Some line)
        | Ok json -> (
            match event_of_json json with
            | Stdlib.Error _ -> (List.rev acc, Some line)
            | Ok ev -> go (ev :: acc) rest))
  in
  go [] (jsonl_lines text)

(* ------------------------------------------------------------------ *)
(* emission *)

let os_pid = lazy (Unix.getpid ())

let emit ev =
  match Atomic.get sink with
  | None -> ()
  | Some fd -> write_line fd (Json.to_string (event_to_json ev))

let make_event ?(fields = []) level ~scope msg =
  { ts_s = Clock.now (); level; scope; msg; fields;
    pid = Lazy.force os_pid;
    tid = (Domain.self () :> int) }

let log ?fields level ~scope msg =
  if enabled level then emit (make_event ?fields level ~scope msg)

(* ------------------------------------------------------------------ *)
(* heartbeats *)

let hb_interval = Atomic.make Float.nan (* nan = disarmed *)
let hb_echo = Atomic.make false
(* boxed-float atomic, CAS'd so concurrent domains race to one beat per
   interval instead of all beating at once *)
let hb_last : float Atomic.t = Atomic.make Float.neg_infinity

let set_heartbeat ?(echo = false) ~interval_s () =
  Atomic.set hb_echo echo;
  Atomic.set hb_last Float.neg_infinity;
  Atomic.set hb_interval (Float.max 0.0 interval_s)

let disable_heartbeat () =
  Atomic.set hb_interval Float.nan;
  Atomic.set hb_echo false;
  Atomic.set hb_last Float.neg_infinity

let heartbeat_enabled () = not (Float.is_nan (Atomic.get hb_interval))

let rss_kb () =
  match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      let rec find = function
        | [] -> 0
        | line :: rest ->
            if String.starts_with ~prefix:"VmRSS:" line then (
              let digits =
                String.to_seq line
                |> Seq.filter (fun c -> c >= '0' && c <= '9')
                |> String.of_seq
              in
              match int_of_string_opt digits with
              | Some kb -> kb
              | None -> 0)
            else find rest
      in
      find (String.split_on_char '\n' text)

let heartbeat ?(force = false) ~phase ~done_ ~total () =
  let interval = Atomic.get hb_interval in
  if not (Float.is_nan interval) then begin
    let now = Clock.now () in
    let last = Atomic.get hb_last in
    let due = now -. last >= interval in
    (* losing the CAS means another domain just beat; skip unless forced *)
    if force || (due && Atomic.compare_and_set hb_last last now) then begin
      let rss = rss_kb () in
      let ev =
        make_event
          ~fields:
            [ ("phase", Json.String phase);
              ("done", Json.Int done_);
              ("total", Json.Int total);
              ("rss_kb", Json.Int rss) ]
          Info ~scope:"heartbeat" "heartbeat"
      in
      emit ev;
      if Atomic.get hb_echo then
        Printf.eprintf "progress: %d/%d blocks, %s, rss %d MB\n%!" done_ total
          phase (rss / 1024)
    end
  end

(* ------------------------------------------------------------------ *)
(* reset (tests / bench) *)

let reset () = Atomic.set hb_last Float.neg_infinity
