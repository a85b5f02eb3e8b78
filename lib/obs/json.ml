(** Hand-rolled JSON, used for the machine-readable perf reports
    (BENCH_obs.json, schedtool batch --json) and the observability
    layer's trace serialization.  No external deps.

    Historically this lived in [Ds_util.Stats.Json]; it moved here so the
    observability layer ({!Trace}) can sit below [ds_util].
    [Ds_util.Stats.Json] remains a transparent alias, so existing callers
    and type equalities are unchanged. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* Shortest of %.12g / %.17g that reads back exactly; always spelled as
   a float so a round trip preserves the Int/Float distinction.  JSON
   has no nan/infinity, and %g would happily print both ("nan", "inf"),
   producing unparseable output — every non-finite float is encoded as
   null here so no caller can emit invalid JSON. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
    else s ^ ".0"

let escape buf s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* [string_of_int]'s digits, written straight into [buf].  They come
   off the value negated, [n <= 0], so [min_int] needs no special case:
   [n mod 10] is then in [-9, 0]. *)
let rec add_digits buf n =
  if n <= -10 then add_digits buf (n / 10);
  Buffer.add_char buf (Char.unsafe_chr (Char.code '0' - (n mod 10)))

let add_int buf i =
  if i < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf i
  end
  else add_digits buf (-i)

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ", ";
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ", ";
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\": ";
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write buf t;
  Buffer.contents buf

exception Error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word value =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail "invalid literal"
  in
  (* the end of the run of plain bytes from [i]: the next '"' or '\\' *)
  let run_end i =
    let j = ref i in
    while
      !j < n && (let c = String.unsafe_get s !j in c <> '"' && c <> '\\')
    do
      incr j
    done;
    !j
  in
  (* Plain bytes are copied a run at a time; a string without escapes
     is one [String.sub] and needs no buffer. *)
  let parse_string () =
    expect '"';
    let stop = run_end !pos in
    if stop < n && s.[stop] = '"' then begin
      let plain = String.sub s !pos (stop - !pos) in
      pos := stop + 1;
      plain
    end
    else begin
      let buf = Buffer.create (stop - !pos + 16) in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance (); Buffer.contents buf
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape");
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'; advance ()
            | '\\' -> Buffer.add_char buf '\\'; advance ()
            | '/' -> Buffer.add_char buf '/'; advance ()
            | 'b' -> Buffer.add_char buf '\b'; advance ()
            | 'f' -> Buffer.add_char buf '\012'; advance ()
            | 'n' -> Buffer.add_char buf '\n'; advance ()
            | 'r' -> Buffer.add_char buf '\r'; advance ()
            | 't' -> Buffer.add_char buf '\t'; advance ()
            | 'u' ->
                advance ();
                if !pos + 4 > n then fail "truncated \\u escape";
                let hex = String.sub s !pos 4 in
                let code =
                  if
                    String.for_all
                      (function
                        | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
                        | _ -> false)
                      hex
                  then int_of_string ("0x" ^ hex)
                  else fail "bad \\u escape"
                in
                (* surrogate halves are not scalar values; Uchar.of_int
                   would raise Invalid_argument and escape of_string's
                   Error channel entirely *)
                if not (Uchar.is_valid code) then fail "bad \\u escape";
                pos := !pos + 4;
                Buffer.add_utf_8_uchar buf (Uchar.of_int code)
            | _ -> fail "unknown escape");
            go ()
        | _ ->
            let stop = run_end !pos in
            Buffer.add_substring buf s !pos (stop - !pos);
            pos := stop;
            go ()
      in
      go ()
    end
  in
  let parse_number () =
    let start = !pos in
    let number_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && number_char s.[!pos] do advance () done;
    let text = String.sub s start (!pos - start) in
    let is_float =
      String.exists (fun c -> c = '.' || c = 'e' || c = 'E') text
    in
    if is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt text with
          | Some f -> Float f
          | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some ('0' .. '9' | '-') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Error msg -> Error msg

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let type_name = function
  | Null -> "null"
  | Bool _ -> "a bool"
  | Int _ -> "an int"
  | Float _ -> "a float"
  | String _ -> "a string"
  | List _ -> "a list"
  | Obj _ -> "an object"

(* ---------------------------------------------------------------- *)
(* Typed decode errors for schema readers (Batch.report_of_json and
   friends).  A decoder threads the path from the document root down
   to the offending value, so a malformed report names the exact
   field instead of a bare "bad JSON". *)

type error = { path : string list; message : string }

let error_to_string e =
  match e.path with
  | [] -> e.message
  | segs -> Printf.sprintf "$.%s: %s" (String.concat "." segs) e.message

(* the parser's [exception Error] shadows the result constructor, so
   qualify *)
let decode_error ~path message = Result.Error { path; message }

let index_seg name i = Printf.sprintf "%s[%d]" name i

(* field accessors rooted at [path]; missing field and wrong type are
   distinguished in the message *)
let get_field ~path k json =
  match json with
  | Obj _ -> (
      match member k json with
      | Some v -> Ok v
      | None -> decode_error ~path:(path @ [ k ]) "missing field")
  | v ->
      decode_error ~path
        (Printf.sprintf "expected an object, found %s" (type_name v))

let get_int ~path k json =
  match get_field ~path k json with
  | Ok (Int i) -> Ok i
  | Ok v ->
      decode_error ~path:(path @ [ k ])
        (Printf.sprintf "expected an int, found %s" (type_name v))
  | Error _ as e -> e

(* [Int] promotes; [Null] reads back as [nan] — the writer encodes
   every non-finite float as null, so this keeps round trips total *)
let get_float ~path k json =
  match get_field ~path k json with
  | Ok (Float f) -> Ok f
  | Ok (Int i) -> Ok (float_of_int i)
  | Ok Null -> Ok Float.nan
  | Ok v ->
      decode_error ~path:(path @ [ k ])
        (Printf.sprintf "expected a number, found %s" (type_name v))
  | Error _ as e -> e

let get_string ~path k json =
  match get_field ~path k json with
  | Ok (String s) -> Ok s
  | Ok v ->
      decode_error ~path:(path @ [ k ])
        (Printf.sprintf "expected a string, found %s" (type_name v))
  | Error _ as e -> e

(* [get_list ~path k decode json] decodes field [k] as a list,
   applying [decode] to each element with its indexed path. *)
let get_list ~path k decode json =
  match get_field ~path k json with
  | Ok (List xs) ->
      let rec go i acc = function
        | [] -> Ok (List.rev acc)
        | x :: rest -> (
            match decode ~path:(path @ [ index_seg k i ]) x with
            | Ok v -> go (i + 1) (v :: acc) rest
            | Error _ as e -> e)
      in
      go 0 [] xs
  | Ok v ->
      decode_error ~path:(path @ [ k ])
        (Printf.sprintf "expected a list, found %s" (type_name v))
  | Error _ as e -> e

let decode_string ~path = function
  | String s -> Ok s
  | v ->
      decode_error ~path
        (Printf.sprintf "expected a string, found %s" (type_name v))

(* One value per line.  Lines are numbered as they stand in [text], the
   blank ones included, so an error names the line an editor shows. *)
let of_jsonl decode text =
  let rec go n acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest when String.trim line = "" -> go (n + 1) acc rest
    | line :: rest -> (
        let path = [ Printf.sprintf "line %d" n ] in
        match of_string line with
        | Error msg -> decode_error ~path msg
        | Ok json -> (
            match decode ~path json with
            | Ok v -> go (n + 1) (v :: acc) rest
            | Error _ as e -> e))
  in
  go 1 [] (String.split_on_char '\n' text)
