(** Length-prefixed framing: ASCII decimal byte count, '\n', payload.
    See frame.mli for the contract. *)

let default_max_bytes = 16 * 1024 * 1024

(* the longest header we accept: a decimal count for default_max_bytes
   is 8 digits; 20 digits covers any 62-bit count before we call the
   header malformed (a peer streaming garbage must not grow our buffer) *)
let max_header_digits = 20

let header n = string_of_int n ^ "\n"

let encode s = header (String.length s) ^ s

let rec write_all fd buf pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd buf pos len in
    write_all fd buf (pos + n) (len - n)
  end

(* the header, then the payload straight from the caller's string:
   framing a payload first would copy it, on the major heap once it is
   past 2 KiB *)
let write fd s =
  let h = header (String.length s) in
  write_all fd h 0 (String.length h);
  write_all fd s 0 (String.length s)

type error =
  | Closed
  | Timeout
  | Oversized of int
  | Malformed of string

let error_to_string = function
  | Closed -> "connection closed"
  | Timeout -> "read timeout"
  | Oversized n -> Printf.sprintf "frame of %d bytes exceeds the cap" n
  | Malformed msg -> "malformed frame header: " ^ msg

type reader = {
  fd : Unix.file_descr;
  buf : Bytes.t;             (* staging buffer for header-side reads *)
  mutable pending : string;  (* received but not yet consumed (small:
                                at most one staging buffer per fill) *)
}

(* The staging buffer only has to hold a header and whatever arrives
   with it; payloads are read at their exact size.  512 bytes keeps it
   a minor-heap allocation (the minor heap takes blocks up to 256
   words), so a connection's reader costs no malloc. *)
let staging_bytes = 512

let reader fd = { fd; buf = Bytes.create staging_bytes; pending = "" }

(* One read(2) into [dst].  EINTR retries (a SIGINT mid-read must not
   tear a frame — the daemon's drain flag is checked between requests);
   EAGAIN/EWOULDBLOCK surface as [Timeout] (serve arms SO_RCVTIMEO per
   connection so a stalled client cannot wedge the accept loop); a
   reset peer reads as EOF. *)
let rec read_once fd dst pos len =
  match Unix.read fd dst pos len with
  | n -> Ok n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> read_once fd dst pos len
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      Error Timeout
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Ok 0

(* pull more bytes into [pending]; [Ok false] on EOF *)
let fill r =
  match read_once r.fd r.buf 0 (Bytes.length r.buf) with
  | Ok 0 -> Ok false
  | Ok n ->
      r.pending <- r.pending ^ Bytes.sub_string r.buf 0 n;
      Ok true
  | Error e -> Error e

let parse_header h =
  if h = "" then Error (Malformed "empty length line")
  else if String.length h > max_header_digits then
    Error (Malformed "length line too long")
  else if not (String.for_all (fun c -> c >= '0' && c <= '9') h) then
    Error (Malformed (Printf.sprintf "%S is not a decimal byte count" h))
  else
    match int_of_string_opt h with
    | Some n when n >= 0 -> Ok n
    | _ -> Error (Malformed (Printf.sprintf "%S is not a decimal byte count" h))

let read ?(max_bytes = default_max_bytes) r =
  (* the payload proper is read with exact-size reads into a dedicated
     buffer — [pending] only ever holds what one staging fill over-read
     past a frame boundary, so large frames never cost quadratic
     re-concatenation *)
  let read_payload n =
    let have = min n (String.length r.pending) in
    let payload = Bytes.create n in
    Bytes.blit_string r.pending 0 payload 0 have;
    r.pending <-
      String.sub r.pending have (String.length r.pending - have);
    let rec go pos =
      if pos >= n then Ok (Bytes.unsafe_to_string payload)
      else
        match read_once r.fd payload pos (n - pos) with
        | Ok 0 -> Error Closed (* torn mid-frame: header promised more *)
        | Ok k -> go (pos + k)
        | Error e -> Error e
    in
    go have
  in
  let rec await_header () =
    match String.index_opt r.pending '\n' with
    | Some i -> (
        let h = String.sub r.pending 0 i in
        match parse_header h with
        | Error e -> Error e
        | Ok n when n > max_bytes -> Error (Oversized n)
        | Ok n ->
            r.pending <-
              String.sub r.pending (i + 1) (String.length r.pending - i - 1);
            read_payload n)
    | None ->
        if String.length r.pending > max_header_digits then
          Error (Malformed "length line too long")
        else (
          match fill r with
          | Ok true -> await_header ()
          | Ok false -> Error Closed
          | Error e -> Error e)
  in
  await_header ()
