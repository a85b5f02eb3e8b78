(** Length-prefixed message framing over file descriptors — the wire
    layer under [schedtool serve]'s Unix-socket protocol.

    A frame is an ASCII decimal byte count, a single ['\n'], then
    exactly that many payload bytes (the payload is JSON in the serve
    protocol, but this layer is content-agnostic).  The explicit length
    makes truncation {e detectable}: a peer that dies mid-frame leaves a
    header promising more bytes than ever arrive, which reads back as
    {!Closed}, never as a silently short payload.

    Reading is stateful (frames arrive back-to-back on a stream), so
    the reader side wraps the descriptor in a buffered {!reader}.  All
    errors are typed values — nothing here raises on malformed input;
    only genuine programming errors ([Invalid_argument]) and unexpected
    [Unix_error]s other than timeouts escape. *)

(** Default maximum accepted payload size (16 MiB) — a frame whose
    header promises more is {!Oversized} and the stream is dead (the
    boundary cannot be trusted). *)
val default_max_bytes : int

(** [write fd s] writes the header, then the payload straight from [s]
    (no framed copy), looping over partial writes: the bytes on the wire
    are exactly {!encode}[ s].  Raises [Unix.Unix_error] on a broken
    pipe or closed peer — callers own the connection lifecycle. *)
val write : Unix.file_descr -> string -> unit

type error =
  | Closed            (** EOF before or inside a frame *)
  | Timeout           (** the descriptor's receive timeout expired *)
  | Oversized of int  (** header promised this many bytes, over the cap *)
  | Malformed of string  (** header is not a decimal count + newline *)

val error_to_string : error -> string

type reader

(** [reader fd] wraps [fd] for framed reads; the descriptor is not
    duplicated and stays owned by the caller. *)
val reader : Unix.file_descr -> reader

(** [read ?max_bytes r] blocks for the next complete frame and returns
    its payload.  [Error Timeout] when the descriptor has a receive
    timeout ([SO_RCVTIMEO]) and it expires mid-wait — the stream is
    still positioned at a frame boundary only if no header bytes had
    arrived, so serve treats any timeout as fatal to the connection.
    [Error Closed] on EOF (clean between frames or torn inside one);
    [Error (Oversized n)] / [Error (Malformed _)] on a header that
    cannot be trusted.  After any [Error] the reader must be discarded. *)
val read : ?max_bytes:int -> reader -> (string, error) result

(** [encode s] is the frame encoding of [s] as bytes — header plus
    payload, exactly what {!write} puts on the wire: the format's
    definition (for tests and for hand-rolled clients). *)
val encode : string -> string
