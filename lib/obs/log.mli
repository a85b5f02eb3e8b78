(** Structured, leveled JSONL event logging — the observability pillar
    next to {!Trace} (spans and their counts).

    An {e event} is one structured record: timestamp, level, scope
    (["batch"], ["serve"], ["heartbeat"]), a short stable message,
    and free-form JSON fields.  When a {e sink} is attached, each event
    is appended to a JSONL file as one line; the sink is the log, and
    no copy is kept in memory.

    {b Crash forensics.}  The sink is an [O_APPEND] file descriptor and
    every event is written with a single [write(2)] — there is no
    userspace buffering to flush, so the log survives SIGKILL or a
    power-of-the-process event mid-run: whatever was logged before the
    kill is on disk, and whole lines stay whole (POSIX atomic appends)
    even with several domains logging at once.  A reader that hits a
    torn final line uses {!events_of_jsonl_prefix}.

    {b Gating.}  Logging is disabled by default; {!log} costs one atomic
    read until {!set_level} arms it, so report bytes are identical with
    logging off — same discipline as {!Trace}.

    {b Heartbeats} are progress events (scope ["heartbeat"]): blocks
    done/total, current phase, resident-set size.  They are gated by
    their own interval ({!set_heartbeat}), not the level threshold, and
    rate-limited at the emission site — the batch driver ticks once
    per block and the limiter drops all but ~1/interval of them. *)

type level = Debug | Info | Warn | Error

val level_to_string : level -> string

(** Case-insensitive; [None] on unknown names. *)
val level_of_string : string -> level option

(** {1 Enablement} *)

(** [set_level (Some l)] enables events at severity [>= l];
    [set_level None] disables logging entirely (the default). *)
val set_level : level option -> unit

val level : unit -> level option

(** Would an event at this level be recorded right now? *)
val enabled : level -> bool

(** {1 Events} *)

type event = {
  ts_s : float;                    (** {!Clock.now}, epoch seconds *)
  level : level;
  scope : string;                  (** subsystem, e.g. ["heartbeat"] *)
  msg : string;                    (** short, stable; details in fields *)
  fields : (string * Json.t) list; (** free-form *)
  pid : int;                       (** OS process id *)
  tid : int;                       (** OCaml domain id *)
}

(** [log ?fields lvl ~scope msg] writes an event through the sink when
    [enabled lvl] and a sink is attached.  Never raises — a failed sink write is dropped (logging
    must not take down the pipeline). *)
val log : ?fields:(string * Json.t) list -> level -> scope:string -> string -> unit

(** Reset the heartbeat rate limiter, so the next heartbeat is due.
    Level and sink are untouched. *)
val reset : unit -> unit

(** {1 Sink} *)

(** [set_sink path] truncates [path], opens it [O_APPEND] and routes
    every subsequent event to it as one JSONL line, written with a
    single [write(2)] so concurrent domains (or a SIGKILL mid-run)
    never tear a line.  Replaces (and closes) any previous sink.
    [Error] with the system message when the path cannot be opened. *)
val set_sink : string -> (unit, string) result

(** Close and detach the sink (no-op without one). *)
val close_sink : unit -> unit

(** {1 Heartbeats} *)

(** Arm heartbeat emission: at most one heartbeat per [interval_s]
    (clamped to [>= 0]) is recorded.  [echo] additionally prints a
    human ["progress: ..."] line on stderr per recorded heartbeat (the
    [--progress] renderer). *)
val set_heartbeat : ?echo:bool -> interval_s:float -> unit -> unit

val disable_heartbeat : unit -> unit

val heartbeat_enabled : unit -> bool

(** [heartbeat ~phase ~done_ ~total ()] records a progress event (scope
    ["heartbeat"], fields [phase]/[done]/[total]/[rss_kb]) subject to
    the rate limit; [~force:true] bypasses the limit (final "done"
    beats).  No-op unless
    {!set_heartbeat} armed it.  Heartbeats bypass the level threshold —
    they are progress data, not diagnostics. *)
val heartbeat : ?force:bool -> phase:string -> done_:int -> total:int -> unit -> unit

(** Resident-set size of this process in kB (Linux [/proc/self/status]
    VmRSS; 0 where unavailable). *)
val rss_kb : unit -> int

(** {1 JSON}

    Schema in docs/FORMAT.md ("log events").  All readers are total
    over arbitrary input and return typed path errors, like every other
    reader in the tree. *)

val event_to_json : event -> Json.t

val event_of_json : ?path:string list -> Json.t -> (event, Json.error) result

(** One event per non-blank line, read by {!Json.of_jsonl}.  Strict:
    the first malformed line is a typed error (path ["line N"], the
    1-based physical line, blank lines counted). *)
val events_of_jsonl : string -> (event list, Json.error) result

(** Forensic reader: parse leading well-formed lines, stop at the first
    malformed or torn one and return it as the leftover ([None] when the
    whole input parsed).  Never errors — this is what reads a log whose
    writer was SIGKILLed mid-line. *)
val events_of_jsonl_prefix : string -> event list * string option
