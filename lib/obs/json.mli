(** Hand-rolled JSON, used for the machine-readable perf reports
    ([BENCH_obs.json], [schedtool batch --json]) and for the
    observability layer's trace serialization.  The writer
    emits floats with a representation that reads back exactly and
    always carries a [.]/[e] so a round trip
    preserves the [Int]/[Float] distinction.  JSON has no nan/infinity:
    every non-finite [Float] is encoded as [null] (so the writer can
    never produce invalid JSON), and readers of specific schemas may map
    [Null] float fields back to [nan] to make their round trip total
    (see {!Ds_driver.Batch.report_of_json}).

    This module used to live at [Ds_util.Stats.Json]; that path is still
    a transparent alias of this one. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string

(** Parse one JSON value (the whole input).  Total: malformed input of
    any shape (truncations, bad escapes, surrogate [\u] halves, stray
    bytes) comes back as [Error], never as an escaping exception. *)
val of_string : string -> (t, string) result

(** Field lookup on [Obj]; [None] on missing field or non-object. *)
val member : string -> t -> t option

(** ["an int"], ["an object"], ... — for decode error messages. *)
val type_name : t -> string

(** Typed decode error: the path of object fields / list indices from
    the document root to the offending value, plus what went wrong.
    Produced by the schema readers ({!Ds_driver.Batch.report_of_json},
    the {!Trace} reader) so a malformed document names the
    exact field. *)
type error = { path : string list; message : string }

(** ["$.blocks: expected an int, found a string"]. *)
val error_to_string : error -> string

val decode_error : path:string list -> string -> ('a, error) result

(** [index_seg "ranks" 3] is ["ranks[3]"]. *)
val index_seg : string -> int -> string

(** Field accessors rooted at [path]: [get_* ~path k json] reads field
    [k] of object [json], distinguishing missing fields, wrong value
    types and a non-object [json] in the error.  {!get_float} promotes
    [Int] and maps [Null] to [nan] (the writer encodes every
    non-finite float as [null], so this keeps round trips total). *)
val get_field : path:string list -> string -> t -> (t, error) result

val get_int : path:string list -> string -> t -> (int, error) result
val get_float : path:string list -> string -> t -> (float, error) result
val get_string : path:string list -> string -> t -> (string, error) result

(** [get_list ~path k decode json] decodes field [k] as a list,
    applying [decode] to each element with its indexed path. *)
val get_list :
  path:string list ->
  string ->
  (path:string list -> t -> ('a, error) result) ->
  t ->
  ('a list, error) result

(** Decode one value (not a field) as a string. *)
val decode_string : path:string list -> t -> (string, error) result

(** [of_jsonl decode text] reads one value per line, in order, each
    through [decode] rooted at path ["line N"].  Blank lines are
    skipped but counted: [N] is the 1-based physical line.  Strict: the
    first line that does not parse or decode is the error. *)
val of_jsonl :
  (path:string list -> t -> ('a, error) result) ->
  string ->
  ('a list, error) result
