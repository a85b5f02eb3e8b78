(** The resource table of table-building DAG construction: per-resource
    record of the most recent definition and the set of current uses
    (§2).  Memory entries additionally participate in cross-expression
    alias scans.

    The table is read off a {!Ds_machine.Pipeline.decode} of the block:
    its entries are the decode's block-local resource ids (under
    [Serialize_all] every memory expression maps to one [Mem_all]
    entry), so a lookup is an array read and nothing is interned per
    occurrence.  Per-entry state lives in plain per-domain arrays reset
    for each block.  Uselists are intrusive chains in a pooled arena;
    iteration hands out indices into internal buffers rather than
    lists, keeping the builders' hot loops closure- and allocation-free.

    Concurrency: the backing scratch is domain-local and reused across
    blocks.  At most one table may be live per domain at a time —
    [create] invalidates any table previously created on the same
    domain.  The DAG builders (the only consumers) respect this by
    construction. *)

type t

(** [create strategy sc] starts a fresh table for the block decoded in
    [sc] on this domain's scratch (invalidating any previous table of
    this domain).  Counts ({!Ds_obs.Trace.count}) one [table_probes]
    per resource occurrence of the block — the paper's per-access table
    lookup, which the builders make once for each. *)
val create : Disambiguate.t -> Ds_machine.Pipeline.scan -> t

(** [lookup t r] is the entry of the decode's resource id [r]. *)
val lookup : t -> int -> int

(** The (canonical) resource an entry denotes. *)
val resource : t -> int -> Ds_isa.Resource.t

(** Recorded definition of an entry, packed as
    [(node lsl 8) lor def_pos], or [-1] when empty. *)
val def_pk : t -> int -> int

val set_def : t -> int -> node:int -> pos:int -> unit

(** Append a use (node, use position) to the entry's uselist. *)
val add_use : t -> int -> node:int -> pos:int -> unit

val clear_uses : t -> int -> unit
val has_uses : t -> int -> bool

(** [uses_into t e ~except] fills the internal use buffer with [e]'s
    recorded uses whose node differs from [except], in ascending node
    order (the paper iterates the uselist "in ascending order"), and
    returns their count, in time linear in the uselist.  A builder
    visits nodes in one direction, so a chain is monotone in its node:
    a forward builder's chain is walked reversed.  Uses by one node
    come out together (newest first, or oldest first in a reversed
    chain, where their arcs coalesce alike).  The buffer is valid until the
    next [uses_into] on this domain; read it with
    {!use_node}/{!use_pos}. *)
val uses_into : t -> int -> except:int -> int

val use_node : t -> int -> int
val use_pos : t -> int -> int

(** [cross_into t ~self] fills the internal cross buffer with the
    memory entries other than [self] that may denote the same storage
    as [self]'s resource — newest first by when the builder first
    looked them up — and returns their count.  May-alias is not
    transitive, so callers add arcs against these conservatively and
    never clear them; only an entry's own definition clears its
    uselist.  Always 0 under the [Symbolic] strategy and for
    non-memory entries.  Counts the memory entries looked up so far
    (before filtering) as [alias_entries_scanned].  The buffer is valid until the next
    [cross_into] on this domain; read it with {!cross_id}. *)
val cross_into : t -> self:int -> int

val cross_id : t -> int -> int
