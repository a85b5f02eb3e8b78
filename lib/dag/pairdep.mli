(** Pairwise dependence analysis — the test at the heart of the
    compare-against-all (n²) construction.  Per-instruction resource
    extraction is done once per block into flat per-domain arrays, so the
    n² builders' quadratic cost is the pair test itself, which allocates
    nothing.  At most one live block summary per domain —
    [summarize_block] invalidates the previous one. *)

open Ds_isa
open Ds_machine

type block_sum

val summarize_block : Disambiguate.t -> Insn.t array -> block_sum

(** [strongest_packed sum ~model ~strategy insns i j] is the strongest
    dependency making [j] depend on [i] ([i] earlier in program order),
    packed as [(latency lsl 2) lor rank] (rank: Raw 3 > Waw 2 > War 1),
    or [-1] if the pair is independent: the largest latency wins, RAW
    preferred on ties.  [insns] must be the array given to
    {!summarize_block}. *)
val strongest_packed :
  block_sum -> model:Latency.t -> strategy:Disambiguate.t ->
  Insn.t array -> int -> int -> int

val kind_of_packed : int -> Dep.kind
val latency_of_packed : int -> int
