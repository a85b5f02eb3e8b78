(** Per-benchmark workload profiles calibrated to the paper's Table 3 —
    one per row (grep ... fpppp), deterministic from the profile's seed.
    Block count, total instructions and maximum block size reproduce the
    row exactly; the fpppp-1000/2000/4000 variants re-partition the same
    program, as the paper did. *)

type flavor = Int_code | Fp_loops | Fp_straightline

type t = {
  name : string;
  flavor : flavor;
  seed : int;
  tail_prob : float;               (* share of near-maximal blocks *)
  max_mem_exprs : int;
  new_expr_prob : float;
  frac_mem_scale : float;          (* multiplies the flavor's memory mix *)
  window : int option;             (* re-partition limit (fpppp-N) *)
  paper : Paper_data.table3_row;
}

val grep : t
val regex : t
val dfa : t
val cccp : t
val linpack : t
val lloops : t
val tomcatv : t
val nasa7 : t
val fpppp : t
val fpppp_1000 : t
val fpppp_2000 : t
val fpppp_4000 : t

(** The twelve Table-3 rows, in the paper's order. *)
val all : t list

(** The nine distinct benchmark programs the paper measures (Tables 4-5):
    {!all} minus the fpppp-N re-partitionings of the same program. *)
val benchmarks : t list

val by_name : string -> t option

(** [corpus profiles] generates every profile and pairs it with its name
    — the labelled corpus the bench experiments schedule. *)
val corpus : t list -> (string * Ds_cfg.Block.t list) list

(** Generator parameters the profile's flavor implies. *)
val params_of : t -> Gen.params

(** Generate the profile's basic blocks (deterministic). *)
val generate : t -> Ds_cfg.Block.t list

(** Structural summary of the generated workload (our Table 3 row). *)
val summarize : t -> Ds_cfg.Summary.t
