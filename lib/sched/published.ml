(** The six published instruction scheduling algorithms of Table 2,
    encoded as data and runnable.

    | algorithm            | DAG pass | DAG method      | sched pass  | combine  |
    |----------------------|----------|-----------------|-------------|----------|
    | Gibbons & Muchnick   | backward | n**2            | forward     | winnow   |
    | Krishnamurthy        | forward  | table building  | fwd+fixup   | priority |
    | Schlansker           | n.g.     | n.g.            | backward    | priority |
    | Shieh & Papachristou | n.g.     | n.g.            | forward     | winnow   |
    | Tiemann (GCC)        | forward  | table building  | backward    | priority |
    | Warren               | forward  | n**2            | forward     | winnow   |

    Where Table 2 says "n.g." (not given), [dag_algorithm] is [None] and a
    default builder is used ([Builder.Table_forward]).  Heuristic ranks are
    Table 2's columns; senses follow the paper's prose (e.g. #parents is
    "an inverse heuristic", Shieh & Papachristou's last heuristic is the
    minimum-path-to-root measure the paper says could be omitted "with
    little effect"). *)

open Ds_heur

type spec = {
  name : string;
  short : string;
  reference : string;
  dag_algorithm : Ds_dag.Builder.algorithm option;  (* None = not given *)
  sched_direction : Dyn_state.direction;
  mode : Engine.mode;
  keys : Engine.key list;
  postpass_fixup : bool;
}

let k = Engine.key

let gibbons_muchnick =
  {
    name = "Gibbons & Muchnick";
    short = "gibbons-muchnick";
    reference = "Proc. SIGPLAN Symp. on Compiler Construction, 1986";
    dag_algorithm = Some Ds_dag.Builder.N2_backward;
    sched_direction = Dyn_state.Forward;
    mode = Engine.Winnowing;
    keys =
      [ k ~sense:Heuristic.Minimize Heuristic.Interlock_with_previous;
        k ~sense:Heuristic.Maximize Heuristic.Interlock_with_child;
        k ~sense:Heuristic.Maximize Heuristic.Num_children;
        k ~sense:Heuristic.Maximize Heuristic.Max_path_to_leaf ];
    postpass_fixup = false;
  }

let krishnamurthy =
  {
    name = "Krishnamurthy";
    short = "krishnamurthy";
    reference = "M.S. paper, Clemson University, 1990";
    dag_algorithm = Some Ds_dag.Builder.Table_forward;
    sched_direction = Dyn_state.Forward;
    mode = Engine.Priority_fn;
    keys =
      [ k ~sense:Heuristic.Minimize Heuristic.Earliest_execution_time;
        k ~sense:Heuristic.Minimize Heuristic.Fp_unit_busy;
        k ~sense:Heuristic.Maximize Heuristic.Max_path_to_leaf;
        k ~sense:Heuristic.Maximize Heuristic.Execution_time;
        k ~sense:Heuristic.Maximize Heuristic.Max_delay_to_leaf ];
    postpass_fixup = true;
  }

let schlansker =
  {
    name = "Schlansker";
    short = "schlansker";
    reference = "ASPLOS-IV tutorial, 1991";
    dag_algorithm = None;
    sched_direction = Dyn_state.Backward;
    mode = Engine.Priority_fn;
    keys =
      [ k ~sense:Heuristic.Minimize Heuristic.Slack;
        (* backward pass: largest LST schedules last, i.e. is picked first *)
        k ~sense:Heuristic.Maximize Heuristic.Latest_start_time ];
    postpass_fixup = false;
  }

let shieh_papachristou =
  {
    name = "Shieh & Papachristou";
    short = "shieh-papachristou";
    reference = "Proc. MICRO-22, 1989";
    dag_algorithm = None;
    sched_direction = Dyn_state.Forward;
    mode = Engine.Winnowing;
    keys =
      [ k ~sense:Heuristic.Maximize Heuristic.Max_delay_to_leaf;
        k ~sense:Heuristic.Maximize Heuristic.Execution_time;
        k ~sense:Heuristic.Maximize Heuristic.Num_children;
        (* "an inverse heuristic ... must wait for a larger number of
           instruction completions" *)
        k ~sense:Heuristic.Minimize Heuristic.Num_parents;
        k ~sense:Heuristic.Minimize Heuristic.Max_path_from_root ];
    postpass_fixup = false;
  }

let tiemann =
  {
    name = "Tiemann (GCC)";
    short = "tiemann";
    reference = "The GNU instruction scheduler, Stanford CS343 report, 1989";
    dag_algorithm = Some Ds_dag.Builder.Table_forward;
    sched_direction = Dyn_state.Backward;
    mode = Engine.Priority_fn;
    keys =
      [ k ~sense:Heuristic.Maximize Heuristic.Max_delay_from_root;
        k ~sense:Heuristic.Maximize Heuristic.Birthing_instruction;
        (* backward pass: original order means the latest instruction first *)
        k ~sense:Heuristic.Maximize Heuristic.Original_order ];
    postpass_fixup = false;
  }

let warren =
  {
    name = "Warren";
    short = "warren";
    reference = "IBM J. Res. and Dev. 34(1), 1990";
    dag_algorithm = Some Ds_dag.Builder.N2_forward;
    sched_direction = Dyn_state.Forward;
    mode = Engine.Winnowing;
    keys =
      [ k ~sense:Heuristic.Minimize Heuristic.Earliest_execution_time;
        k ~sense:Heuristic.Maximize Heuristic.Alternate_type;
        k ~sense:Heuristic.Maximize Heuristic.Max_delay_to_leaf;
        (* prepass register heuristic: prefer pressure decreases *)
        k ~sense:Heuristic.Minimize Heuristic.Liveness;
        k ~sense:Heuristic.Maximize Heuristic.Num_uncovered_children;
        k ~sense:Heuristic.Minimize Heuristic.Original_order ];
    postpass_fixup = false;
  }

let all =
  [ gibbons_muchnick; krishnamurthy; schlansker; shieh_papachristou; tiemann;
    warren ]

let by_short short = List.find_opt (fun s -> s.short = short) all

(** The builder an "n.g." algorithm falls back to. *)
let default_builder = Ds_dag.Builder.Table_forward

let builder spec = Option.value spec.dag_algorithm ~default:default_builder

let engine_config spec =
  { Engine.direction = spec.sched_direction; mode = spec.mode; keys = spec.keys }

let heuristics_of spec = List.map (fun k -> k.Engine.heuristic) spec.keys

(** Run the spec's scheduling pass on a DAG (plus fixup when the
    algorithm uses one).  The intermediate pass computes only the
    annotations the spec's heuristics need. *)
let run_on_dag spec dag =
  let annot = Static_pass.compute_for (heuristics_of spec) dag in
  let order = Engine.run (engine_config spec) ~annot dag in
  let schedule = Schedule.make dag order in
  if spec.postpass_fixup then Fixup.run schedule else schedule

(** The same on the spec's own DAG of a block. *)
let run ?(opts = Ds_dag.Opts.default) spec block =
  run_on_dag spec (Ds_dag.Builder.build (builder spec) opts block)
