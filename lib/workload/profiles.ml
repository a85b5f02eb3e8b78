(** Per-benchmark workload profiles, calibrated to the paper's Table 3.

    One profile per Table-3 row.  The four fpppp variants share a single
    generated program; the windowed rows re-partition it at 1000/2000/4000
    instructions, exactly as the paper did.  Generation is deterministic
    from the profile's seed.

    Calibration targets the row's exact block count, total instruction
    count and maximum block size (one block is forced to the maximum);
    averages and memory-expression statistics then land close to the
    paper's, and the bench prints both side by side. *)

type flavor = Int_code | Fp_loops | Fp_straightline

type t = {
  name : string;
  flavor : flavor;
  seed : int;
  tail_prob : float;               (* share of near-maximal blocks *)
  max_mem_exprs : int;
  new_expr_prob : float;
  frac_mem_scale : float;          (* multiplies the flavor's load/store mix *)
  window : int option;             (* re-partition limit (fpppp-N) *)
  paper : Paper_data.table3_row;
}

let base_params flavor =
  match flavor with
  | Int_code -> Gen.int_code
  | Fp_loops -> Gen.fp_loops
  | Fp_straightline -> Gen.fp_straightline

let scale_mem params s =
  { params with
    Gen.frac_load = params.Gen.frac_load *. s;
    frac_store = params.Gen.frac_store *. s }

let params_of profile =
  let base = scale_mem (base_params profile.flavor) profile.frac_mem_scale in
  { base with
    Gen.max_mem_exprs = profile.max_mem_exprs;
    new_expr_prob = profile.new_expr_prob }

let mk name flavor ~seed ~tail_prob ~max_mem_exprs ~new_expr_prob
    ?(frac_mem_scale = 1.0) ?window () =
  { name; flavor; seed; tail_prob; max_mem_exprs; new_expr_prob;
    frac_mem_scale; window; paper = Paper_data.table3_row name }

let grep =
  mk "grep" Int_code ~seed:101 ~tail_prob:0.003 ~max_mem_exprs:5
    ~new_expr_prob:0.75 ()

let regex =
  mk "regex" Int_code ~seed:102 ~tail_prob:0.003 ~max_mem_exprs:9
    ~new_expr_prob:0.7 ()

let dfa =
  mk "dfa" Int_code ~seed:103 ~tail_prob:0.002 ~max_mem_exprs:13
    ~new_expr_prob:0.85 ~frac_mem_scale:1.5 ()

let cccp =
  mk "cccp" Int_code ~seed:104 ~tail_prob:0.002 ~max_mem_exprs:10
    ~new_expr_prob:0.75 ()

let linpack =
  mk "linpack" Fp_loops ~seed:105 ~tail_prob:0.012 ~max_mem_exprs:62
    ~new_expr_prob:0.74 ~frac_mem_scale:1.1 ()

let lloops =
  mk "lloops" Fp_loops ~seed:106 ~tail_prob:0.015 ~max_mem_exprs:40
    ~new_expr_prob:0.76 ~frac_mem_scale:1.2 ()

let tomcatv =
  mk "tomcatv" Fp_loops ~seed:107 ~tail_prob:0.02 ~max_mem_exprs:68
    ~new_expr_prob:0.72 ~frac_mem_scale:1.1 ()

let nasa7 =
  mk "nasa7" Fp_loops ~seed:108 ~tail_prob:0.012 ~max_mem_exprs:60
    ~new_expr_prob:0.74 ~frac_mem_scale:1.15 ()

let fpppp =
  mk "fpppp" Fp_straightline ~seed:109 ~tail_prob:0.0 ~max_mem_exprs:324
    ~new_expr_prob:1.0 ()

let fpppp_1000 = { fpppp with name = "fpppp-1000"; window = Some 1000;
                   paper = Paper_data.table3_row "fpppp-1000" }
let fpppp_2000 = { fpppp with name = "fpppp-2000"; window = Some 2000;
                   paper = Paper_data.table3_row "fpppp-2000" }
let fpppp_4000 = { fpppp with name = "fpppp-4000"; window = Some 4000;
                   paper = Paper_data.table3_row "fpppp-4000" }

let all =
  [ grep; regex; dfa; cccp; linpack; lloops; tomcatv; nasa7; fpppp_1000;
    fpppp_2000; fpppp_4000; fpppp ]

let benchmarks =
  [ grep; regex; dfa; cccp; linpack; lloops; tomcatv; nasa7; fpppp ]

let by_name name = List.find_opt (fun p -> p.name = name) all

(* Bounded geometric size sample: >= 1, < cap, continue-probability p. *)
let geometric_size rng ~p ~cap =
  let rec go n =
    if n >= cap then cap else if Ds_util.Prng.bool rng p then go (n + 1) else n
  in
  go 1

(* Nudge sampled sizes (indices >= [from_index]) by +-1 until they sum to
   exactly [target], respecting [1, cap]; earlier indices (the forced
   maximum / giant blocks) are left untouched so Table 3's max column is
   reproduced exactly. *)
let adjust_to_total sizes ~target ~cap ~from_index =
  let arr = Array.of_list sizes in
  let n = Array.length arr in
  let total = ref (Array.fold_left ( + ) 0 arr) in
  let idx = ref from_index in
  let stuck = ref 0 in
  while !total <> target && !stuck < n do
    let i = from_index + ((!idx - from_index) mod (n - from_index)) in
    let changed =
      if !total < target && arr.(i) < cap then begin
        arr.(i) <- arr.(i) + 1;
        incr total;
        true
      end
      else if !total > target && arr.(i) > 1 then begin
        arr.(i) <- arr.(i) - 1;
        decr total;
        true
      end
      else false
    in
    if changed then stuck := 0 else incr stuck;
    incr idx
  done;
  Array.to_list arr

(* Sizes for the regular profiles: one block forced to the paper's exact
   maximum, [tail_prob] of the blocks drawn near-maximal, the bulk
   geometric with its mean solved from the row's exact total instruction
   count. *)
let regular_sizes profile rng =
  let paper = profile.paper in
  let n = paper.Paper_data.blocks in
  let mx = paper.Paper_data.ipb_max in
  let n_tail =
    min (n - 1) (int_of_float (profile.tail_prob *. float_of_int n))
  in
  let tail =
    List.init n_tail (fun _ -> Ds_util.Prng.range rng (mx / 2) (mx - 1))
  in
  let consumed = mx + List.fold_left ( + ) 0 tail in
  let n_small = n - 1 - n_tail in
  let small_mean =
    Float.max 1.02
      (float_of_int (paper.Paper_data.insts - consumed) /. float_of_int n_small)
  in
  let p = 1.0 -. (1.0 /. small_mean) in
  let small =
    List.init n_small (fun _ -> geometric_size rng ~p ~cap:(mx - 1))
  in
  (* the forced-maximum block first so its id is stable across runs; the
     rest is nudged to reproduce the row's exact instruction count *)
  adjust_to_total
    ((mx :: tail) @ small)
    ~target:paper.Paper_data.insts ~cap:(mx - 1) ~from_index:1

(* fpppp is one enormous straight-line block (46% of the program's
   instructions), a second block over a thousand instructions, and
   several hundred modest blocks; Table 3's windowed rows pin these
   shapes down.  The windowed variants re-partition the SAME program, so
   sizing always follows the full-fpppp row. *)
let fpppp_sizes _profile rng =
  let paper = Paper_data.table3_row "fpppp" in
  let giant = 11750 and second = 1150 in
  let n_rest = paper.Paper_data.blocks - 2 in
  let remaining = paper.Paper_data.insts - giant - second in
  let mean = float_of_int remaining /. float_of_int n_rest in
  let p = 1.0 -. (1.0 /. mean) in
  let rest = List.init n_rest (fun _ -> geometric_size rng ~p ~cap:900) in
  adjust_to_total
    (giant :: second :: rest)
    ~target:paper.Paper_data.insts ~cap:900 ~from_index:2

let block_sizes profile rng =
  match profile.flavor with
  | Fp_straightline -> fpppp_sizes profile rng
  | Int_code | Fp_loops -> regular_sizes profile rng

(* fpppp's small blocks are loop-ish code with normal memory density; the
   giant straight-line blocks use the late-expression profile the paper
   describes. *)
let fpppp_small_params _profile =
  let base = scale_mem Gen.fp_loops 0.75 in
  { base with Gen.max_mem_exprs = 40; new_expr_prob = 0.7;
    with_branch = false }

(** Generate the profile's basic blocks (deterministic from the seed). *)
let generate profile =
  let rng = Ds_util.Prng.create profile.seed in
  let params = params_of profile in
  let sizes = block_sizes profile rng in
  let blocks =
    List.mapi
      (fun id size ->
        let params =
          match profile.flavor with
          | Fp_straightline when size < 1000 -> fpppp_small_params profile
          | _ -> params
        in
        Gen.block rng ~params ~id ~size ())
      sizes
  in
  match profile.window with
  | None -> blocks
  | Some limit -> Ds_cfg.Builder.with_window blocks ~max_block_size:limit

(** Structural summary of the generated workload (our Table 3 row). *)
let summarize profile = Ds_cfg.Summary.of_blocks (generate profile)

(** Corpus view for the bench experiments: label x generated blocks. *)
let corpus profiles = List.map (fun p -> (p.name, generate p)) profiles
