(** Machine model tests: latency models (including the paper's Figure-1
    latencies, register-pair deltas and asymmetric bypass), the pipeline
    simulator and the reservation table. *)

open Dagsched
open Helpers

let insn s = List.hd (parse s)

let test_exec_times_deep_fp () =
  let m = Latency.deep_fp in
  check_int "fdivd 20" 20 (m.Latency.exec_time (insn "fdivd %f0, %f2, %f4"));
  check_int "faddd 4" 4 (m.Latency.exec_time (insn "faddd %f0, %f2, %f4"));
  check_int "ld 2" 2 (m.Latency.exec_time (insn "ld [%fp - 8], %o1"));
  check_int "add 1" 1 (m.Latency.exec_time (insn "add %o1, %o2, %o3"));
  check_int "fsqrtd 30" 30 (m.Latency.exec_time (insn "fsqrtd %f0, %f2"))

let test_war_is_short () =
  List.iter
    (fun m ->
      let parent = insn "fdivd %f0, %f2, %f4" in
      let child = insn "faddd %f6, %f8, %f0" in
      check_int
        (Printf.sprintf "%s WAR is 1" m.Latency.name)
        1
        (m.Latency.war ~parent ~res:(Resource.R (Reg.float 0)) ~child))
    [ Latency.simple_risc; Latency.deep_fp; Latency.asymmetric_bypass ]

let test_raw_pair_delta () =
  let m = Latency.deep_fp in
  let parent = insn "lddf [%fp - 8], %f4" in
  let child = insn "faddd %f4, %f5, %f6" in
  let r0 =
    m.Latency.raw ~parent ~def_pos:0 ~res:(Resource.R (Reg.float 4)) ~child
      ~use_pos:0
  in
  let r1 =
    m.Latency.raw ~parent ~def_pos:1 ~res:(Resource.R (Reg.float 5)) ~child
      ~use_pos:1
  in
  check_int "pair partner one cycle later" (r0 + 1) r1

let test_asymmetric_bypass () =
  let m = Latency.asymmetric_bypass in
  let parent = insn "faddd %f0, %f2, %f4" in
  let consumer = insn "fmuld %f4, %f6, %f8" in
  let first =
    m.Latency.raw ~parent ~def_pos:0 ~res:(Resource.R (Reg.float 4))
      ~child:consumer ~use_pos:0
  in
  let second =
    m.Latency.raw ~parent ~def_pos:0 ~res:(Resource.R (Reg.float 4))
      ~child:consumer ~use_pos:1
  in
  check_int "second operand costs one more" (first + 1) second;
  (* store data operand costs one less *)
  let store = insn "stdf %f4, [%fp - 8]" in
  let to_store =
    m.Latency.raw ~parent ~def_pos:0 ~res:(Resource.R (Reg.float 4))
      ~child:store ~use_pos:0
  in
  check_bool "store accepts earlier" true (to_store < first)

let test_fp_busy () =
  let m = Latency.deep_fp in
  check_bool "fdivd busy" true (m.Latency.fp_busy (insn "fdivd %f0, %f2, %f4") > 0);
  check_int "faddd pipelined" 0 (m.Latency.fp_busy (insn "faddd %f0, %f2, %f4"));
  check_int "simple_risc fully pipelined" 0
    (Latency.simple_risc.Latency.fp_busy (insn "fdivd %f0, %f2, %f4"))

let test_model_lookup () =
  List.iter
    (fun m ->
      match Latency.by_name m.Latency.name with
      | Some m' -> check_string "lookup" m.Latency.name m'.Latency.name
      | None -> Alcotest.failf "model %s not found" m.Latency.name)
    Latency.all_models;
  check_bool "unknown model" true (Latency.by_name "nope" = None)

(* ------------------------------------------------------------------ *)
(* pipeline simulator *)

let run_asm model s = Pipeline.run model (Array.of_list (parse s))

let test_pipeline_raw_stall () =
  (* load (latency 2) feeding an add: one bubble *)
  let r = run_asm Latency.simple_risc "ld [%fp - 8], %o1\nadd %o1, 1, %o2" in
  check_int "add issues at 2" 2 r.Pipeline.issue_cycle.(1);
  check_int "one stall" 1 r.Pipeline.stall_cycles

let test_pipeline_no_stall_when_independent () =
  let r = run_asm Latency.simple_risc "ld [%fp - 8], %o1\nadd %o3, 1, %o2" in
  check_int "no stall" 0 r.Pipeline.stall_cycles;
  check_int "issues back to back" 1 r.Pipeline.issue_cycle.(1)

let test_pipeline_filled_delay_slot () =
  (* independent instruction fills the load delay slot *)
  let r =
    run_asm Latency.simple_risc
      "ld [%fp - 8], %o1\nadd %o3, 1, %o2\nadd %o1, 1, %o4"
  in
  check_int "no stalls" 0 r.Pipeline.stall_cycles

let test_pipeline_war () =
  (* consumer then overwrite: WAR allows next-cycle issue *)
  let r =
    run_asm Latency.deep_fp "fdivd %f0, %f2, %f4\nfaddd %f6, %f8, %f0"
  in
  check_int "WAR does not stall" 1 r.Pipeline.issue_cycle.(1)

let test_pipeline_figure1 () =
  (* the Figure-1 block: last add must wait for the divide's 20 cycles *)
  let r = run_asm Latency.deep_fp figure1_asm in
  check_int "node 3 waits for the divide" 20 r.Pipeline.issue_cycle.(2)

let test_pipeline_fp_unit_structural () =
  (* two divides back to back on a non-pipelined unit *)
  let r =
    run_asm Latency.deep_fp "fdivd %f0, %f2, %f4\nfdivd %f6, %f8, %f10"
  in
  check_bool "second divide blocked by busy unit" true
    (r.Pipeline.issue_cycle.(1) >= 18)

let test_pipeline_completion () =
  let r = run_asm Latency.deep_fp "fdivd %f0, %f2, %f4" in
  check_int "completion includes latency" 20 r.Pipeline.completion

(* ------------------------------------------------------------------ *)
(* reservation table *)

let test_reservation_basics () =
  let t = Reservation.create () in
  let usage = [ { Reservation.unit = Funit.Fpd; offset = 0; duration = 3 } ] in
  let c0 = Reservation.insert t usage ~earliest:0 in
  check_int "first at 0" 0 c0;
  let c1 = Reservation.insert t usage ~earliest:0 in
  check_int "second waits for the unit" 3 c1;
  check_int "busy cycles" 6 (Reservation.busy_cycles t Funit.Fpd)

let test_reservation_independent_units () =
  let t = Reservation.create () in
  let div = [ { Reservation.unit = Funit.Fpd; offset = 0; duration = 5 } ] in
  let add = [ { Reservation.unit = Funit.Fpa; offset = 0; duration = 1 } ] in
  let c0 = Reservation.insert t div ~earliest:0 in
  let c1 = Reservation.insert t add ~earliest:0 in
  check_int "divide at 0" 0 c0;
  check_int "add unaffected" 0 c1

let test_reservation_respects_earliest () =
  let t = Reservation.create () in
  let usage = [ { Reservation.unit = Funit.Iu; offset = 0; duration = 1 } ] in
  let c = Reservation.insert t usage ~earliest:7 in
  check_int "not before earliest" 7 c

let test_reservation_usage_of () =
  let div = insn "fdivd %f0, %f2, %f4" in
  let usage = Reservation.usage_of Latency.deep_fp div in
  check_bool "non-pipelined occupies many cycles" true
    (List.exists (fun u -> u.Reservation.duration > 1) usage);
  let add = insn "add %o1, %o2, %o3" in
  let usage = Reservation.usage_of Latency.deep_fp add in
  check_bool "pipelined occupies one" true
    (List.for_all (fun u -> u.Reservation.duration = 1) usage)

let test_funit_mapping () =
  check_bool "fdivd on FPD" true (Funit.of_insn (insn "fdivd %f0, %f2, %f4") = Funit.Fpd);
  check_bool "ld on LSU" true (Funit.of_insn (insn "ld [%fp - 8], %o1") = Funit.Lsu);
  check_bool "add on IU" true (Funit.of_insn (insn "add %o1, %o2, %o3") = Funit.Iu);
  check_bool "be on BRU" true (Funit.of_insn (insn "be x") = Funit.Bru);
  List.iter
    (fun u -> check_bool "index round trip" true (Funit.of_index (Funit.index u) = u))
    Funit.all

(* The table-driven models against the match-based ones they replaced:
   every model, parent and child opcode (so store and non-store
   children), definition and use position. *)
let test_tables_match_legacy () =
  let res = Resource.R (Reg.float 0) in
  let insns = List.map (fun op -> Insn.make op []) Opcode.all in
  List.iter2
    (fun (m : Latency.t) (l : Latency.t) ->
      check_string "model order" l.Latency.name m.Latency.name;
      List.iter
        (fun parent ->
          let op (i : Insn.t) = Opcode.to_string i.Insn.op in
          let what f = Printf.sprintf "%s %s %s" m.Latency.name f (op parent) in
          check_int (what "exec_time") (l.Latency.exec_time parent)
            (m.Latency.exec_time parent);
          check_int (what "fp_busy") (l.Latency.fp_busy parent)
            (m.Latency.fp_busy parent);
          List.iter
            (fun child ->
              let what f =
                Printf.sprintf "%s %s %s -> %s" m.Latency.name f (op parent)
                  (op child)
              in
              check_int (what "war") (l.Latency.war ~parent ~res ~child)
                (m.Latency.war ~parent ~res ~child);
              check_int (what "waw") (l.Latency.waw ~parent ~res ~child)
                (m.Latency.waw ~parent ~res ~child);
              List.iter
                (fun def_pos ->
                  List.iter
                    (fun use_pos ->
                      let raw (x : Latency.t) =
                        x.Latency.raw ~parent ~def_pos ~res ~child ~use_pos
                      in
                      check_int
                        (what (Printf.sprintf "raw def %d use %d" def_pos use_pos))
                        (raw l) (raw m))
                    [ 0; 1; 2 ])
                [ 0; 1 ])
            insns)
        insns)
    Latency.all_models Latency_legacy.all_models;
  List.iter
    (fun insn ->
      check_bool
        ("funit " ^ Opcode.to_string insn.Insn.op)
        true
        (Funit.of_insn insn = Latency_legacy.funit_of_insn insn))
    insns;
  check_int "count" (List.length Opcode.all) Opcode.count;
  List.iteri
    (fun k op -> check_int ("index " ^ Opcode.to_string op) k (Opcode.index op))
    Opcode.all

let suite =
  [ quick "exec times deep_fp" test_exec_times_deep_fp;
    quick "WAR is short" test_war_is_short;
    quick "RAW pair delta" test_raw_pair_delta;
    quick "asymmetric bypass" test_asymmetric_bypass;
    quick "fp busy" test_fp_busy;
    quick "model lookup" test_model_lookup;
    quick "pipeline RAW stall" test_pipeline_raw_stall;
    quick "pipeline independent" test_pipeline_no_stall_when_independent;
    quick "pipeline filled delay slot" test_pipeline_filled_delay_slot;
    quick "pipeline WAR" test_pipeline_war;
    quick "pipeline figure 1" test_pipeline_figure1;
    quick "pipeline fp unit structural" test_pipeline_fp_unit_structural;
    quick "pipeline completion" test_pipeline_completion;
    quick "reservation basics" test_reservation_basics;
    quick "reservation independent units" test_reservation_independent_units;
    quick "reservation earliest" test_reservation_respects_earliest;
    quick "reservation usage_of" test_reservation_usage_of;
    quick "funit mapping" test_funit_mapping;
    quick "tables match legacy models" test_tables_match_legacy ]
