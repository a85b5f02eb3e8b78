(** Differential tests of the flat pipeline simulator against the
    {!Pipeline_legacy} yardstick: issue cycles, completion and stalls
    must agree exactly for every latency model (plus one whose WAR delay
    depends on the reader), for the original order,
    the engine's order and random permutations, on random blocks, the
    Table-3 corpus, 0/1-insn blocks, double-word memory operands and
    concatenated block chains. *)

open Dagsched
open Helpers

let same_result (a : Pipeline.result) (b : Pipeline.result) =
  a.Pipeline.issue_cycle = b.Pipeline.issue_cycle
  && a.Pipeline.completion = b.Pipeline.completion
  && a.Pipeline.stall_cycles = b.Pipeline.stall_cycles

let show (r : Pipeline.result) =
  Printf.sprintf "completion %d, stalls %d, issue [%s]" r.Pipeline.completion
    r.Pipeline.stall_cycles
    (String.concat ";"
       (Array.to_list (Array.map string_of_int r.Pipeline.issue_cycle)))

(* Fisher-Yates over [0, n) *)
let shuffle rng n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Prng.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The engine's order for [block] under [model], as batch schedules it. *)
let engine_order model block =
  let config = Batch.section6 in
  let dag =
    Builder.build config.Batch.algorithm
      (Opts.with_model model config.Batch.opts)
      block
  in
  let heuristics =
    List.map (fun k -> k.Engine.heuristic) config.Batch.engine.Engine.keys
  in
  let annot = Static_pass.compute_for heuristics dag in
  Engine.run config.Batch.engine ~annot dag

(* One order scored both ways, the flat way over [sc] (a scan of
   [insns]); [None] when they agree. *)
let differs ?sc model insns order =
  let sc = match sc with Some sc -> sc | None -> Pipeline.scan model insns in
  let flat = Pipeline.simulate sc order in
  let legacy = Pipeline_legacy.run model (Array.map (fun i -> insns.(i)) order) in
  if same_result flat legacy then None
  else
    Some
      (Printf.sprintf "%s order [%s]: flat %s / legacy %s" model.Latency.name
         (String.concat ";" (Array.to_list (Array.map string_of_int order)))
         (show flat) (show legacy))

(* Every model's WAR delay is one cycle, so there the latest reader
   alone decides a WAR wait.  This model makes the delay depend on the
   reader, which is why the simulator keeps every current reader. *)
let reader_war =
  { Latency.deep_fp with
    Latency.name = "reader_war";
    war =
      (fun ~parent ~res:_ ~child:_ ->
        Latency.deep_fp.Latency.exec_time parent) }

let models = Latency.all_models @ [ reader_war ]

(* Identity, engine and [perms] random orders of one block, every
   model; each order is scored over one shared scan. *)
let block_agrees ?(perms = 3) ?(models = models) rng (block : Block.t) =
  let insns = block.Block.insns in
  let n = Array.length insns in
  List.for_all
    (fun model ->
      let sc = Pipeline.scan model insns in
      let orders =
        Array.init n Fun.id :: engine_order model block
        :: List.init perms (fun _ -> shuffle rng n)
      in
      List.for_all
        (fun order ->
          match differs ~sc model insns order with
          | None -> true
          | Some d -> QCheck.Test.fail_report d)
        orders
      && Pipeline.completion sc (Array.init n Fun.id)
         = (Pipeline_legacy.run model insns).Pipeline.completion)
    models

let prop_random_blocks seed =
  block_agrees (Prng.create (seed + 1)) (random_block seed)

let test_corpus () =
  let rng = Prng.create 17 in
  List.iter
    (fun (name, blocks) ->
      List.iter
        (fun (b : Block.t) ->
          if not (block_agrees ~perms:0 ~models:Latency.all_models rng b) then
            Alcotest.failf "%s block %d differs" name b.Block.id)
        blocks)
    (Profiles.corpus Profiles.benchmarks)

let check_same name model insns =
  match differs model insns (Array.init (Array.length insns) Fun.id) with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" name d

let test_tiny_blocks () =
  let empty = Pipeline.run Latency.deep_fp [||] in
  check_int "empty completion" 0 empty.Pipeline.completion;
  check_int "empty stalls" 0 empty.Pipeline.stall_cycles;
  check_int "empty issue" 0 (Array.length empty.Pipeline.issue_cycle);
  List.iter
    (fun model ->
      check_same "empty" model [||];
      List.iter
        (fun asm -> check_same asm model (Array.of_list (parse asm)))
        [ "fdivd %f0, %f2, %f4"; "lddf [%fp - 8], %f4"; "std %o0, [%fp - 8]";
          "addcc %o1, %o2, %o1"; "call foo"; "nop" ])
    models

(* A double-word store touches [base + off] and [base + off + 4]; the
   second word is a fresh expression that must intern to the same id as
   a later single-word access at that address. *)
let test_doubleword_second_word () =
  let asm =
    "lddf [%fp - 16], %f4\n\
     faddd %f4, %f6, %f8\n\
     std %o0, [%fp - 8]\n\
     ld [%fp - 4], %o3\n\
     st %o3, [%fp - 12]\n\
     stdf %f8, [%fp - 16]\n\
     ldf [%fp - 12], %f1\n\
     ldd [%fp - 16], %o4\n\
     add %o5, %o4, %o2"
  in
  let insns = Array.of_list (parse asm) in
  List.iter (fun model -> check_same "double-word" model insns) models;
  (* the load of the store's second word reads it as its second source
     operand, which costs the RS/6000 model an extra cycle: one stall,
     only if [%fp - 4] and the store's [%fp - 8 + 4] are one resource *)
  let r = Pipeline.run Latency.asymmetric_bypass insns in
  check_int "second-word load waits for the double store"
    (r.Pipeline.issue_cycle.(2) + 2) r.Pipeline.issue_cycle.(3)

(* Chains: resource state crosses block boundaries in the concatenated
   sequence, with and without inherited latencies. *)
let test_chains () =
  let config = Batch.section6.Batch.engine in
  let chains =
    [ List.filteri (fun i _ -> i < 12) (Profiles.generate Profiles.linpack);
      List.filteri (fun i _ -> i < 8) (Profiles.generate Profiles.tomcatv);
      List.init 6 (fun s -> random_block (900 + s)) ]
  in
  List.iter
    (fun model ->
      let opts =
        { Opts.default with Opts.model; strategy = Disambiguate.Symbolic }
      in
      List.iter
        (fun blocks ->
          List.iter
            (fun inherit_latencies ->
              let _, insns =
                Global.schedule_chain ~inherit_latencies ~config ~opts blocks
              in
              check_same "chain" model insns;
              check_int "chain_cycles"
                (Pipeline_legacy.run model insns).Pipeline.completion
                (Global.chain_cycles model insns))
            [ true; false ])
        chains)
    models

(* The scan's intern table is per domain: scans on several domains at
   once must each agree with the yardstick. *)
let test_domains () =
  let blocks = List.init 40 (fun s -> random_block (5000 + s)) in
  let worker () =
    List.for_all
      (fun (b : Block.t) ->
        differs Latency.deep_fp b.Block.insns
          (Array.init (Block.length b) Fun.id)
        = None)
      blocks
  in
  let ds = List.init 2 (fun _ -> Domain.spawn worker) in
  check_bool "all domains agree" true (List.for_all Domain.join ds)

let test_schedule_score () =
  let b = random_block 2718 in
  let dag = Builder.build Builder.Table_forward Opts.default b in
  let s = Schedule.make dag (Engine.schedule Batch.section6.Batch.engine dag) in
  let score = Schedule.score s in
  check_int "original" (Schedule.original_cycles s)
    score.Schedule.original_cycles;
  check_bool "scheduled" true (same_result (Schedule.simulate s) score.Schedule.scheduled)

let suite =
  [ qcheck ~count:150 "differential: random blocks x models x orders" arb_block
      prop_random_blocks;
    quick "differential: Table-3 corpus x models" test_corpus;
    quick "0- and 1-insn blocks" test_tiny_blocks;
    quick "double-word memory operands" test_doubleword_second_word;
    quick "chains carry state across blocks" test_chains;
    quick "scans on several domains" test_domains;
    quick "score = original_cycles + simulate" test_schedule_score ]
