(** Shared test helpers: assembly snippets to blocks/DAGs, shorthand
    instruction constructors, and random-block generators for property
    tests. *)

open Dagsched

let parse s = Parser.parse_program s

(** One basic block from an assembly snippet (no partitioning: the snippet
    IS the block, including any terminating branch). *)
let block_of_asm ?(id = 0) s =
  let insns = parse s in
  let insns = List.mapi (fun i insn -> Insn.with_index insn i) insns in
  { Block.id; insns = Array.of_list insns }

let dag_of_asm ?(opts = Opts.default) ?(alg = Builder.Table_forward) s =
  Builder.build alg opts (block_of_asm s)

(** The paper's Figure 1 block, verbatim:
    1: DIVF R1,R2,R3 (20 cycles)   2: ADDF R4,R5,R1   3: ADDF R1,R3,R6 *)
let figure1_asm = "
  fdivd %f0, %f2, %f4    ! 1: DIVF R1,R2,R3
  faddd %f6, %f8, %f0    ! 2: ADDF R4,R5,R1  (WAR on %f0)
  faddd %f0, %f4, %f10   ! 3: ADDF R1,R3,R6  (RAW on %f0 and %f4)
"

let figure1_block () = block_of_asm figure1_asm

(** Options matching the Figure-1 latencies (FDIV 20, FADD 4, WAR 1). *)
let figure1_opts = { Opts.default with Opts.model = Latency.deep_fp }

(* Arc lookup in a DAG. *)
let arc dag ~src ~dst = Dag.find_arc dag ~src ~dst

(* Per-node outgoing / incoming arc lists rebuilt from the whole-graph
   [Dag.arcs] query, so reference specs never read adjacency through the
   [iter_succ]/[iter_pred] walks they are checked against. *)
let adjacency dag =
  let n = Dag.length dag in
  let succs = Array.make n [] and preds = Array.make n [] in
  List.iter
    (fun (a : Dag.arc) ->
      succs.(a.src) <- a :: succs.(a.src);
      preds.(a.dst) <- a :: preds.(a.dst))
    (Dag.arcs dag);
  (succs, preds)

let has_arc dag ~src ~dst = arc dag ~src ~dst <> None

let arc_latency dag ~src ~dst =
  match arc dag ~src ~dst with
  | Some a -> a.Dag.latency
  | None -> Alcotest.failf "expected arc %d -> %d" src dst

let arc_kind dag ~src ~dst =
  match arc dag ~src ~dst with
  | Some a -> a.Dag.kind
  | None -> Alcotest.failf "expected arc %d -> %d" src dst

(* Alcotest testables *)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let quick name f = Alcotest.test_case name `Quick f

(** Substring test, for asserting an error message names a field. *)
let contains haystack needle =
  let hn = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= hn && (String.sub haystack i nn = needle || at (i + 1)) in
  at 0

(** Random block for property tests: deterministic from a seed, with the
    flavor and size also derived from the seed. *)
let random_block seed =
  let rng = Prng.create seed in
  let flavor = Prng.int rng 3 in
  let params =
    match flavor with
    | 0 -> Gen.int_code
    | 1 -> Gen.fp_loops
    | _ -> Gen.fp_straightline
  in
  let size = 1 + Prng.int rng 40 in
  Gen.block rng ~params ~id:(seed land 0xffff) ~size ()

(** QCheck arbitrary over random blocks, shrinkable via the seed. *)
let arb_block =
  QCheck.make
    ~print:(fun seed ->
      let b = random_block seed in
      Printf.sprintf "seed %d:\n%s" seed
        (Parser.print_program (Array.to_list b.Block.insns)))
    QCheck.Gen.(map abs small_signed_int)

let qcheck ?(count = 200) name arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb prop)
