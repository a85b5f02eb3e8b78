(* The benchmark's own tests: the output check catches a wrong schedule
   and accepts right ones, NaN cells compare equal to themselves, the
   cross-domain allocation count repeats, and re-seeded inputs keep
   their Table-3 shape. *)

open Dagsched
open Perfbench

let check name cond =
  if not cond then failwith ("FAIL: " ^ name);
  print_endline ("ok   " ^ name)

let block_of text = List.hd (Cfg_builder.partition (Parser.parse_program text))
let identity n = Array.init n Fun.id

let swap order i j =
  let o = Array.copy order in
  o.(i) <- order.(j);
  o.(j) <- order.(i);
  o

let () =
  let b = block_of "add %o1, %o2, %o3\nadd %o3, %o4, %o5\n" in
  check "replay accepts the original order" (Replay.schedule_ok ~seed:1 b [| 0; 1 |]);
  check "replay catches two dependent instructions swapped"
    (not (Replay.schedule_ok ~seed:1 b [| 1; 0 |]));
  check "replay rejects a non-permutation"
    (not (Replay.schedule_ok ~seed:1 b [| 0; 0 |]))

(* a generated block: swapping the two ends of a true dependence is
   caught unless the value it carries is dead by the end of the block
   (then the swap is harmless), while the scheduler's own order passes *)
let () =
  let block =
    Gen.block (Prng.create 7) ~params:Gen.fp_loops ~id:0 ~size:40 ()
  in
  let dag = Builder.build Builder.Table_forward Batch.section6.Batch.opts block in
  let raws = List.filter (fun (a : Dag.arc) -> a.Dag.kind = Dep.Raw) (Dag.arcs dag) in
  let n = Block.length block in
  let caught =
    List.filter
      (fun (a : Dag.arc) ->
        not (Replay.schedule_ok ~seed:3 block (swap (identity n) a.Dag.src a.Dag.dst)))
      raws
  in
  check "replay catches most swapped RAW pairs in a generated block"
    (raws <> [] && 2 * List.length caught > List.length raws);
  let order = Engine.schedule Batch.section6.Batch.engine dag in
  check "replay accepts the engine's schedule" (Replay.schedule_ok ~seed:3 block order)

let () =
  let st = Interp.create () in
  Hashtbl.replace st.Interp.memory "[%o0]" (Interp.Float_value Float.nan);
  check "Interp.equal_state finds a NaN cell unequal to itself"
    (not (Interp.equal_state st st));
  check "the benchmark's comparison does not" (Replay.same_state st st)

(* Gc.minor_words counts only the calling domain; the process-wide count
   taken after the pool's domain is joined sees the worker's words.  It
   repeats to a few words in a million: Clock.now, which Batch times
   every block with, boxes a float only when the clock has advanced since
   its last call, so a handful of words depend on timing. *)
let () =
  let blocks = Profiles.generate (Corpus.reseed 2 Profiles.grep) in
  let words () =
    let pool = Pool.create ~domains:1 () in
    let here = Gc.minor_words () in
    let w0 = Sample.process_minor_words () in
    ignore (Batch.run_on ~pool Batch.section6 blocks);
    let here = Gc.minor_words () -. here in
    Pool.shutdown pool;
    (Sample.process_minor_words () -. w0, here)
  in
  let a, here = words () in
  let b, _ = words () in
  check "the calling domain misses the worker's allocation" (here < a /. 100.0);
  check "cross-domain minor words repeat" (Float.abs (a -. b) < a *. 1e-4)

let () =
  List.iter
    (fun (p : Profiles.t) ->
      let row = p.Profiles.paper in
      let blocks = Profiles.generate (Corpus.reseed 5 p) in
      let longest = List.fold_left (fun m b -> max m (Block.length b)) 0 blocks in
      check
        (p.Profiles.name ^ " keeps its Table-3 shape under a new seed")
        (List.length blocks = row.Paper_data.blocks
        && Corpus.insns_of blocks = row.Paper_data.insts
        && longest = row.Paper_data.ipb_max);
      let prog = Corpus.render p.Profiles.name blocks in
      let parsed = Cfg_builder.partition (Parser.parse_program prog.Corpus.text) in
      check
        (p.Profiles.name ^ " parses back to the same blocks")
        (List.map Block.length parsed = List.map Block.length blocks))
    [ Profiles.grep; Profiles.fpppp ]

let () =
  let s = Corpus.zipf_stream ~seed:4 ~n:500 ~items:64 in
  check "the Zipf stream is deterministic" (s = Corpus.zipf_stream ~seed:4 ~n:500 ~items:64);
  check "the Zipf stream stays in range"
    (Array.length s = 500 && Array.for_all (fun i -> i >= 0 && i < 64) s);
  let count i = Array.fold_left (fun n j -> if i = j then n + 1 else n) 0 s in
  check "rank 0 is drawn most often" (count 0 > count 1 && count 1 > count 10)
