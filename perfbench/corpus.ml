(* The benchmark's inputs, every one derived from the workload seed.

   Table-3 programs are re-seeded by offsetting each profile's seed, so
   a seed changes the instructions but never the shape: block count,
   instruction total and largest block are pinned by the Table-3 row.
   Seed 0 is the library's own calibrated corpus.  Programs are rendered
   to the assembly text `schedtool gen` prints (one label per block), so
   parsing the text gives back the same blocks. *)

open Dagsched

let reseed seed (p : Profiles.t) =
  { p with Profiles.seed = p.Profiles.seed + (1000 * seed) }

(* Table 3 minus fpppp: grep ... nasa7 *)
let table3_small =
  Profiles.[ grep; regex; dfa; cccp; linpack; lloops; tomcatv; nasa7 ]

let program_text blocks =
  let buf = Buffer.create 65536 in
  List.iter
    (fun (b : Block.t) ->
      Buffer.add_string buf (Printf.sprintf "B%d:\n" b.Block.id);
      Buffer.add_string buf (Parser.print_program (Block.to_list b)))
    blocks;
  Buffer.contents buf

let insns_of blocks = List.fold_left (fun n b -> n + Block.length b) 0 blocks

(* one program, rendered: what a text-to-schedule request carries *)
type program = { name : string; text : string; insns : int }

let render name blocks = { name; text = program_text blocks; insns = insns_of blocks }

let table3_programs ~seed profiles =
  List.map
    (fun p ->
      let p = reseed seed p in
      render p.Profiles.name (Profiles.generate p))
    profiles

(* fpppp re-partitioned at 1,000 instructions (Table 3's fpppp-1000 row),
   as blocks: the windowed workload runs no parser *)
let fpppp_1000 ~seed = Profiles.generate (reseed seed Profiles.fpppp_1000)

(* ------------------------------------------------------------------ *)
(* serve traffic *)

let serve_programs = 64
let serve_blocks = 32

(* Program shapes (flavor, block sizes) come from a fixed stream, so they
   are the same for every seed; the seed draws only the instructions.
   Even programs are integer code, odd ones FP loop bodies. *)
let serve_pool ~seed =
  let content = Prng.create ((seed * 0x9e3779b1) + 0x5e7e) in
  Array.init serve_programs (fun i ->
      let shape = Prng.create (0x5a9e + i) in
      let params = if i mod 2 = 0 then Gen.int_code else Gen.fp_loops in
      let blocks =
        List.init serve_blocks (fun id ->
            let size = Gen.sample_size shape ~avg:30.0 ~mx:120 ~tail_prob:0.1 in
            Gen.block content ~params ~id ~size ())
      in
      render (Printf.sprintf "serve%02d" i) blocks)

(* [n] requests over program indices with Zipf(s=1) frequencies: index i
   gets n/(i+1)/H of them (largest remainders settle the rounding), in an
   order the seed shuffles.  Fixed counts keep the request mix, and with
   it the share of cache misses, close for every seed. *)
let zipf_stream ~seed ~n ~items =
  let weight i = 1.0 /. float_of_int (i + 1) in
  let total = ref 0.0 in
  for i = 0 to items - 1 do total := !total +. weight i done;
  let exact = Array.init items (fun i -> float_of_int n *. weight i /. !total) in
  let counts = Array.map (fun x -> int_of_float x) exact in
  let by_remainder = Array.init items Fun.id in
  let remainder i = exact.(i) -. float_of_int counts.(i) in
  Array.stable_sort (fun a b -> Float.compare (remainder b) (remainder a)) by_remainder;
  for k = 0 to n - Array.fold_left ( + ) 0 counts - 1 do
    counts.(by_remainder.(k)) <- counts.(by_remainder.(k)) + 1
  done;
  let stream = Array.concat (List.init items (fun i -> Array.make counts.(i) i)) in
  Prng.shuffle (Prng.create ((seed * 0x2545f491) + 0x21bf)) stream;
  stream

(* The request the serve workload sends for a program: the paper's §6
   pipeline (table-forward construction, symbolic disambiguation), the
   configuration Batch.section6 runs in the batch workloads. *)
let schedule_payload text =
  Json.to_string
    (Serve.request_to_json
       (Serve.Schedule
          { text;
            builder = Builder.Table_forward;
            strategy = Disambiguate.Symbolic;
            model = Latency.simple_risc }))
