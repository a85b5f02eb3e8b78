(** Dependence resources.

    A resource is anything an instruction can define or use such that a
    later instruction touching the same resource creates a data dependency:
    general and floating point registers, the condition code registers, the
    multiply/divide Y register, and memory.  Memory appears either as a
    single serialized resource ([Mem_all], when disambiguation is off) or
    as one resource per unique symbolic address expression ([Mem]) — the
    paper's variable-length resource table grows as new expressions are
    met. *)

type t =
  | R of Reg.t          (* integer or floating point register *)
  | Icc                 (* integer condition codes *)
  | Fcc                 (* floating point condition codes *)
  | Y                   (* multiply/divide Y register *)
  | Mem of Mem_expr.t   (* one symbolic memory expression *)
  | Mem_all             (* all of memory, serialized *)
  | Ctrl                (* control resource: branches/calls order via it *)

let equal a b =
  match (a, b) with
  | R x, R y -> Reg.equal x y
  | Icc, Icc | Fcc, Fcc | Y, Y | Mem_all, Mem_all | Ctrl, Ctrl -> true
  | Mem x, Mem y -> Mem_expr.equal x y
  | (R _ | Icc | Fcc | Y | Mem _ | Mem_all | Ctrl), _ -> false

let compare a b =
  let tag = function
    | R _ -> 0 | Icc -> 1 | Fcc -> 2 | Y -> 3 | Mem _ -> 4 | Mem_all -> 5
    | Ctrl -> 6
  in
  match (a, b) with
  | R x, R y -> Reg.compare x y
  | Mem x, Mem y -> Mem_expr.compare x y
  | _ -> Int.compare (tag a) (tag b)

let hash = function
  | R r -> Reg.hash r
  | Icc -> 1000
  | Fcc -> 1001
  | Y -> 1002
  | Mem m -> 2000 + Mem_expr.hash m
  | Mem_all -> 1003
  | Ctrl -> 1004

(* Registers are dense, so the [R r] wrappers are preallocated once and
   resource extraction on the DAG-build hot path allocates nothing. *)
let r_int = Array.init 32 (fun n -> R (Reg.Int n))
let r_float = Array.init 32 (fun n -> R (Reg.Float n))

let of_reg = function
  | Reg.Int n -> r_int.(n)
  | Reg.Float n -> r_float.(n)

let is_memory = function Mem _ | Mem_all -> true | R _ | Icc | Fcc | Y | Ctrl -> false

let is_register = function R _ -> true | Icc | Fcc | Y | Mem _ | Mem_all | Ctrl -> false

let to_string = function
  | R r -> Reg.to_string r
  | Icc -> "%icc"
  | Fcc -> "%fcc"
  | Y -> "%y"
  | Mem m -> Mem_expr.to_string m
  | Mem_all -> "[mem]"
  | Ctrl -> "<ctrl>"

let pp fmt t = Format.pp_print_string fmt (to_string t)

(** Dense ids, the keys of the "record of the last definition of a
    resource and the set of current uses" that gives table-building DAG
    construction its name: registers, the condition codes, [%y],
    [Mem_all] and [Ctrl] have fixed ids; symbolic memory expressions are
    interned on first encounter, so the table grows when a new expression
    appears — the variable-length table the paper observed on fpppp. *)
module Ids = struct
  type resource = t

  (* %g0..%g31 at 0-31, %f0..%f31 at 32-63, then the scalars *)
  let icc = 64
  let fcc = 65
  let y = 66
  let mem_all = 67
  let ctrl = 68
  let n_fixed = 69

  (* Memory expressions are interned in an open-addressed table of ids
     (-1 = empty), a power of two long and at most half full, probed
     linearly from a hash of the base and offset; a probe reads the
     expression back from [by_id], so a lookup allocates nothing. *)
  type t = {
    mutable slots : int array;
    mutable by_id : resource array;
    mutable next : int;
  }

  let fixed_ids () =
    let by_id = Array.make 128 Ctrl in
    Array.blit r_int 0 by_id 0 32;
    Array.blit r_float 0 by_id 32 32;
    by_id.(icc) <- Icc;
    by_id.(fcc) <- Fcc;
    by_id.(y) <- Y;
    by_id.(mem_all) <- Mem_all;
    by_id.(ctrl) <- Ctrl;
    by_id

  let initial_slots = 128

  let create () =
    { slots = Array.make initial_slots (-1); by_id = fixed_ids (); next = n_fixed }

  let interned t = t.next - n_fixed

  let clear t =
    t.slots <- Array.make initial_slots (-1);
    t.by_id <- fixed_ids ();
    t.next <- n_fixed

  let base_hash = function
    | Mem_expr.Breg r -> Reg.hash r
    | Mem_expr.Bsym s ->
        let h = ref 128 in
        for i = 0 to String.length s - 1 do
          h := (!h * 31) + Char.code (String.unsafe_get s i)
        done;
        !h

  (* Fibonacci hashing of base and offset onto [mask + 1] slots *)
  let slot_of base offset mask =
    ((((base_hash base * 8191) + offset) * 0x1E3779B97F4A7C15) lsr 24) land mask

  (* The id of [base + offset] probing from slot [i], or [lnot] of the
     empty slot it would take. *)
  let rec probe t base offset i =
    let id = t.slots.(i) in
    if id < 0 then lnot i
    else
      match t.by_id.(id) with
      | Mem m when m.Mem_expr.offset = offset && Mem_expr.base_equal m.Mem_expr.base base ->
          id
      | _ -> probe t base offset ((i + 1) land (Array.length t.slots - 1))

  let rehash t =
    let slots = Array.make (2 * Array.length t.slots) (-1) in
    let mask = Array.length slots - 1 in
    for id = n_fixed to t.next - 1 do
      match t.by_id.(id) with
      | Mem m ->
          let i = ref (slot_of m.Mem_expr.base m.Mem_expr.offset mask) in
          while slots.(!i) >= 0 do
            i := (!i + 1) land mask
          done;
          slots.(!i) <- id
      | R _ | Icc | Fcc | Y | Mem_all | Ctrl -> ()
    done;
    t.slots <- slots

  let mem_id t (m : Mem_expr.t) delta =
    let offset = m.offset + delta in
    let found =
      probe t m.base offset (slot_of m.base offset (Array.length t.slots - 1))
    in
    if found >= 0 then found
    else begin
      let i = t.next in
      t.next <- i + 1;
      if i >= Array.length t.by_id then begin
        let grown = Array.make (2 * Array.length t.by_id) Ctrl in
        Array.blit t.by_id 0 grown 0 (Array.length t.by_id);
        t.by_id <- grown
      end;
      t.by_id.(i) <- Mem (if delta = 0 then m else { m with offset });
      t.slots.(lnot found) <- i;
      if 2 * interned t > Array.length t.slots then rehash t;
      i
    end

  let id t = function
    | R (Reg.Int n) -> n
    | R (Reg.Float n) -> 32 + n
    | Icc -> icc
    | Fcc -> fcc
    | Y -> y
    | Mem_all -> mem_all
    | Ctrl -> ctrl
    | Mem m -> mem_id t m 0

  let resource t i = t.by_id.(i)
end
