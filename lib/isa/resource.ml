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

(** Hash table keyed by resources; the id-assigning variant below is the
    "record of the last definition of a resource and the set of current
    uses" table that gives table-building DAG construction its name. *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

(** Dense ids: registers, the condition codes, [%y], [Mem_all] and
    [Ctrl] have fixed ids; symbolic memory expressions are interned on
    first encounter, so the table grows when a new expression appears —
    the variable-length table the paper observed on fpppp. *)
module Ids = struct
  type resource = t

  (* %g0..%g31 at 0-31, %f0..%f31 at 32-63, then the scalars *)
  let icc = 64
  let fcc = 65
  let y = 66
  let mem_all = 67
  let ctrl = 68
  let n_fixed = 69

  module Mtbl = Hashtbl.Make (struct
    type t = Mem_expr.t

    let equal = Mem_expr.equal
    let hash = Mem_expr.hash
  end)

  type t = {
    mem : int Mtbl.t;
    mutable by_id : resource array;
    mutable next : int;
  }

  let create () =
    let by_id = Array.make 128 Ctrl in
    Array.blit r_int 0 by_id 0 32;
    Array.blit r_float 0 by_id 32 32;
    by_id.(icc) <- Icc;
    by_id.(fcc) <- Fcc;
    by_id.(y) <- Y;
    by_id.(mem_all) <- Mem_all;
    by_id.(ctrl) <- Ctrl;
    { mem = Mtbl.create 64; by_id; next = n_fixed }

  let id t = function
    | R (Reg.Int n) -> n
    | R (Reg.Float n) -> 32 + n
    | Icc -> icc
    | Fcc -> fcc
    | Y -> y
    | Mem_all -> mem_all
    | Ctrl -> ctrl
    | Mem m as r -> (
        match Mtbl.find t.mem m with
        | i -> i
        | exception Not_found ->
            let i = t.next in
            t.next <- i + 1;
            if i >= Array.length t.by_id then begin
              let grown = Array.make (2 * Array.length t.by_id) Ctrl in
              Array.blit t.by_id 0 grown 0 (Array.length t.by_id);
              t.by_id <- grown
            end;
            t.by_id.(i) <- r;
            Mtbl.add t.mem m i;
            i)

  let resource t i = t.by_id.(i)
end
