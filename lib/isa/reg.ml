(** SPARC-like register file.

    Thirty-two integer registers in four window groups (global [%g0-%g7],
    out [%o0-%o7], local [%l0-%l7], in [%i0-%i7]) and thirty-two
    single-precision floating point registers [%f0-%f31].  [%g0] is
    hardwired to zero: it is never a dependence resource (writes are
    discarded, reads produce a constant).  [%o6] is the stack pointer
    ([%sp]) and [%i6] the frame pointer ([%fp]); both names are accepted by
    the parser and used by the memory-disambiguation storage-class rules.

    Register windows matter to block formation: SAVE and RESTORE rotate the
    window so the same register *name* denotes a different physical
    resource on each side, which is why the paper (and [Cfg.Builder]) ends
    basic blocks at window-altering instructions. *)

type t =
  | Int of int    (* 0..31: %g0-7, %o0-7, %l0-7, %i0-7 *)
  | Float of int  (* 0..31: %f0-31 *)

let equal a b =
  match (a, b) with
  | Int x, Int y | Float x, Float y -> x = y
  | Int _, Float _ | Float _, Int _ -> false

let compare a b =
  match (a, b) with
  | Int x, Int y | Float x, Float y -> Int.compare x y
  | Int _, Float _ -> -1
  | Float _, Int _ -> 1

let hash = function Int i -> i | Float i -> 64 + i

(* Window group boundaries within the 0..31 integer register numbering. *)
let g0 = Int 0
let sp = Int 14 (* %o6 *)
let fp = Int 30 (* %i6 *)

let is_zero r = equal r g0
let is_stack_base r = equal r sp || equal r fp

let int n =
  if n < 0 || n > 31 then invalid_arg "Reg.int: out of range";
  Int n

let float n =
  if n < 0 || n > 31 then invalid_arg "Reg.float: out of range";
  Float n

(** Conventional SPARC names: %g0-7, %o0-7, %l0-7, %i0-7 with %sp/%fp
    aliases; %f0-31. *)
let to_string = function
  | Int 14 -> "%sp"
  | Int 30 -> "%fp"
  | Int n when n < 8 -> Printf.sprintf "%%g%d" n
  | Int n when n < 16 -> Printf.sprintf "%%o%d" (n - 8)
  | Int n when n < 24 -> Printf.sprintf "%%l%d" (n - 16)
  | Int n -> Printf.sprintf "%%i%d" (n - 24)
  | Float n -> Printf.sprintf "%%f%d" n

(* Every register, preallocated, so decoding a name allocates
   nothing. *)
let ints = Array.init 32 (fun n -> Int n)
let floats = Array.init 32 (fun n -> Float n)

let is_digit c = c >= '0' && c <= '9'
let digit s i = Char.code s.[i] - Char.code '0'

(* The register number in [s.[i .. stop-1]]: one or two decimal digits
   are read in place; any other token means what [int_of_string_opt]
   makes of it, so [%o0x1] names [%o1].  A negative number names no
   register ([%g-1], [%o-1]). *)
let number s i stop =
  if stop = i + 1 && is_digit s.[i] then digit s i
  else if stop = i + 2 && is_digit s.[i] && is_digit s.[i + 1] then
    (10 * digit s i) + digit s (i + 1)
  else
    match int_of_string_opt (String.sub s i (stop - i)) with
    | Some n when n >= 0 -> n
    | Some _ | None -> raise Not_found

let of_sub s pos len =
  if len < 3 || s.[pos] <> '%' then raise Not_found;
  let c = s.[pos + 1] in
  if len = 3 && c = 's' && s.[pos + 2] = 'p' then sp
  else if len = 3 && c = 'f' && s.[pos + 2] = 'p' then fp
  else
    let n = number s (pos + 2) (pos + len) in
    match c with
    | 'g' when n < 8 -> ints.(n)
    | 'o' when n < 8 -> ints.(8 + n)
    | 'l' when n < 8 -> ints.(16 + n)
    | 'i' when n < 8 -> ints.(24 + n)
    | 'f' when n < 32 -> floats.(n)
    | 'r' when n < 32 -> ints.(n)
    | _ -> raise Not_found

let of_string s =
  try of_sub s 0 (String.length s)
  with Not_found -> invalid_arg (Printf.sprintf "Reg.of_string: %S" s)

(** The odd register of a double-word pair: LDD into [%o0] also writes
    [%o1]; LDDF into [%f2] also writes [%f3].  The paper notes the RAW
    delays from these two definitions can differ by a cycle. *)
let pair_partner = function
  | Int n when n mod 2 = 0 && n < 31 -> Some (Int (n + 1))
  | Float n when n mod 2 = 0 && n < 31 -> Some (Float (n + 1))
  | Int _ | Float _ -> None

let pp fmt r = Format.pp_print_string fmt (to_string r)
