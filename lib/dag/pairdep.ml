(** Pairwise dependence analysis — the test at the heart of the
    compare-against-all (n²) construction.

    The n² builders call it O(n²) times per block, so the
    per-instruction resource extraction is done once per block into
    flat per-domain arrays and the pair test works over them, allocating
    nothing. *)

open Ds_isa
open Ds_machine

(* Block summaries.  One per-domain scratch holds every instruction's
   canonicalized defs/uses packed into two resource arrays with offset
   tables (a definition's or use's position is its index within its
   instruction's range), plus the mutable best-conflict cell used by
   [strongest_packed].  At most one live block summary per domain:
   [summarize_block] invalidates the previous one. *)

type block_sum = {
  mutable def_res : Resource.t array;
  mutable def_off : int array;         (* length n+1; defs of insn i are
                                          def_res.[def_off.(i) .. def_off.(i+1)) *)
  mutable use_res : Resource.t array;
  mutable use_off : int array;
  mutable best : int;                  (* strongest_packed scratch *)
  scan : Insn.Scan.buf;
}

let block_key =
  Domain.DLS.new_key (fun () ->
      { def_res = Array.make 64 Resource.Ctrl;
        def_off = Array.make 17 0;
        use_res = Array.make 64 Resource.Ctrl;
        use_off = Array.make 17 0;
        best = -1;
        scan = Insn.Scan.create () })

let grow_to a len fill =
  if len > Array.length a then begin
    let grown = Array.make (max len (2 * Array.length a)) fill in
    Array.blit a 0 grown 0 (Array.length a);
    grown
  end
  else a

let summarize_block strategy insns =
  let st = Domain.DLS.get block_key in
  let n = Array.length insns in
  st.def_off <- grow_to st.def_off (n + 1) 0;
  st.use_off <- grow_to st.use_off (n + 1) 0;
  let nd = ref 0 and nu = ref 0 in
  for i = 0 to n - 1 do
    st.def_off.(i) <- !nd;
    Insn.scan_defs st.scan insns.(i);
    for k = 0 to Insn.Scan.len st.scan - 1 do
      st.def_res <- grow_to st.def_res (!nd + 1) Resource.Ctrl;
      st.def_res.(!nd) <- Disambiguate.canonical strategy (Insn.Scan.res st.scan k);
      incr nd
    done;
    st.use_off.(i) <- !nu;
    Insn.scan_uses st.scan insns.(i);
    for k = 0 to Insn.Scan.len st.scan - 1 do
      st.use_res <- grow_to st.use_res (!nu + 1) Resource.Ctrl;
      st.use_res.(!nu) <- Disambiguate.canonical strategy (Insn.Scan.res st.scan k);
      incr nu
    done
  done;
  st.def_off.(n) <- !nd;
  st.use_off.(n) <- !nu;
  st

(* Strongest conflicts are packed as [(latency lsl 2) lor rank] with the
   dependence-strength tie rank (Raw 3 > Waw 2 > War 1), or [-1] for
   independence — so "largest latency wins, RAW preferred on ties" is a
   single integer max and the pair test allocates nothing.  Which
   resource carried the winning conflict is not kept: kind and latency
   are all the builders consume. *)

let strongest_packed st ~model ~strategy insns i j =
  let parent = insns.(i) and child = insns.(j) in
  let pd0 = st.def_off.(i) and pd1 = st.def_off.(i + 1) in
  let pu0 = st.use_off.(i) and pu1 = st.use_off.(i + 1) in
  let cd0 = st.def_off.(j) and cd1 = st.def_off.(j + 1) in
  let cu0 = st.use_off.(j) and cu1 = st.use_off.(j + 1) in
  st.best <- -1;
  (* RAW: parent def vs child use *)
  for d = pd0 to pd1 - 1 do
    let dr = st.def_res.(d) in
    for u = cu0 to cu1 - 1 do
      if Disambiguate.may_alias strategy dr st.use_res.(u) then begin
        let latency =
          model.Latency.raw ~parent ~def_pos:(d - pd0) ~res:dr ~child
            ~use_pos:(u - cu0)
        in
        let pk = (latency lsl 2) lor 3 in
        if pk > st.best then st.best <- pk
      end
    done
  done;
  (* WAW: parent def vs child def *)
  for d = pd0 to pd1 - 1 do
    let dr = st.def_res.(d) in
    for c = cd0 to cd1 - 1 do
      if Disambiguate.may_alias strategy dr st.def_res.(c) then begin
        let latency = model.Latency.waw ~parent ~res:dr ~child in
        let pk = (latency lsl 2) lor 2 in
        if pk > st.best then st.best <- pk
      end
    done
  done;
  (* WAR: parent use vs child def *)
  for u = pu0 to pu1 - 1 do
    let ur = st.use_res.(u) in
    for c = cd0 to cd1 - 1 do
      if Disambiguate.may_alias strategy ur st.def_res.(c) then begin
        let latency = model.Latency.war ~parent ~res:ur ~child in
        let pk = (latency lsl 2) lor 1 in
        if pk > st.best then st.best <- pk
      end
    done
  done;
  st.best

let kind_of_packed pk =
  match pk land 3 with
  | 3 -> Dep.Raw
  | 2 -> Dep.Waw
  | 1 -> Dep.War
  | _ -> Dep.Ctl

let latency_of_packed pk = pk lsr 2
