(* Host-speed correction.  On a shared host the same pass can take half
   as long again from one minute to the next, which swamps the spread a
   change to the library would cause.  A fixed kernel of the benchmark's
   own, timed right next to the measured work, gives the host's current
   slowdown against the host the benchmark was tuned on; end-to-end times
   are divided by it and rates multiplied.  The kernel never calls the
   library, so a library change cannot move it.  Per-layer figures stay
   raw. *)

(* allocation, string hashing, sorting: the mix the pipeline leans on *)
let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 29_999 do
    Hashtbl.replace h (string_of_int (i * 7919 mod 100_003)) i
  done;
  let l = List.init 30_000 (fun i -> i * 48271 mod 65_537) in
  let a = Array.of_list (List.sort compare l) in
  ignore (Sys.opaque_identity (Hashtbl.length h + a.(100)))

(* the kernel's median time on the reference host: a 2-vCPU VM at
   2.0 GHz *)
let reference_s = 0.015

(* current slowdown: above 1 when the host runs slower than the
   reference *)
let slowdown () = fst (Sample.timed kernel) /. reference_s

(* [bracketed f] runs [f] between two slowdown readings and returns
   (their mean, f ()) *)
let bracketed f =
  let before = slowdown () in
  let r = f () in
  ((before +. slowdown ()) /. 2.0, r)
