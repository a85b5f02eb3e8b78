(* Small measurement helpers: clocks, order statistics, process memory. *)

let now = Unix.gettimeofday

(* nearest-rank percentile, [p] in (0, 1]; 0 for no samples *)
let percentile p xs =
  match xs with
  | [] -> 0.0
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 0.5 xs

(* [timed f] is (seconds, f ()) *)
let timed f =
  let t0 = now () in
  let r = f () in
  (now () -. t0, r)

(* Minor words allocated by every domain of the process.  [Gc.minor_words]
   counts only the calling domain; [Gc.quick_stat] adds the counts of
   domains that have terminated, so a figure taken after a pool's domains
   are joined is exact.  It leaves out the calling domain's live minor
   heap, hence the collection first. *)
let process_minor_words () =
  Gc.minor ();
  (Gc.quick_stat ()).Gc.minor_words

(* a "Name:   1234 kB" field of /proc/<pid>/status, in kB *)
let status_kb ?(pid = "self") field =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             if String.starts_with ~prefix:(field ^ ":") line then
               String.to_seq line
               |> Seq.filter (fun c -> c >= '0' && c <= '9')
               |> String.of_seq |> int_of_string_opt
             else None)
      |> Option.value ~default:0

(* peak resident set (VmHWM) in MB *)
let peak_rss_mb ?pid () = float_of_int (status_kb ?pid "VmHWM") /. 1024.0
