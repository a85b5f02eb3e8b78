(** Over-the-wire serve daemon tests (the [@slow] alias; see test/dune).

    A real [schedtool serve] process on a real Unix socket:

    - {e differential}: for Table-3 programs and random generator
      traffic, across builders and strategies, the daemon's response
      must carry exactly the schedules the in-process [Batch.run]
      produces — and the warm (cached) response must be byte-identical
      to the cold one, request after request, client after client;
    - {e protocol fault injection}: truncated frames, oversized frames,
      malformed headers, garbage JSON, unparseable assembly and
      mid-request disconnects, interleaved with healthy requests — the
      daemon must answer typed errors where the protocol allows one and
      keep serving, and each typed answer leaves exactly one
      [request] span with that outcome in the [--trace] file; the
      [DAGSCHED_SERVE_FAIL] crash knob must surface as typed
      [internal] errors, never as a daemon death;
    - {e drain}: SIGINT under load lets the in-flight request finish,
      answers it completely, unlinks the socket, and exits 130. *)

open Dagsched

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let schedtool =
  match Sys.getenv_opt "SCHEDTOOL" with
  | Some p -> p
  | None -> Filename.concat (Filename.dirname Sys.executable_name)
              (Filename.concat ".." (Filename.concat "bin" "schedtool.exe"))

(* ------------------------------------------------------------------ *)
(* daemon lifecycle *)

type daemon = { pid : int; socket : string; dir : string }

let ping_payload = {|{"op": "ping"}|}

let await_up socket =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    match Serve.request_once ~socket ping_payload with
    | Ok _ -> ()
    | Error msg ->
        if Unix.gettimeofday () > deadline then
          Alcotest.failf "daemon never came up: %s" msg
        else begin
          Unix.sleepf 0.05;
          go ()
        end
  in
  go ()

let start_daemon ?(env = [||]) ?(args = [||]) () =
  let dir = Filename.temp_file "dagsched_serve_test" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let socket = Filename.concat dir "d.sock" in
  let argv =
    Array.append [| schedtool; "serve"; "--socket"; socket |] args
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process_env schedtool argv
      (Array.append env (Unix.environment ()))
      Unix.stdin devnull devnull
  in
  Unix.close devnull;
  await_up socket;
  { pid; socket; dir }

(* SIGINT, wait, and require the drain contract: exit 130, socket gone *)
let stop_daemon d =
  Unix.kill d.pid Sys.sigint;
  let _, status = Unix.waitpid [] d.pid in
  (match status with
  | Unix.WEXITED 130 -> ()
  | Unix.WEXITED n -> Alcotest.failf "daemon exit %d, expected 130" n
  | Unix.WSIGNALED s -> Alcotest.failf "daemon killed by signal %d" s
  | Unix.WSTOPPED s -> Alcotest.failf "daemon stopped by signal %d" s);
  check_bool "socket unlinked on drain" false (Sys.file_exists d.socket);
  (try
     Sys.readdir d.dir
     |> Array.iter (fun f -> Sys.remove (Filename.concat d.dir f));
     Sys.rmdir d.dir
   with Sys_error _ -> ())

let with_daemon ?env ?args f =
  let d = start_daemon ?env ?args () in
  let stopped = ref false in
  Fun.protect
    ~finally:(fun () ->
      if not !stopped then try stop_daemon d with _ -> ())
    (fun () ->
      let v = f d in
      stopped := true;
      stop_daemon d;
      v)

let request d payload =
  match Serve.request_once ~socket:d.socket payload with
  | Ok r -> r
  | Error msg -> Alcotest.failf "request failed: %s" msg

(* ------------------------------------------------------------------ *)
(* request corpus *)

let program_text blocks =
  let buf = Buffer.create 1024 in
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "B%d:\n%s" b.Block.id
           (Parser.print_program (Block.to_list b))))
    blocks;
  Buffer.contents buf

let corpus_programs () =
  let table3 =
    List.map
      (fun p -> program_text (Profiles.generate p))
      [ Profiles.grep; Profiles.linpack ]
  in
  let rng = Prng.create 0x5e12e in
  let random =
    List.init 4 (fun _ ->
        program_text
          (List.init 5 (fun j ->
               Gen.block rng ~params:Gen.fp_loops ~id:j
                 ~size:(6 + Prng.int rng 25) ())))
  in
  table3 @ random

let schedule_payload ?(builder = Builder.Table_forward)
    ?(strategy = Disambiguate.Base_offset) text =
  Json.to_string
    (Serve.request_to_json
       (Serve.Schedule
          { text; builder; strategy; model = Latency.simple_risc }))

let parse_response r =
  match Json.of_string r with
  | Ok json -> json
  | Error msg -> Alcotest.failf "response does not parse: %s" msg

let status_of json =
  match Json.member "status" json with
  | Some (Json.String s) -> s
  | _ -> Alcotest.fail "response without a status"

let error_kind_of json =
  match Json.member "error" json with
  | Some err -> (
      match Json.member "kind" err with
      | Some (Json.String k) -> k
      | _ -> Alcotest.fail "error response without a kind")
  | None -> Alcotest.fail "error response without an error object"

(* ------------------------------------------------------------------ *)
(* differential: daemon == Batch.run, warm == cold *)

let test_differential () =
  let programs = corpus_programs () in
  let combos =
    [ (Builder.Table_forward, Disambiguate.Base_offset);
      (Builder.N2_forward, Disambiguate.Symbolic) ]
  in
  with_daemon (fun d ->
      List.iter
        (fun text ->
          List.iter
            (fun (builder, strategy) ->
              let payload = schedule_payload ~builder ~strategy text in
              let cold = request d payload in
              check_string "daemon response = in-process handle_text"
                (let serve = Serve.create ~domains:1 () in
                 Fun.protect
                   ~finally:(fun () -> Serve.destroy serve)
                   (fun () -> Serve.handle_text serve payload))
                cold;
              (* warm: same bytes, twice over *)
              check_string "warm response byte-identical (1st)" cold
                (request d payload);
              check_string "warm response byte-identical (2nd)" cold
                (request d payload);
              let json = parse_response cold in
              check_string "status ok" "ok" (status_of json);
              (* spot-check the report totals against Batch.run *)
              let blocks =
                Cfg_builder.partition (Parser.parse_program text)
              in
              let config =
                { Batch.section6 with
                  Batch.algorithm = builder;
                  opts =
                    { Opts.default with
                      Opts.model = Latency.simple_risc; strategy } }
              in
              let expected = Batch.run ~domains:1 config blocks in
              let report =
                match Json.member "report" json with
                | Some rj -> (
                    match Batch.report_of_json rj with
                    | Ok r -> r
                    | Error e ->
                        Alcotest.failf "report: %s" (Json.error_to_string e))
                | None -> Alcotest.fail "response without a report"
              in
              let expect_report =
                { (Batch.report ~domains:1 ~wall_s:0.0 expected) with
                  Batch.block_s_mean = 0.0;
                  block_s_max = 0.0 }
              in
              check_bool "report matches Batch.run" true
                (Batch.report_equal report expect_report))
            combos)
        programs;
      (* every program x combo was requested 3x: 1 miss + 2 hits each *)
      let stats = parse_response (request d {|{"op": "stats"}|}) in
      let cache =
        match Json.member "cache" stats with
        | Some c -> c
        | None -> Alcotest.fail "stats without cache"
      in
      let geti k =
        match Json.get_int ~path:[ "cache" ] k cache with
        | Ok v -> v
        | Error e -> Alcotest.failf "stats: %s" (Json.error_to_string e)
      in
      let n = List.length programs * List.length combos in
      check_int "misses = distinct requests" n (geti "misses");
      check_int "hits = repeats" (2 * n) (geti "hits"))

(* ------------------------------------------------------------------ *)
(* protocol fault injection over the wire *)

(* raw connection helper: send exactly [bytes], optionally read one
   frame back *)
let raw_exchange d ?(read_back = true) bytes =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX d.socket);
      if String.length bytes > 0 then
        ignore (Unix.write_substring fd bytes 0 (String.length bytes));
      if read_back then begin
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        match Frame.read (Frame.reader fd) with
        | Ok r -> Some r
        | Error _ -> None
      end
      else None)

let expect_typed_error d bytes kind =
  match raw_exchange d bytes with
  | Some response ->
      let json = parse_response response in
      check_string ("typed error " ^ kind) kind (error_kind_of json)
  | None ->
      Alcotest.failf "no response frame for the %s case" kind

(* a daemon tracing into a file of its own: [f] runs against it, and
   the outcomes of its request spans come back once it has drained and
   written the trace, sorted *)
let with_traced_daemon ?(args = [||]) f =
  let trace = Filename.temp_file "dagsched_serve_trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove trace with Sys_error _ -> ())
  @@ fun () ->
  with_daemon ~args:(Array.append args [| "--trace"; trace |]) f;
  let spans =
    match Json.of_string (In_channel.with_open_bin trace In_channel.input_all) with
    | Error msg -> Alcotest.failf "daemon trace: %s" msg
    | Ok json -> (
        match Trace.events_of_json json with
        | Ok spans -> spans
        | Error e -> Alcotest.failf "daemon trace: %s" (Json.error_to_string e))
  in
  List.filter_map
    (fun (s : Trace.span) ->
      if s.Trace.name = "request" then
        match List.assoc_opt "outcome" s.Trace.args with
        | Some (Json.String o) -> Some o
        | _ -> Alcotest.fail "request span without an outcome"
      else None)
    spans
  |> List.sort compare

(* every outcome but "ok" (pings and healthy requests), sorted *)
let check_errors what expected outcomes =
  Alcotest.(check (list string)) what expected
    (List.filter (fun o -> o <> "ok") outcomes);
  check_bool (what ^ ": ok requests recorded") true (List.mem "ok" outcomes)

let test_fault_injection () =
  with_traced_daemon (fun d ->
      let healthy = schedule_payload "nop\n" in
      let baseline = request d healthy in
      (* malformed header bytes *)
      expect_typed_error d "garbage header\n" "malformed-frame";
      check_string "alive after malformed header" baseline
        (request d healthy))
  |> check_errors "one request span per typed answer" [ "malformed-frame" ];
  (* oversized cap and timeout behavior need their own daemon options *)
  with_traced_daemon ~args:[| "--max-frame"; "1024"; "--timeout"; "0.3" |]
    (fun d ->
      let healthy = schedule_payload "nop\n" in
      let baseline = request d healthy in
      expect_typed_error d (Frame.encode (String.make 4096 'x')) "oversized";
      check_string "alive after oversized" baseline (request d healthy);
      (* truncated frame + disconnect: no response possible; the daemon
         must move on *)
      ignore (raw_exchange d ~read_back:false "100\npartial");
      check_string "alive after truncated frame" baseline (request d healthy);
      (* connect-and-say-nothing (no shutdown, so no EOF): the daemon's
         0.3 s receive timeout must reclaim the connection and answer a
         typed error *)
      (let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       Fun.protect
         ~finally:(fun () ->
           try Unix.close fd with Unix.Unix_error _ -> ())
         (fun () ->
           Unix.connect fd (Unix.ADDR_UNIX d.socket);
           match Frame.read (Frame.reader fd) with
           | Ok response ->
               check_string "mute client gets a typed error"
                 "malformed-frame" (error_kind_of (parse_response response))
           | Error e ->
               Alcotest.failf "mute client: expected a typed error, got %s"
                 (Frame.error_to_string e)));
      check_string "alive after mute client" baseline (request d healthy);
      (* garbage JSON in a well-formed frame *)
      expect_typed_error d (Frame.encode "{not json") "parse";
      (* bad request shape *)
      expect_typed_error d (Frame.encode {|{"op": "launch"}|}) "bad-request";
      (* unparseable assembly *)
      expect_typed_error d
        (Frame.encode (schedule_payload "definitely not assembly !!!"))
        "block-parse";
      check_string "alive after the gauntlet" baseline (request d healthy))
  (* the torn frame got no answer, so it leaves no request span *)
  |> check_errors "one request span per typed answer"
       [ "bad-request"; "block-parse"; "malformed-frame"; "oversized"; "parse" ]

let test_crash_knob () =
  with_daemon ~env:[| "DAGSCHED_SERVE_FAIL=raise:2" |] (fun d ->
      let payload = schedule_payload "nop\n" in
      let r1 = parse_response (request d payload) in
      check_string "injected crash 1 -> internal" "internal"
        (error_kind_of r1);
      let r2 = parse_response (request d payload) in
      check_string "injected crash 2 -> internal" "internal"
        (error_kind_of r2);
      (* budget spent: the daemon survived and now serves for real *)
      let r3 = parse_response (request d payload) in
      check_string "daemon alive and scheduling" "ok" (status_of r3))

(* ------------------------------------------------------------------ *)
(* SIGINT drain under load *)

let test_drain_under_load () =
  let big =
    program_text (Profiles.generate Profiles.linpack)
  in
  let d = start_daemon () in
  let payload = schedule_payload big in
  let reaped = ref false in
  (* a leaked daemon wedges dune's output pipe (it inherits alcotest's
     saved stdout dup across exec), so reap it no matter how we fail *)
  Fun.protect
    ~finally:(fun () ->
      if not !reaped then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ())
      end)
    (fun () ->
      (* push the request into the daemon, SIGINT it while the request
         is almost surely in flight, and require a complete, correct
         response anyway.  Single-threaded on purpose: the differential
         test spawns pool domains in-process and OCaml 5 forbids
         Unix.fork after that *)
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () ->
          try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          Unix.connect fd (Unix.ADDR_UNIX d.socket);
          Frame.write fd payload;
          (* the pending connection wakes the accept loop immediately,
             so after this pause the daemon is mid-request *)
          Unix.sleepf 0.05;
          Unix.kill d.pid Sys.sigint;
          match Frame.read (Frame.reader fd) with
          | Ok r ->
              (match Json.of_string r with
              | Ok json
                when (match Json.member "status" json with
                     | Some (Json.String "ok") -> true
                     | _ -> false) -> ()
              | _ -> Alcotest.fail "in-flight response was damaged")
          | Error e ->
              Alcotest.failf "in-flight request was dropped: %s"
                (Frame.error_to_string e));
      let _, status = Unix.waitpid [] d.pid in
      reaped := true;
      match status with
      | Unix.WEXITED 130 -> ()
      | Unix.WEXITED n -> Alcotest.failf "daemon exit %d, expected 130" n
      | _ -> Alcotest.fail "daemon did not exit");
  check_bool "socket unlinked" false (Sys.file_exists d.socket);
  (try
     Sys.readdir d.dir
     |> Array.iter (fun f -> Sys.remove (Filename.concat d.dir f));
     Sys.rmdir d.dir
   with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)

let () =
  if not (Sys.file_exists schedtool) then begin
    Printf.eprintf "schedtool binary not found at %s (set SCHEDTOOL)\n"
      schedtool;
    exit 1
  end;
  Alcotest.run "serve"
    [ ( "differential",
        [ Alcotest.test_case "daemon == Batch.run, warm == cold" `Slow
            test_differential ] );
      ( "fault-injection",
        [ Alcotest.test_case "frame and request damage stays contained"
            `Slow test_fault_injection;
          Alcotest.test_case "DAGSCHED_SERVE_FAIL -> typed internal errors"
            `Slow test_crash_knob ] );
      ( "drain",
        [ Alcotest.test_case "SIGINT under load: finish, answer, exit 130"
            `Slow test_drain_under_load ] ) ]
