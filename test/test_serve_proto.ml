(** Tier-1 suite for the serve layer, wire-free where possible:

    - the frame codec over real socketpairs — round trips (empty,
      binary, large), several frames through one reader, frames around
      and past the reader's staging buffer, headers split across reads,
      truncation mid-header and mid-payload, oversized and malformed
      headers, and the receive-timeout path; [Frame.write] puts exactly
      [Frame.encode]'s bytes on the wire without copying the payload;
    - the request codec against adversarial JSON — every error carries
      a typed path naming the offending field;
    - [Serve.handle_text] differentially against the in-process
      {!Batch} pipeline across builders and strategies: the daemon's
      response must report exactly the schedules [Batch.run] produces,
      and its fingerprint must be the advertised fold of the per-block
      DAG fingerprints;
    - warm responses byte-identical to cold ones, with the cache
      counters moving exactly as specified;
    - a one-domain [Serve.t] schedules on the calling domain, and its
      responses equal a two-domain one's but for the report's
      [domains];
    - failure containment: request JSON that does not parse, bad
      fields, unparseable assembly and an injected pipeline crash
      ([DAGSCHED_SERVE_FAIL]) each answer their typed error and leave
      the daemon state serving correctly afterwards.

    The over-the-wire daemon (real process, SIGINT drain, concurrent
    clients) lives in the slow suite, [test/test_serve.ml]. *)

open Dagsched

let frame_error =
  Alcotest.testable
    (fun fmt e -> Format.pp_print_string fmt (Frame.error_to_string e))
    (fun a b -> a = b)

(* a connected socketpair; the writer side is closed by the test to
   signal EOF *)
let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

(* ------------------------------------------------------------------ *)
(* frames *)

let test_frame_roundtrip () =
  with_pair (fun w r ->
      let payloads =
        [ ""; "x"; "{\"op\": \"ping\"}"; String.make 100_000 'q';
          "\x00\x01\xff binary \n bytes \r\n" ]
      in
      List.iter (fun p -> Frame.write w p) payloads;
      Unix.close w;
      let reader = Frame.reader r in
      List.iter
        (fun expected ->
          match Frame.read reader with
          | Ok got ->
              Alcotest.(check string) "frame round trip" expected got
          | Error e ->
              Alcotest.failf "frame read failed: %s" (Frame.error_to_string e))
        payloads;
      (* clean EOF after the last frame *)
      Alcotest.check (Alcotest.result Alcotest.string frame_error)
        "EOF after last frame" (Error Frame.Closed) (Frame.read reader))

let test_frame_truncated_payload () =
  with_pair (fun w r ->
      (* header promises 100 bytes, only 10 arrive *)
      let torn = "100\n" ^ String.make 10 'x' in
      ignore (Unix.write_substring w torn 0 (String.length torn));
      Unix.close w;
      Alcotest.check (Alcotest.result Alcotest.string frame_error)
        "torn mid-payload" (Error Frame.Closed)
        (Frame.read (Frame.reader r)))

let test_frame_truncated_header () =
  with_pair (fun w r ->
      ignore (Unix.write_substring w "123" 0 3);
      Unix.close w;
      Alcotest.check (Alcotest.result Alcotest.string frame_error)
        "torn mid-header" (Error Frame.Closed)
        (Frame.read (Frame.reader r)))

let test_frame_oversized () =
  with_pair (fun w r ->
      Frame.write w (String.make 5000 'x');
      Alcotest.check (Alcotest.result Alcotest.string frame_error)
        "over the cap" (Error (Frame.Oversized 5000))
        (Frame.read ~max_bytes:4096 (Frame.reader r)))

let test_frame_malformed () =
  let malformed header =
    with_pair (fun w r ->
        ignore (Unix.write_substring w header 0 (String.length header));
        Unix.close w;
        match Frame.read (Frame.reader r) with
        | Error (Frame.Malformed _) -> ()
        | Ok p -> Alcotest.failf "header %S read a frame (%d bytes)" header
                    (String.length p)
        | Error e ->
            Alcotest.failf "header %S: expected Malformed, got %s" header
              (Frame.error_to_string e))
  in
  malformed "abc\n";
  malformed "-5\n";
  malformed "12x\n";
  malformed "\n";
  (* a header longer than any int64 without its newline *)
  malformed (String.make 32 '9')

let test_frame_timeout () =
  with_pair (fun _w r ->
      Unix.setsockopt_float r Unix.SO_RCVTIMEO 0.05;
      Alcotest.check (Alcotest.result Alcotest.string frame_error)
        "receive timeout" (Error Frame.Timeout)
        (Frame.read (Frame.reader r)))

(* frames straddling the reader's small staging buffer: back-to-back
   frames around and past its size, written as one stream so a fill
   over-reads into the next frame *)
let test_frame_back_to_back () =
  with_pair (fun w r ->
      let payloads =
        List.map
          (fun n -> String.init n (fun i -> Char.chr ((i * 7 + n) land 0xff)))
          [ 0; 1; 500; 511; 512; 513; 1; 1023; 2048; 0; 5000; 3; 70_000; 2 ]
      in
      let stream = String.concat "" (List.map Frame.encode payloads) in
      let writer =
        Domain.spawn (fun () ->
            ignore (Unix.write_substring w stream 0 (String.length stream));
            Unix.close w)
      in
      let reader = Frame.reader r in
      List.iteri
        (fun i expected ->
          match Frame.read reader with
          | Ok got ->
              Alcotest.(check string) (Printf.sprintf "frame %d" i) expected got
          | Error e ->
              Alcotest.failf "frame %d: %s" i (Frame.error_to_string e))
        payloads;
      Domain.join writer;
      Alcotest.check (Alcotest.result Alcotest.string frame_error)
        "EOF after last frame" (Error Frame.Closed) (Frame.read reader))

(* [chunks] written one at a time with a pause in between, so the
   reader sees each in its own read *)
let dribble w chunks =
  Domain.spawn (fun () ->
      List.iter
        (fun c ->
          ignore (Unix.write_substring w c 0 (String.length c));
          Unix.sleepf 0.002)
        chunks;
      Unix.close w)

let test_frame_split_header () =
  let payload = String.make 1500 'p' in
  let bytes s = List.init (String.length s) (fun i -> String.make 1 s.[i]) in
  List.iter
    (fun (what, expected, chunks) ->
      with_pair (fun w r ->
          let writer = dribble w chunks in
          let reader = Frame.reader r in
          let got = Frame.read reader in
          let eof = Frame.read reader in
          Domain.join writer;
          Alcotest.check (Alcotest.result Alcotest.string frame_error)
            what (Ok expected) got;
          Alcotest.check (Alcotest.result Alcotest.string frame_error)
            (what ^ ": EOF") (Error Frame.Closed) eof))
    [ ( "header split across reads", payload,
        [ "15"; "00"; "\n" ^ String.sub payload 0 700;
          String.sub payload 700 800 ] );
      ("header one byte at a time", payload, bytes "1500\n" @ [ payload ]);
      ("frame one byte at a time", "tiny", bytes (Frame.encode "tiny")) ]

(* the encoder's bytes are the decimal-header format, to the byte *)
let test_frame_encode_format () =
  List.iter
    (fun payload ->
      Alcotest.(check string)
        (Printf.sprintf "%d-byte payload" (String.length payload))
        (Printf.sprintf "%d\n%s" (String.length payload) payload)
        (Frame.encode payload))
    [ ""; "x"; String.init (1 lsl 20) (fun i -> Char.chr (i land 0xff)) ]

(* [write] puts exactly [encode]'s bytes on the wire, straight from the
   payload: a 64 KiB frame copies nothing to the major heap.  The
   socketpair's send buffer holds the whole frame, so the calling
   domain writes it all before anything reads. *)
let test_frame_write_no_copy () =
  let drain r =
    let buf = Buffer.create 70_000 and chunk = Bytes.create 4096 in
    let rec go () =
      match Unix.read r chunk 0 (Bytes.length chunk) with
      | 0 -> Buffer.contents buf
      | n -> Buffer.add_subbytes buf chunk 0 n; go ()
    in
    go ()
  in
  List.iter
    (fun payload ->
      with_pair (fun w r ->
          (* [Gc.counters], not [Gc.quick_stat]: on OCaml 5.1 the
             latter missed this 64 KiB copy when the old [write] made
             it *)
          let major () = let _, _, m = Gc.counters () in m in
          let major0 = major () in
          Frame.write w payload;
          let major = major () -. major0 in
          Unix.close w;
          let what = Printf.sprintf "%d-byte payload" (String.length payload) in
          Alcotest.(check string) what (Frame.encode payload) (drain r);
          if major > 0.0 then
            Alcotest.failf "%s: write allocated %.0f major words" what major))
    [ ""; "x"; String.init 65536 (fun i -> Char.chr ((i * 13) land 0xff)) ]

(* ------------------------------------------------------------------ *)
(* request codec *)

let decode s =
  match Json.of_string s with
  | Ok json -> Serve.request_of_json json
  | Error msg -> Alcotest.failf "test JSON does not parse: %s" msg

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    if i + nn > nh then false
    else String.sub hay i nn = needle || go (i + 1)
  in
  go 0

let expect_error s fragment =
  match decode s with
  | Ok _ -> Alcotest.failf "decoded %s, expected an error" s
  | Error e ->
      let text = Json.error_to_string e in
      if not (contains ~needle:fragment text) then
        Alcotest.failf "error %S does not mention %S" text fragment

let test_request_decode_errors () =
  expect_error {|[1, 2]|} "request object";
  expect_error {|{"op": 7}|} "expected a string";
  expect_error {|{"op": "launch"}|} "unknown op";
  expect_error {|{"op": "schedule"}|} "block";
  expect_error {|{"block": 3}|} "block";
  expect_error {|{"block": "nop", "builder": "bogus"}|} "unknown builder";
  expect_error {|{"block": "nop", "strategy": "bogus"}|} "unknown strategy";
  expect_error {|{"block": "nop", "model": "bogus"}|} "unknown model";
  expect_error {|{"block": "nop", "builder": 9}|} "builder"

let test_request_roundtrip () =
  let requests =
    [ Serve.Ping; Serve.Stats;
      Serve.Schedule
        { text = "add %r1, %r2, %r3\n";
          builder = Builder.N2_forward;
          strategy = Disambiguate.Symbolic;
          model = Latency.simple_risc } ]
  in
  (* Latency.t carries closures, so no structural compare across it *)
  let request_equal a b =
    match (a, b) with
    | Serve.Ping, Serve.Ping | Serve.Stats, Serve.Stats -> true
    | Serve.Schedule a, Serve.Schedule b ->
        String.equal a.text b.text
        && a.builder = b.builder && a.strategy = b.strategy
        && String.equal a.model.Latency.name b.model.Latency.name
    | _ -> false
  in
  List.iter
    (fun r ->
      match Serve.request_of_json (Serve.request_to_json r) with
      | Ok r' when request_equal r r' -> ()
      | Ok _ -> Alcotest.fail "request round trip changed the request"
      | Error e ->
          Alcotest.failf "request round trip failed: %s"
            (Json.error_to_string e))
    requests;
  (* op defaults to schedule, fields default to the CLI defaults *)
  match decode {|{"block": "nop"}|} with
  | Ok (Serve.Schedule { builder = Builder.Table_forward;
                         strategy = Disambiguate.Base_offset; _ }) -> ()
  | Ok _ -> Alcotest.fail "defaults wrong"
  | Error e -> Alcotest.failf "defaults: %s" (Json.error_to_string e)

(* ------------------------------------------------------------------ *)
(* handle_text vs the in-process pipeline *)

let with_serve ?(domains = 1) f =
  let t = Serve.create ~domains () in
  Fun.protect ~finally:(fun () -> Serve.destroy t) (fun () -> f t)

let schedule_payload ?(builder = Builder.Table_forward)
    ?(strategy = Disambiguate.Base_offset) text =
  Json.to_string
    (Serve.request_to_json
       (Serve.Schedule
          { text; builder; strategy; model = Latency.simple_risc }))

let program_text blocks =
  let buf = Buffer.create 1024 in
  List.iter
    (fun b ->
      Buffer.add_string buf
        (Printf.sprintf "B%d:\n%s" b.Block.id
           (Parser.print_program (Block.to_list b))))
    blocks;
  Buffer.contents buf

let get_exn ~what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Json.error_to_string e)

let response_json serve payload =
  let response = Serve.handle_text serve payload in
  match Json.of_string response with
  | Ok json -> (response, json)
  | Error msg -> Alcotest.failf "response does not parse: %s" msg

let check_status json expected =
  match Json.member "status" json with
  | Some (Json.String s) when s = expected -> ()
  | other ->
      Alcotest.failf "status: expected %S, found %s" expected
        (match other with
        | Some v -> Json.to_string v
        | None -> "nothing")

let check_error_kind json expected =
  check_status json "error";
  match Json.member "error" json with
  | Some err -> (
      match Json.member "kind" err with
      | Some (Json.String k) when k = Serve.error_kind_to_string expected -> ()
      | other ->
          Alcotest.failf "error kind: expected %S, found %s"
            (Serve.error_kind_to_string expected)
            (match other with
            | Some v -> Json.to_string v
            | None -> "nothing"))
  | None -> Alcotest.fail "error response without an error object"

let test_differential () =
  let text =
    program_text
      (let rng = Prng.create 0x5e12ef in
       List.init 6 (fun i ->
           Gen.block rng ~params:Gen.fp_loops ~id:i
             ~size:(8 + Prng.int rng 20) ()))
  in
  let combos =
    [ (Builder.Table_forward, Disambiguate.Base_offset);
      (Builder.N2_forward, Disambiguate.Symbolic);
      (Builder.Table_backward, Disambiguate.Serialize_all) ]
  in
  with_serve (fun serve ->
      List.iter
        (fun (builder, strategy) ->
          let _, json =
            response_json serve (schedule_payload ~builder ~strategy text)
          in
          check_status json "ok";
          (* reference: the same pipeline, in process *)
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
          let path = [] in
          let results =
            get_exn ~what:"results"
              (Json.get_list ~path "results"
                 (fun ~path json -> Ok (path, json))
                 json)
          in
          if List.length results <> List.length expected then
            Alcotest.failf "%d results, expected %d" (List.length results)
              (List.length expected);
          List.iter2
            (fun (path, rj) (e : Batch.result) ->
              let geti k = get_exn ~what:k (Json.get_int ~path k rj) in
              Alcotest.(check int) "block_id" e.Batch.block_id
                (geti "block_id");
              Alcotest.(check int) "insns" e.Batch.insns (geti "insns");
              Alcotest.(check int) "arcs" e.Batch.dag_arcs (geti "arcs");
              Alcotest.(check int) "original_cycles" e.Batch.original_cycles
                (geti "original_cycles");
              Alcotest.(check int) "cycles" e.Batch.cycles (geti "cycles");
              Alcotest.(check int) "stalls" e.Batch.stalls (geti "stalls");
              Alcotest.(check string) "fingerprint"
                (Printf.sprintf "%016Lx" e.Batch.fingerprint)
                (get_exn ~what:"fingerprint"
                   (Json.get_string ~path "fingerprint" rj));
              let order =
                get_exn ~what:"order"
                  (Json.get_list ~path "order"
                     (fun ~path json ->
                       match json with
                       | Json.Int i -> Ok i
                       | other ->
                           Json.decode_error ~path
                             (Printf.sprintf "expected an int, found %s"
                                (Json.type_name other)))
                     rj)
              in
              Alcotest.(check (list int)) "order"
                (Array.to_list e.Batch.order) order)
            results expected;
          (* the request fingerprint is the advertised fold *)
          let combined =
            List.fold_left
              (fun h (e : Batch.result) ->
                Serve.fold_fingerprint h e.Batch.fingerprint)
              Serve.fingerprint_seed expected
          in
          Alcotest.(check string) "request fingerprint"
            (Printf.sprintf "%016Lx" combined)
            (get_exn ~what:"fingerprint"
               (Json.get_string ~path:[] "fingerprint" json));
          (* the embedded report matches, with timing zeroed *)
          let rj =
            match Json.member "report" json with
            | Some r -> r
            | None -> Alcotest.fail "response has no report"
          in
          let report =
            get_exn ~what:"report" (Batch.report_of_json rj)
          in
          let expected_report =
            { (Batch.report ~domains:1 ~wall_s:0.0 expected) with
              Batch.block_s_mean = 0.0;
              block_s_max = 0.0 }
          in
          if not (Batch.report_equal report expected_report) then
            Alcotest.fail "embedded report differs from Batch.report")
        combos)

(* the response fingerprint stays the FNV-1a fold it always was, so
   response bytes do not depend on the cache's address function; a fold
   allocates only its result *)
let test_fingerprint_fold () =
  Alcotest.(check string) "fold of 0 from the seed" "a8c7f832281a39c5"
    (Printf.sprintf "%016Lx" (Serve.fold_fingerprint Serve.fingerprint_seed 0L));
  let w0 = Gc.minor_words () in
  ignore
    (Sys.opaque_identity (Serve.fold_fingerprint Serve.fingerprint_seed 42L));
  let w = Gc.minor_words () -. w0 in
  if w > 16.0 then Alcotest.failf "fold_fingerprint allocated %.0f words" w

let grep_text = lazy (program_text (Profiles.generate Profiles.grep))

let words f =
  let w0 = Gc.minor_words () in
  ignore (Sys.opaque_identity (f ()));
  Gc.minor_words () -. w0

(* [~domains:1] owns no pool: a schedule miss runs the pipeline on the
   calling domain, whose minor words then cover at least the bare
   pipeline's.  With a worker domain the calling domain misses them:
   it allocates at least half the bare pipeline's words less.  The
   second check compares the two misses with each other, not a miss
   with the pipeline, because serve's own per-request work (decode,
   encode) is on the calling domain either way and may outweigh a
   lean pipeline. *)
let test_one_domain_runs_here () =
  let text = Lazy.force grep_text in
  let blocks = Cfg_builder.partition (Parser.parse_program text) in
  let config =
    { Batch.section6 with
      Batch.algorithm = Builder.Table_forward;
      opts =
        { Opts.default with
          Opts.model = Latency.simple_risc;
          strategy = Disambiguate.Base_offset } }
  in
  let bare = words (fun () -> Batch.run_here config blocks) in
  let miss domains =
    with_serve ~domains (fun serve ->
        words (fun () -> Serve.handle_text serve (schedule_payload text)))
  in
  let here = miss 1 and pooled = miss 2 in
  if here < bare then
    Alcotest.failf "one domain: %.0f minor words on the calling domain, \
                    the bare pipeline %.0f" here bare;
  if here -. pooled < bare /. 2.0 then
    Alcotest.failf "two domains: %.0f minor words on the calling domain, \
                    one domain %.0f, the bare pipeline %.0f" pooled here bare

(* the report's "domains" is the only byte a pool changes *)
let test_domains_identical () =
  let texts =
    [ Lazy.force grep_text;
      "add %r1, %r2, %r3\nsub %r3, %r1, %r4\nld [%r4], %r5\n"; "" ]
  in
  let combos =
    [ (Builder.Table_forward, Disambiguate.Base_offset);
      (Builder.N2_backward, Disambiguate.Symbolic) ]
  in
  let responses domains =
    with_serve ~domains (fun serve ->
        List.concat_map
          (fun text ->
            List.map
              (fun (builder, strategy) ->
                Serve.handle_text serve
                  (schedule_payload ~builder ~strategy text))
              combos)
          texts)
  in
  let one = responses 1 and two = responses 2 in
  (* [s] with its one occurrence of [sub] replaced by [by] *)
  let replace_once ~sub ~by s =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length s then Alcotest.failf "no %S in %S" sub s
      else if String.sub s i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
  in
  List.iter2
    (fun a b ->
      (match Json.of_string a with
      | Ok json -> check_status json "ok"
      | Error msg -> Alcotest.failf "response does not parse: %s" msg);
      Alcotest.(check string) "-j 2 response with its domains set to 1" a
        (replace_once ~sub:"\"domains\": 2," ~by:"\"domains\": 1," b))
    one two

let test_warm_equals_cold () =
  let text = "add %r1, %r2, %r3\nsub %r3, %r1, %r4\nld [%r4], %r5\n" in
  with_serve (fun serve ->
      let payload = schedule_payload text in
      let cold, cold_json = response_json serve payload in
      check_status cold_json "ok";
      let warm, _ = response_json serve payload in
      Alcotest.(check string) "warm response byte-identical" cold warm;
      let s = Cache.stats (Serve.cache serve) in
      Alcotest.(check int) "one miss (cold)" 1 s.Cache.misses;
      Alcotest.(check int) "one hit (warm)" 1 s.Cache.hits;
      Alcotest.(check int) "one entry" 1 s.Cache.entries;
      (* a different config is a different cache line, even when the
         schedules (and so the response bytes) happen to coincide *)
      let other =
        schedule_payload ~builder:Builder.N2_forward text
      in
      let _, other_json = response_json serve other in
      check_status other_json "ok";
      let s = Cache.stats (Serve.cache serve) in
      Alcotest.(check int) "second miss" 2 s.Cache.misses;
      Alcotest.(check int) "two entries" 2 s.Cache.entries)

(* The cache is addressed by the request bytes: the same request
   spelled differently misses, answers the canonical response byte for
   byte, and is then a hit under either spelling. *)
let test_spellings () =
  let text = "add %r1, %r2, %r3 ! r3 = r1/r2\nsub %r3, %r1, %r4\n" in
  let canonical = schedule_payload text in
  let str s = Json.to_string (Json.String s) in
  let spellings =
    [ ( "reordered fields",
        Json.to_string
          (Json.Obj
             [ ("model", Json.String Latency.simple_risc.Latency.name);
               ("strategy", Json.String "base-offset");
               ("builder", Json.String "table-forward");
               ("block", Json.String text);
               ("op", Json.String "schedule") ]) );
      ( "extra whitespace",
        Printf.sprintf
          "{\n  \"op\" : \"schedule\" ,\n  \"block\" :%s,\"builder\":%s,\t\
           \"strategy\": %s , \"model\": %s }\n"
          (str text) (str "table-forward") (str "base-offset")
          (str Latency.simple_risc.Latency.name) );
      ( "escaped solidus",
        String.concat "\\/" (String.split_on_char '/' canonical) ) ]
  in
  with_serve (fun serve ->
      let cold, json = response_json serve canonical in
      check_status json "ok";
      let counts () =
        let s = Cache.stats (Serve.cache serve) in
        (s.Cache.hits, s.Cache.misses)
      in
      List.iteri
        (fun i (what, payload) ->
          if String.equal payload canonical then
            Alcotest.failf "%s: the payload is the canonical one" what;
          let hits, misses = counts () in
          Alcotest.(check string) (what ^ ": first is byte-identical") cold
            (Serve.handle_text serve payload);
          Alcotest.(check (pair int int)) (what ^ ": first is a miss")
            (hits, misses + 1) (counts ());
          Alcotest.(check string) (what ^ ": repeat is byte-identical") cold
            (Serve.handle_text serve payload);
          Alcotest.(check string) "canonical again" cold
            (Serve.handle_text serve canonical);
          Alcotest.(check (pair int int)) (what ^ ": both repeats hit")
            (hits + 2, misses + 1) (counts ());
          Alcotest.(check int) (what ^ ": one entry per spelling") (i + 2)
            (Cache.stats (Serve.cache serve)).Cache.entries)
        spellings)

(* Counters after a scripted sequence of every kind of request, equal to
   those of the text-addressed cache this one replaced (hard-coded from
   it).  The injected failure comes first because the budget is spent
   by the first schedule pipelines. *)
let test_counter_parity () =
  Unix.putenv Serve.fail_env "raise:1";
  let serve =
    Fun.protect ~finally:(fun () -> Unix.putenv Serve.fail_env "") (fun () ->
        Serve.create ~max_entries:1 ~max_bytes:4096 ())
  in
  Fun.protect ~finally:(fun () -> Serve.destroy serve) @@ fun () ->
  let text = "add %r1, %r2, %r3\nsub %r3, %r1, %r4\n" in
  let p = schedule_payload text in
  let big =
    schedule_payload
      (String.concat ""
         (List.init 300 (fun i ->
              Printf.sprintf "add %%r%d, %%r2, %%r3\n" (1 + (i mod 20)))))
  in
  let ok = `Ok and err k = `Error k in
  (* request, expected outcome, (hits, misses, evictions, rejects,
     entries) after it *)
  let script =
    [ ("injected failure", p, err Serve.Internal, (0, 1, 0, 0, 0));
      ("schedule miss", p, ok, (0, 2, 0, 0, 1));
      ("schedule hit", p, ok, (1, 2, 0, 0, 1));
      ("ping", {|{"op": "ping"}|}, ok, (1, 2, 0, 0, 1));
      ("stats", {|{"op": "stats"}|}, ok, (1, 2, 0, 0, 1));
      ("metrics", {|{"op": "metrics"}|}, ok, (1, 2, 0, 0, 1));
      ("bad JSON", "{not json", err Serve.Parse, (1, 2, 0, 0, 1));
      ("bad request", {|{"op": "launch"}|}, err Serve.Bad_request,
       (1, 2, 0, 0, 1));
      ("block parse", schedule_payload "not assembly !!!",
       err Serve.Block_parse, (1, 3, 0, 0, 1));
      ("other builder", schedule_payload ~builder:Builder.N2_forward text, ok,
       (1, 4, 1, 0, 1));
      ("over the byte bound", big, ok, (1, 5, 1, 1, 1));
      ("first request again", p, ok, (1, 6, 2, 1, 1)) ]
  in
  List.iter
    (fun (what, payload, outcome, expected) ->
      let _, json = response_json serve payload in
      (match outcome with
      | `Ok -> check_status json "ok"
      | `Error kind -> check_error_kind json kind);
      let s = Cache.stats (Serve.cache serve) in
      let t5 = Alcotest.(pair int (pair int (pair int (pair int int)))) in
      let h, m, e, r, n = expected in
      Alcotest.check t5 (what ^ ": hits, misses, evictions, rejects, entries")
        (h, (m, (e, (r, n))))
        (s.Cache.hits, (s.Cache.misses, (s.Cache.evictions,
                                         (s.Cache.rejects, s.Cache.entries)))))
    script

(* A hit decodes nothing: on a 1 KB and on a 1 MB request it allocates a
   few minor words, independent of size, and nothing on the major heap. *)
let test_hit_allocation () =
  let program = "add %r1, %r2, %r3\nsub %r3, %r1, %r4\nld [%r4], %r5\n" in
  let padded size =
    let payload pad = schedule_payload (program ^ "! " ^ String.make pad 'x' ^ "\n") in
    payload (size - String.length (payload 0))
  in
  with_serve (fun serve ->
      List.iter
        (fun size ->
          let payload = padded size in
          Alcotest.(check int) "payload size" size (String.length payload);
          let cold = Serve.handle_text serve payload in
          ignore (Serve.handle_text serve payload);
          Gc.minor ();
          let q0 = Gc.quick_stat () in
          let m0 = Gc.minor_words () in
          let warm = Serve.handle_text serve payload in
          let minor = Gc.minor_words () -. m0 in
          let q1 = Gc.quick_stat () in
          let major = q1.Gc.major_words -. q0.Gc.major_words in
          Alcotest.(check string) "the cold response" cold warm;
          if minor > 200.0 || major > 0.0 then
            Alcotest.failf
              "a hit on a %d-byte request allocated %.0f minor and %.0f major \
               words (bound 200 and 0)"
              size minor major)
        [ 1024; 1 lsl 20 ];
      Alcotest.(check int) "two hits per request" 4
        (Cache.stats (Serve.cache serve)).Cache.hits)

let test_stats_op () =
  with_serve (fun serve ->
      let _, _ = response_json serve (schedule_payload "nop\n") in
      let _, json = response_json serve {|{"op": "stats"}|} in
      check_status json "ok";
      let cache =
        match Json.member "cache" json with
        | Some c -> c
        | None -> Alcotest.fail "stats without cache object"
      in
      let s = Cache.stats (Serve.cache serve) in
      let geti k = get_exn ~what:k (Json.get_int ~path:[ "cache" ] k cache) in
      Alcotest.(check int) "hits" s.Cache.hits (geti "hits");
      Alcotest.(check int) "misses" s.Cache.misses (geti "misses");
      Alcotest.(check int) "evictions" s.Cache.evictions (geti "evictions");
      Alcotest.(check int) "bytes" s.Cache.bytes (geti "bytes");
      Alcotest.(check int) "entries" s.Cache.entries (geti "entries");
      Alcotest.(check int) "served so far" 2 (Serve.served serve))

let test_error_containment () =
  with_serve (fun serve ->
      let _, j = response_json serve "{not json" in
      check_error_kind j Serve.Parse;
      let _, j = response_json serve {|{"op": "launch"}|} in
      check_error_kind j Serve.Bad_request;
      let _, j = response_json serve (schedule_payload "not assembly !!!") in
      check_error_kind j Serve.Block_parse;
      (* an unknown memory-base register is a block parse error too *)
      let _, j = response_json serve (schedule_payload "ld [%q1 + 4], %o1\n") in
      check_error_kind j Serve.Block_parse;
      (* after all that abuse, real work still succeeds *)
      let _, j = response_json serve (schedule_payload "nop\n") in
      check_status j "ok")

let test_fail_injection () =
  Unix.putenv Serve.fail_env "raise:2";
  Fun.protect ~finally:(fun () -> Unix.putenv Serve.fail_env "")
  @@ fun () ->
  with_serve (fun serve ->
      let payload = schedule_payload "nop\n" in
      let _, j = response_json serve payload in
      check_error_kind j Serve.Internal;
      let _, j = response_json serve payload in
      check_error_kind j Serve.Internal;
      (* the injection budget is spent: the pipeline works again, and
         the failed attempts must not have poisoned the cache *)
      let _, j = response_json serve payload in
      check_status j "ok";
      let s = Cache.stats (Serve.cache serve) in
      Alcotest.(check int) "failed requests never cached" 1 s.Cache.entries)

(* ------------------------------------------------------------------ *)
(* service observability: metrics op, request ids, access log *)

let test_metrics_op () =
  Window.disable ();
  Window.enable ();
  Fun.protect ~finally:(fun () -> Window.disable ())
  @@ fun () ->
  with_serve (fun serve ->
      let payload = schedule_payload "nop\n" in
      let _, _ = response_json serve payload in
      let _, _ = response_json serve payload in
      let _, json = response_json serve {|{"op": "metrics"}|} in
      check_status json "ok";
      let m =
        get_exn ~what:"metrics response" (Serve.metrics_of_json json)
      in
      Alcotest.(check int) "requests counted" 2 m.Serve.requests;
      Alcotest.(check int) "cache entries" 1 m.Serve.cache_entries;
      Alcotest.(check int) "cache hits" 1 m.Serve.cache_hits;
      Alcotest.(check int) "cache misses" 1 m.Serve.cache_misses;
      let s = Cache.stats (Serve.cache serve) in
      Alcotest.(check int) "cache bytes exact" s.Cache.bytes m.Serve.cache_bytes;
      Alcotest.(check bool) "uptime advances" true (m.Serve.uptime_s >= 0.0);
      Alcotest.(check bool) "rss read" true (m.Serve.rss_kb >= 0);
      (* every advertised window, in order, with the two requests in *)
      Alcotest.(check (list (float 1e-9)))
        "windows as advertised" Serve.report_windows
        (List.map (fun (w : Window.stats) -> w.Window.window_s)
           m.Serve.windows);
      List.iter
        (fun (w : Window.stats) ->
          Alcotest.(check int)
            (Printf.sprintf "window %gs sees both requests"
               w.Window.window_s)
            2 w.Window.count;
          Alcotest.(check int)
            (Printf.sprintf "window %gs error-free" w.Window.window_s)
            0 w.Window.errors)
        m.Serve.windows;
      (* the metrics op itself is served but was not yet counted when
         the snapshot was taken *)
      Alcotest.(check int) "served after" 3 (Serve.served serve))

let test_error_responses_carry_ids () =
  with_serve (fun serve ->
      let id_of json =
        match Json.member "error" json with
        | Some err -> (
            match Json.member "id" err with
            | Some (Json.String id) -> id
            | _ -> Alcotest.fail "error response without an id")
        | None -> Alcotest.fail "no error object"
      in
      let _, j1 = response_json serve "{not json" in
      let _, j2 = response_json serve {|{"op": "launch"}|} in
      let id1 = id_of j1 and id2 = id_of j2 in
      Alcotest.(check bool) "ids distinct" true (id1 <> id2);
      (* nonce-seq shape: one dash, decimal sequence *)
      (match String.split_on_char '-' id1 with
      | [ nonce; seq ] ->
          Alcotest.(check bool) "nonce nonempty" true (String.length nonce > 0);
          Alcotest.(check bool) "sequence decimal" true
            (match int_of_string_opt seq with Some n -> n > 0 | None -> false)
      | _ -> Alcotest.failf "id %S is not nonce-seq" id1);
      (* ok responses never carry an id (cache-payload byte identity) *)
      let ok, _ = response_json serve (schedule_payload "nop\n") in
      Alcotest.(check bool) "ok response id-free" false
        (contains ~needle:"\"id\"" ok))

let test_access_log () =
  let path = Filename.temp_file "dagsched_test_access" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let sink =
    match Log.Sink.open_ ~append:false path with
    | Ok s -> s
    | Error msg -> Alcotest.failf "sink: %s" msg
  in
  let t = Serve.create ~access:sink () in
  Fun.protect ~finally:(fun () ->
      Serve.destroy t;
      Log.Sink.close sink)
  @@ fun () ->
  let payload = schedule_payload "nop\n" in
  ignore (Serve.handle_text t payload);          (* miss *)
  ignore (Serve.handle_text t payload);          (* hit *)
  ignore (Serve.handle_text t {|{"op": "ping"}|});
  ignore (Serve.handle_text t "{not json");
  let lines =
    In_channel.with_open_bin path In_channel.input_lines
    |> List.map (fun l ->
           match Json.of_string l with
           | Ok j -> j
           | Error msg -> Alcotest.failf "access line %S: %s" l msg)
  in
  Alcotest.(check int) "one line per request" 4 (List.length lines);
  let field name j =
    match Json.member name j with
    | Some (Json.String s) -> s
    | Some v -> Json.to_string v
    | None -> Alcotest.failf "access line without %S" name
  in
  (match lines with
  | [ miss; hit; ping; bad ] ->
      Alcotest.(check string) "miss op" "schedule" (field "op" miss);
      Alcotest.(check string) "miss cache" "miss" (field "cache" miss);
      Alcotest.(check string) "miss outcome" "ok" (field "outcome" miss);
      Alcotest.(check string) "hit cache" "hit" (field "cache" hit);
      Alcotest.(check string) "ping op" "ping" (field "op" ping);
      Alcotest.(check string) "ping cache" "-" (field "cache" ping);
      Alcotest.(check string) "parse outcome" "parse" (field "outcome" bad);
      (* ids are distinct and shaped like the error-response ids *)
      let ids = List.map (field "id") lines in
      Alcotest.(check int) "ids distinct" 4
        (List.length (List.sort_uniq compare ids));
      List.iter
        (fun j ->
          let geti k =
            get_exn ~what:k (Json.get_int ~path:[] k j)
          in
          Alcotest.(check bool) "bytes_in positive" true (geti "bytes_in" > 0);
          Alcotest.(check bool) "bytes_out positive" true
            (geti "bytes_out" > 0);
          Alcotest.(check bool) "duration non-negative" true
            (geti "dur_us" >= 0))
        lines
  | _ -> Alcotest.fail "unreachable")

let test_prometheus_exposition () =
  Window.disable ();
  Window.enable ();
  Fun.protect ~finally:(fun () -> Window.disable ())
  @@ fun () ->
  with_serve (fun serve ->
      ignore (Serve.handle_text serve (schedule_payload "nop\n"));
      ignore (Serve.handle_text serve (schedule_payload "nop\n"));
      let text = Serve.prometheus_of_metrics (Serve.metrics_of serve) in
      let expect needle =
        if not (contains ~needle text) then
          Alcotest.failf "exposition lacks %S" needle
      in
      expect "# TYPE dagsched_uptime_seconds gauge";
      expect "# TYPE dagsched_requests_total counter";
      expect "dagsched_requests_total 2";
      expect "dagsched_cache_entries 1";
      expect "dagsched_cache_hits_total 1";
      expect "dagsched_cache_misses_total 1";
      expect "dagsched_cache_bytes_limit";
      expect "dagsched_serve_request_window_count{window=\"1s\"} 2";
      expect "dagsched_serve_request_window_rate{window=\"60s\"}";
      expect "window=\"10s\",quantile=\"0.99\"";
      (* families render once: the registry mirrors of the exact
         counters are dropped, not exposed twice *)
      let occurrences needle =
        let n = String.length needle in
        let rec go i acc =
          if i + n > String.length text then acc
          else if String.sub text i n = needle then go (i + 1) (acc + 1)
          else go (i + 1) acc
        in
        go 0 0
      in
      Alcotest.(check int) "cache_hits family once" 1
        (occurrences "# TYPE dagsched_cache_hits_total");
      Alcotest.(check int) "requests family once" 1
        (occurrences "# TYPE dagsched_requests_total");
      (* every line is a comment or `name{labels} value` *)
      String.split_on_char '\n' text
      |> List.iter (fun line ->
             if line <> "" && line.[0] <> '#' then
               match String.rindex_opt line ' ' with
               | None -> Alcotest.failf "unparseable line %S" line
               | Some i ->
                   let v = String.sub line (i + 1)
                             (String.length line - i - 1) in
                   if float_of_string_opt v = None then
                     Alcotest.failf "non-numeric value in %S" line))

let suite =
  [ Alcotest.test_case "frame round trips" `Quick test_frame_roundtrip;
    Alcotest.test_case "frame torn mid-payload" `Quick
      test_frame_truncated_payload;
    Alcotest.test_case "frame torn mid-header" `Quick
      test_frame_truncated_header;
    Alcotest.test_case "frame over the size cap" `Quick test_frame_oversized;
    Alcotest.test_case "frame malformed headers" `Quick test_frame_malformed;
    Alcotest.test_case "frame receive timeout" `Quick test_frame_timeout;
    Alcotest.test_case "request decode errors are typed" `Quick
      test_request_decode_errors;
    Alcotest.test_case "request codec round trips" `Quick
      test_request_roundtrip;
    Alcotest.test_case "handle_text = Batch.run (builders x strategies)"
      `Quick test_differential;
    Alcotest.test_case "warm response byte-identical to cold" `Quick
      test_warm_equals_cold;
    Alcotest.test_case "stats op reports exact counters" `Quick test_stats_op;
    Alcotest.test_case "typed errors, daemon state survives" `Quick
      test_error_containment;
    Alcotest.test_case "DAGSCHED_SERVE_FAIL answers internal errors" `Quick
      test_fail_injection;
    Alcotest.test_case "metrics op: exact snapshot + windows" `Quick
      test_metrics_op;
    Alcotest.test_case "error responses carry request ids" `Quick
      test_error_responses_carry_ids;
    Alcotest.test_case "access log: one JSONL line per request" `Quick
      test_access_log;
    Alcotest.test_case "prometheus exposition well-formed" `Quick
      test_prometheus_exposition;
    Alcotest.test_case "frame back-to-back past the staging buffer" `Quick
      test_frame_back_to_back;
    Alcotest.test_case "frame header split across reads" `Quick
      test_frame_split_header;
    Alcotest.test_case "one domain schedules on the calling domain" `Quick
      test_one_domain_runs_here;
    Alcotest.test_case "-j 1 = -j 2 apart from domains" `Quick
      test_domains_identical;
    Alcotest.test_case "frame encoding is the decimal-header format" `Quick
      test_frame_encode_format;
    Alcotest.test_case "frame write is encode, with no framed copy" `Quick
      test_frame_write_no_copy;
    Alcotest.test_case "other spellings miss, answer the same bytes" `Quick
      test_spellings;
    Alcotest.test_case "cache counters match the text-keyed cache" `Quick
      test_counter_parity;
    Alcotest.test_case "a hit allocates no decode, at any size" `Quick
      test_hit_allocation;
    Alcotest.test_case "request fingerprint fold is FNV-1a" `Quick
      test_fingerprint_fold ]
