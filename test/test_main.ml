(** Test runner: all suites. *)

let () =
  Alcotest.run "dagsched"
    [ ("util", Test_util.suite);
      ("pool-props", Test_pool_props.suite);
      ("obs", Test_obs.suite);
      ("isa", Test_isa.suite);
      ("machine", Test_machine.suite);
      ("pipeline", Test_pipeline.suite);
      ("timing", Test_timing.suite);
      ("cfg", Test_cfg.suite);
      ("dag", Test_dag.suite);
      ("dag-arena", Test_dag_arena.suite);
      ("decode", Test_decode.suite);
      ("heuristics", Test_heur.suite);
      ("scheduling", Test_sched.suite);
      ("engine", Test_engine.suite);
      ("workload", Test_workload.suite);
      ("codegen", Test_codegen.suite);
      ("interp", Test_interp.suite);
      ("extensions", Test_extensions.suite);
      ("driver", Test_driver.suite);
      ("cache-props", Test_cache_props.suite);
      ("serve-proto", Test_serve_proto.suite);
      ("tools", Test_tools.suite);
      ("behavior", Test_behavior.suite);
      ("golden", Test_golden.suite);
      ("properties", Test_props.suite) ]
