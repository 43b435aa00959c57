let () =
  Alcotest.run "cnk-repro"
    [
      ("engine", Test_engine.suite);
      ("hw", Test_hw.suite);
      ("cio", Test_cio.suite);
      ("cio-reliable", Test_cio_reliable.suite);
      ("cnk", Test_cnk.suite);
      ("fwk", Test_fwk.suite);
      ("msg", Test_msg.suite);
      ("dma", Test_dma.suite);
      ("apps", Test_apps.suite);
      ("experiments", Test_experiments.suite);
      ("affinity", Test_affinity.suite);
      ("extensions", Test_extensions.suite);
      ("runtime", Test_runtime.suite);
      ("properties", Test_properties.suite);
      ("control", Test_control.suite);
      ("obs", Test_obs.suite);
      ("health", Test_health.suite);
      ("causal", Test_causal.suite);
      ("obs-model", Test_obs_model.suite);
      ("resilience", Test_resilience.suite);
      ("heal", Test_heal.suite);
      ("sched", Test_sched.suite);
      ("lifecycle", Test_lifecycle.suite);
      ("snap", Test_snap.suite);
    ]
