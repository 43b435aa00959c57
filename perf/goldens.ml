(* Golden digests for seed 1: (workload, output, digest).
   Regenerate: dune exec perf/perf.exe -- goldens > perf/goldens.ml *)

let table =
  [
    ("fwq_noise", "sim.cnk", "3de0212f55044698");
    ("fwq_noise", "sim.fwk", "d287aa3d80a1ae38");
    ("fwq_noise", "fwq.samples", "34029fa30a88ae9c");
    ("cnk_io", "sim", "500ce53db87687be");
    ("cnk_io", "readback", "0da831d1b5353459");
    ("cnk_io", "spans", "9a103bf74eb5c1c9");
    ("cnk_io", "causal", "70a1c14deb0501f7");
    ("halo_dma", "sim", "a513423462bca5ba");
    ("halo_dma", "checksum", "779239");
    ("sched_mix", "fcfs.slo", "ac87c7b10e8e735f");
    ("sched_mix", "fcfs.sim", "e4c138b391330462");
    ("sched_mix", "fcfs.sched", "167e3211c6e02e48");
    ("sched_mix", "easy.slo", "896bc62320ac9675");
    ("sched_mix", "easy.sim", "938471dec4281d22");
    ("sched_mix", "easy.sched", "fcacc2093e31aa46");
    ("sched_mix", "gang.slo", "2ccd49090b847ae0");
    ("sched_mix", "gang.sim", "e13491c7eee66b31");
    ("sched_mix", "gang.sched", "cc5de4b19519f9ff");
    ("sched_mix", "fair.slo", "1a5b7796456e06bb");
    ("sched_mix", "fair.sim", "0fca3ecc72491cea");
    ("sched_mix", "fair.sched", "e1bc8a9ce627dad6");
  ]
