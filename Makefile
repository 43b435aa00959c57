# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples docs metrics-doc csv trace-smoke resilience-smoke attribute-smoke cio-chaos-smoke msg-smoke causal-smoke snap-smoke health-smoke heal-smoke sched-smoke perf-base perf-ab perf-pairs smoke-diff clean

all: build

build:
	dune build @all

test:
	dune runtest --force

bench:
	dune exec bench/main.exe

examples:
	for e in quickstart io_offload openmp_phase persistent_restart \
	         python_dynlink space_sharing bringup_session; do \
	  echo "== $$e"; dune exec examples/$$e.exe; done

docs:
	dune build @doc

csv:
	dune exec bin/export_data.exe -- --out results

# Regenerate doc/METRICS.md from the metric schema; a test fails when the
# committed file and the schema disagree.
metrics-doc:
	dune build ./bin/metrics_doc.exe
	./_build/default/bin/metrics_doc.exe > doc/METRICS.md

# Tiny instrumented FWQ run; obs_tool validates the emitted JSON against
# its in-repo RFC 8259 checker and fails if any span category is missing.
trace-smoke:
	dune exec bin/obs_tool.exe -- --app fwq --samples 200 \
	  --chrome-trace /tmp/obs_smoke.json --metrics-csv /tmp/obs_smoke.csv
	@grep -q '"traceEvents"' /tmp/obs_smoke.json
	@echo "trace-smoke OK"

# Seeded fault-injection sweep, run twice: the tool itself checks that
# in-place parity recovery beats rollback wherever a fault forced one,
# and the two runs must print bit-identical digest lines.
resilience-smoke:
	dune exec bin/resilience_tool.exe -- --seed 1 --csv /tmp/resilience_sweep.csv \
	  | grep digest > /tmp/resilience_smoke_a.txt
	dune exec bin/resilience_tool.exe -- --seed 1 \
	  | grep digest > /tmp/resilience_smoke_b.txt
	@cmp /tmp/resilience_smoke_a.txt /tmp/resilience_smoke_b.txt
	@echo "resilience-smoke OK"

# CIO chaos sweep, run twice: the tool itself checks that every faulty
# cell's app-visible file bytes hash identically to the fault-free run's
# and that no request surfaced EIO; the two runs must print bit-identical
# digest lines.
cio-chaos-smoke:
	dune exec bin/cio_chaos_tool.exe -- --seed 1 --csv /tmp/cio_chaos_sweep.csv \
	  | grep digest > /tmp/cio_chaos_smoke_a.txt
	dune exec bin/cio_chaos_tool.exe -- --seed 1 \
	  | grep digest > /tmp/cio_chaos_smoke_b.txt
	@cmp /tmp/cio_chaos_smoke_a.txt /tmp/cio_chaos_smoke_b.txt
	@echo "cio-chaos-smoke OK"

# Table I messaging sweep over the DMA engine, run twice: the tool
# itself asserts CNK's user-space path beats the FWK's kernel-mediated
# path at every size and that the 1 kHz tick widens the gap; the two
# runs must print bit-identical sweep-digest lines.
msg-smoke:
	dune exec bin/msg_tool.exe -- --json /tmp/BENCH_msg.json \
	  | grep digest > /tmp/msg_smoke_a.txt
	dune exec bin/msg_tool.exe -- \
	  | grep digest > /tmp/msg_smoke_b.txt
	@cmp /tmp/msg_smoke_a.txt /tmp/msg_smoke_b.txt
	@echo "msg-smoke OK"

# Noise-attribution run, twice: the tool asserts FWK's tick+daemon share
# beats CNK's and that every ledger conserves cycles; the two runs must
# print bit-identical acct/UPC digest lines.
attribute-smoke:
	dune exec bin/noise_tool.exe -- attribute --samples 500 \
	  --folded-prefix /tmp/attr_smoke \
	  | grep digest > /tmp/attribute_smoke_a.txt
	dune exec bin/noise_tool.exe -- attribute --samples 500 \
	  --folded-prefix /tmp/attr_smoke \
	  | grep digest > /tmp/attribute_smoke_b.txt
	@cmp /tmp/attribute_smoke_a.txt /tmp/attribute_smoke_b.txt
	@test -s /tmp/attr_smoke_cnk.folded && test -s /tmp/attr_smoke_fwk.folded
	@echo "attribute-smoke OK"

# Causal critical-path run on the seeded 32-node allreduce, twice: the
# tool itself asserts the FWK critical path blames a strictly larger
# tick+daemon share than CNK's and that attribution tiles the path
# exactly; the two runs must print bit-identical causal digest lines.
causal-smoke:
	dune exec bin/trace_tool.exe -- critical-path --nodes 32 \
	  --chrome-trace /tmp/causal_smoke_flow.json \
	  | grep digest > /tmp/causal_smoke_a.txt
	dune exec bin/trace_tool.exe -- critical-path --nodes 32 \
	  | grep digest > /tmp/causal_smoke_b.txt
	@cmp /tmp/causal_smoke_a.txt /tmp/causal_smoke_b.txt
	@grep -q '"ph":"s"' /tmp/causal_smoke_flow.json
	@echo "causal-smoke OK"

# Snapshot/restore selftest, run twice: the tool itself proves the
# restore-continuation invariant on both kernels (snapshot mid-run,
# replay-restore with byte verification, continue, digests must equal
# the uninterrupted run's) and bisects a seeded glitch on each scenario
# down to its exact event; the two runs' output must be bit-identical.
snap-smoke:
	dune exec bin/bisect_tool.exe -- --selftest > /tmp/snap_smoke_a.txt
	dune exec bin/bisect_tool.exe -- --selftest > /tmp/snap_smoke_b.txt
	@cmp /tmp/snap_smoke_a.txt /tmp/snap_smoke_b.txt
	@grep -q "restore cnk_io" /tmp/snap_smoke_a.txt
	@grep -q "restore fwk_noise" /tmp/snap_smoke_a.txt
	@grep -q "selftest ok" /tmp/snap_smoke_a.txt
	@echo "snap-smoke OK"

# Seeded ciod-crash chaos run through the machine health service, twice:
# the tool itself asserts alerts fired, Recovery consumed them, and the
# postmortem bundle is valid JSON naming the failing io_node and the
# implicated series; the two runs must print bit-identical digest lines
# and byte-identical postmortem bundles.
health-smoke:
	dune exec bin/health_tool.exe -- --seed 1 --postmortem /tmp/health_smoke_a.json \
	  | grep digest > /tmp/health_smoke_a.txt
	dune exec bin/health_tool.exe -- --seed 1 --postmortem /tmp/health_smoke_b.json --quiet \
	  | grep digest > /tmp/health_smoke_b.txt
	@cmp /tmp/health_smoke_a.txt /tmp/health_smoke_b.txt
	@cmp /tmp/health_smoke_a.json /tmp/health_smoke_b.json
	@grep -q '"schema":"bg-health-postmortem-v1"' /tmp/health_smoke_a.json
	@grep -q 'io=1' /tmp/health_smoke_a.json
	@echo "health-smoke OK"

# Compound-fault chaos run through the self-healing policy engine, run
# twice: the tool itself asserts every job's state matches its
# fault-free twin byte for byte, spares/drain/rebuild/degradation all
# fired, and a submit offered while Critical was refused; the two
# same-seed runs must print bit-identical digest lines (policy decision
# timeline, sim trace, scheduler state).
heal-smoke:
	dune exec bin/heal_tool.exe -- --seed 1 --timeline-csv /tmp/heal_timeline.csv --quiet \
	  | grep digest > /tmp/heal_smoke_a.txt
	dune exec bin/heal_tool.exe -- --seed 1 --quiet \
	  | grep digest > /tmp/heal_smoke_b.txt
	@cmp /tmp/heal_smoke_a.txt /tmp/heal_smoke_b.txt
	@grep -q 'pset_rebuilt' /tmp/heal_timeline.csv
	@grep -q 'admission closed' /tmp/heal_timeline.csv
	@echo "heal-smoke OK"

# Multi-tenant policy sweep (FCFS / EASY / gang / fair-share over
# torus-aware placement, faults injected mid-queue), run twice: the
# tool itself asserts arrival conservation, the utilization and
# slowdown shape claims, gang co-scheduling, backfill shedding under
# degradation, and a same-seed FCFS twin; the two runs must print
# bit-identical per-policy digest lines (SLO report, sim trace,
# scheduler state).
sched-smoke:
	dune exec bin/sched_tool.exe -- --seed 1 --slo-csv /tmp/sched_slo_smoke.csv --quiet \
	  | grep digest > /tmp/sched_smoke_a.txt
	dune exec bin/sched_tool.exe -- --seed 1 --quiet \
	  | grep digest > /tmp/sched_smoke_b.txt
	@cmp /tmp/sched_smoke_a.txt /tmp/sched_smoke_b.txt
	@grep -q '^fair,' /tmp/sched_slo_smoke.csv
	@echo "sched-smoke OK"

# `make perf-base BASE=<rev>` checks <rev> out in a git worktree at
# _perf/base and builds perf.exe, bin/ and bench/main.exe there and in
# this tree; perf-ab, perf-pairs and smoke-diff run it first.
perf-base:
	@test -n "$(BASE)" || { echo "usage: make perf-ab|perf-pairs BASE=<rev> ..."; exit 2; }
	@mkdir -p _perf
	git worktree remove --force _perf/base 2>/dev/null || rm -rf _perf/base
	git worktree prune
	git worktree add --detach _perf/base $(BASE)
	cd _perf/base && dune build --root . ./perf/perf.exe @bin/default ./bench/main.exe
	dune build ./perf/perf.exe @bin/default ./bench/main.exe

# `make smoke-diff BASE=<rev>` checks that this tree simulates exactly
# what <rev> does: it runs the ten *-smoke tools with the arguments of
# each smoke's first run, plus `sched_tool --seed 1|2|3 --quiet` and the
# twenty `bench/main.exe` experiments whose output is a pure function of
# the seed (thirteen of them drive the CNK and FWK kernels directly), on
# the _perf/base build and on this tree. Each run's stdout and exit
# status go to _perf/smoke-base/<name>.out and _perf/smoke-head/<name>.out
# (the files a tool writes land beside them). It prints one same/DIFF line
# per run and fails if any run differs.
smoke-diff: perf-base
	@rm -rf _perf/smoke-base _perf/smoke-head
	@mkdir -p _perf/smoke-base _perf/smoke-head
	@printf '%s\n' \
	  'trace bin/obs_tool --app fwq --samples 200 --chrome-trace obs_smoke.json --metrics-csv obs_smoke.csv' \
	  'resilience bin/resilience_tool --seed 1 --csv resilience_sweep.csv' \
	  'cio_chaos bin/cio_chaos_tool --seed 1 --csv cio_chaos_sweep.csv' \
	  'msg bin/msg_tool --json BENCH_msg.json' \
	  'attribute bin/noise_tool attribute --samples 500 --folded-prefix attr_smoke' \
	  'causal bin/trace_tool critical-path --nodes 32 --chrome-trace causal_smoke_flow.json' \
	  'snap bin/bisect_tool --selftest' \
	  'health bin/health_tool --seed 1 --postmortem health_smoke.json' \
	  'heal bin/heal_tool --seed 1 --timeline-csv heal_timeline.csv --quiet' \
	  'sched bin/sched_tool --seed 1 --slo-csv sched_slo_smoke.csv --quiet' \
	  'sched_seed1 bin/sched_tool --seed 1 --quiet' \
	  'sched_seed2 bin/sched_tool --seed 2 --quiet' \
	  'sched_seed3 bin/sched_tool --seed 3 --quiet' \
	  'bench_latency bench/main latency' \
	  'bench_bandwidth bench/main bandwidth' \
	  'bench_collectives bench/main collectives' \
	  'bench_halo bench/main halo' \
	  'bench_cg bench/main cg' \
	  'bench_congestion bench/main congestion' \
	  'bench_io-offload bench/main io-offload' \
	  'bench_fwq bench/main fwq' \
	  'bench_stability bench/main stability' \
	  'bench_guard bench/main guard' \
	  'bench_capability bench/main capability' \
	  'bench_bringup bench/main bringup' \
	  'bench_mapping bench/main mapping' \
	  'bench_tlb bench/main tlb' \
	  'bench_sched bench/main sched' \
	  'bench_affinity bench/main affinity' \
	  'bench_cache bench/main cache' \
	  'bench_l1-parity bench/main l1-parity' \
	  'bench_ftq bench/main ftq' \
	  'bench_recovery bench/main recovery' \
	| { status=0; while read -r name tool args; do \
	  for side in base head; do \
	    if [ $$side = base ]; then root=$(CURDIR)/_perf/base/_build/default; \
	    else root=$(CURDIR)/_build/default; fi; \
	    (cd _perf/smoke-$$side && { $$root/$$tool.exe $$args < /dev/null; echo "exit $$?"; } > $$name.out); \
	  done; \
	  if cmp -s _perf/smoke-base/$$name.out _perf/smoke-head/$$name.out; then \
	    echo "same  $$name"; else echo "DIFF  $$name"; status=1; fi; \
	done; exit $$status; }

# Before/after host-performance pair against another revision:
# `make perf-ab BASE=<rev>` runs `perf run` once on the _perf/base build
# and once on this tree and prints `perf compare` of the two reports
# (base first). Which side runs first alternates from one invocation to
# the next, so slow drift in host speed does not always favour the same
# side. Reports: _perf/ab-base.json, _perf/ab-head.json. Fails, as
# `perf compare` does, when a metric is marked `regressed`.
perf-ab: perf-base
	@if [ "$$(cat _perf/ab-first 2>/dev/null)" = base ]; then \
	  order="head base"; echo head > _perf/ab-first; \
	else \
	  order="base head"; echo base > _perf/ab-first; \
	fi; \
	for side in $$order; do \
	  echo "== perf run: $$side"; \
	  if [ $$side = base ]; then \
	    (cd _perf/base && ./_build/default/perf/perf.exe run \
	      --out "$(CURDIR)/_perf/ab-base.json") || exit 1; \
	  else \
	    ./_build/default/perf/perf.exe run --out _perf/ab-head.json || exit 1; \
	  fi; \
	done
	./_build/default/perf/perf.exe compare _perf/ab-base.json _perf/ab-head.json

# `make perf-pairs BASE=<rev> W=<workload> [N=10] [SEED=1]` runs the
# benchmark's single-workload form (`perf.exe --workload W --seed s
# --seconds 25 --trace 0`, the benchmark's run length) on the _perf/base
# build and on this tree, one pair per seed s = SEED .. SEED+N-1,
# alternating which side runs first. It prints each pair's wall_s, how
# many pairs this tree won (lower wall_s; ties count for neither side),
# and each side's median and quartiles. Raw lines: _perf/pairs.txt.
N ?= 10
SEED ?= 1
perf-pairs: perf-base
	@test -n "$(W)" || { echo "usage: make perf-pairs BASE=<rev> W=<workload> [N=10] [SEED=1]"; exit 2; }
	@wall() { tail -n 1 | sed -n 's/.*"wall_s":{"value":\([^,}]*\).*/\1/p'; }; \
	run() { "$$1" --workload $(W) --seed $$2 --seconds 25 --trace 0 | wall; }; \
	base=$(CURDIR)/_perf/base/_build/default/perf/perf.exe; \
	head=$(CURDIR)/_build/default/perf/perf.exe; \
	: > _perf/pairs.txt; \
	i=0; while [ $$i -lt $(N) ]; do \
	  s=$$(( $(SEED) + i )); \
	  if [ $$(( i % 2 )) -eq 0 ]; then \
	    b=$$(cd _perf/base && run $$base $$s); h=$$(run $$head $$s); \
	  else \
	    h=$$(run $$head $$s); b=$$(cd _perf/base && run $$base $$s); \
	  fi; \
	  test -n "$$b" -a -n "$$h" || { echo "seed $$s: no wall_s"; exit 1; }; \
	  echo "$$s $$b $$h" | tee -a _perf/pairs.txt; \
	  i=$$(( i + 1 )); \
	done
	@awk 'function q(a, n, p,  x, k) { x = (n - 1) * p; k = int(x); \
	        return a[k] + (x - k) * (k + 1 < n ? a[k + 1] - a[k] : 0) } \
	      function sorted(a, n,  i, j, v) { for (i = 1; i < n; i++) { v = a[i]; \
	        for (j = i - 1; j >= 0 && a[j] > v; j--) a[j + 1] = a[j]; a[j + 1] = v } } \
	      BEGIN { n = w = l = 0 } \
	      { b[n] = $$2; h[n] = $$3; n++; if ($$3 < $$2) w++; else if ($$3 > $$2) l++ } \
	      END { sorted(b, n); sorted(h, n); \
	        printf "$(W) wall_s over %d pairs: this tree won %d, lost %d\n", n, w, l; \
	        printf "  base %s: median %.4f [q1 %.4f, q3 %.4f] s\n", "$(BASE)", q(b, n, .5), q(b, n, .25), q(b, n, .75); \
	        printf "  head:  median %.4f [q1 %.4f, q3 %.4f] s\n", q(h, n, .5), q(h, n, .25), q(h, n, .75); \
	        printf "  median change %+.1f%%\n", 100 * (q(h, n, .5) / q(b, n, .5) - 1) }' _perf/pairs.txt

clean:
	dune clean
