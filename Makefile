# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples docs metrics-doc csv perf-base perf-ab perf-pairs clean

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

# `make perf-base BASE=<rev>` checks <rev> out in a git worktree at
# _perf/base and builds perf.exe there and in this tree; perf-ab and
# perf-pairs run it first.
perf-base:
	@test -n "$(BASE)" || { echo "usage: make perf-ab|perf-pairs BASE=<rev> ..."; exit 2; }
	@mkdir -p _perf
	git worktree remove --force _perf/base 2>/dev/null || rm -rf _perf/base
	git worktree prune
	git worktree add --detach _perf/base $(BASE)
	cd _perf/base && dune build --root . ./perf/perf.exe
	dune build ./perf/perf.exe

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
