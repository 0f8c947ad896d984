# Convenience wrappers around dune.  `make check` is the one-shot gate:
# full build, the whole test suite, and the sub-second bench smoke slice
# that exercises the JSON trajectory emitter.

DUNE ?= dune

.PHONY: all build test bench-smoke bench-guard analyze-smoke net-smoke crash-smoke hub-smoke hub-crash-smoke tournament-smoke check fmt fmt-check clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

bench-smoke:
	$(DUNE) exec bench/main.exe -- smoke --json _build/bench_smoke.json

# throughput floors: the guard fails (exit 1) when L=128 sliding-window
# AGDP inserts drop below 5000/s on the int lattice or 300/s on the
# exact path, when in-place decode of a 64-event frame drops below 30k
# frames/s, or when a 256-client loopback swarm through one hub misses
# convergence or drops below 3000 frames/s, catching regressions of
# ~2.5x or worse; the JSON lands in _build for the CI artifact upload
bench-guard:
	$(DUNE) exec bench/main.exe -- guard --json _build/bench_guard.json

# round-trip the trace loop: a profiled simulator run writes a JSONL
# trace, then `clocksync analyze` re-parses every line, recomputes the
# aggregates (which must match the trailer byte for byte) and replays
# the events through the protocol-conformance monitor; its hot-path
# profile must list the agdp_insert and agdp_kill spans
analyze-smoke: build
	$(DUNE) exec bin/clocksync.exe -- run -n 4 -d 10 --chaos 1 --algos all \
	  --trace _build/analyze_smoke.jsonl --prof >/dev/null
	$(DUNE) exec bin/clocksync.exe -- analyze _build/analyze_smoke.jsonl \
	  --require-estimates --conform >_build/analyze_smoke.txt
	@cat _build/analyze_smoke.txt
	@for op in agdp_insert agdp_kill; do \
	  grep -q "^$$op " _build/analyze_smoke.txt || \
	    { echo "analyze-smoke: no $$op row in the hot-path profile"; exit 1; }; \
	done

# 3-process localhost UDP session with injected loss; asserts every
# printed peer interval contained the reference node's true time and
# that all three processes shut down cleanly (see scripts/net_smoke.sh)
net-smoke: build
	sh scripts/net_smoke.sh

# kill -9 a checkpointed UDP peer mid-session, restart it on the same
# checkpoint directory, and assert it recovers with every post-recovery
# interval still containing true time (see scripts/crash_smoke.sh)
crash-smoke: build
	sh scripts/crash_smoke.sh

# one hub process serving a 50-client swarm through a single UDP socket
# with injected loss; every client must establish, converge, and stay
# sound, and the hub's trace (per-cohort gauges included) must analyze
# clean (see scripts/hub_smoke.sh)
hub-smoke: build
	sh scripts/hub_smoke.sh

# kill -9 a checkpointed hub under a live swarm and restart it on the
# same port + checkpoint directory: every cohort must recover and every
# client must end sound across the crash (see scripts/hub_crash_smoke.sh)
hub-crash-smoke: build
	sh scripts/hub_crash_smoke.sh

# small scenario-family x algorithm grid in one `clocksync tournament`
# run: the optimal CSA must be sound in every cell, no baseline may
# beat it on median width in a static family, and every per-family
# trace must re-analyze clean (see scripts/tournament_smoke.sh)
tournament-smoke: build
	sh scripts/tournament_smoke.sh

check: build test bench-smoke bench-guard analyze-smoke tournament-smoke hub-smoke
	@echo "check: OK"

# Formatting is best-effort: the sealed build image does not ship
# ocamlformat, so these targets skip (successfully) when the binary is
# absent instead of failing the pipeline.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt --auto-promote; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

fmt-check:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "fmt-check: ocamlformat not installed, skipping"; \
	fi

clean:
	$(DUNE) clean
