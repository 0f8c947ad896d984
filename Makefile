# Convenience wrappers around dune.  `make check` is the one-shot gate:
# full build, the whole test suite, and the sub-second bench smoke slice
# that exercises the JSON trajectory emitter.

DUNE ?= dune

.PHONY: all build test bench-smoke bench-guard analyze-smoke net-smoke crash-smoke hub-smoke hub-crash-smoke tournament-smoke lossy-fleet-check check fmt fmt-check clean

all: build

build:
	$(DUNE) build @all

test:
	$(DUNE) runtest

bench-smoke:
	$(DUNE) exec bench/main.exe -- smoke --json _build/bench_smoke.json

# four throughput floors, each on a median: the guard fails (exit 1)
# when L=128 sliding-window AGDP inserts drop below 5000/s, in-place
# decode of a 64-event frame below 30k frames/s, or CSA snapshots of
# the sim-ntp-chaos star state (L=14) below 25k/s (5 rotated rounds
# each), or when the benchmark suite's fleet at 256 clients measures
# incorrect or its fabric deliveries drop below 6000 msgs/s (its rounds
# over 2 s); the JSON, with each median's quartiles, lands in _build
# for the CI artifact upload
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

# the benchmark's lossy fleet (32 loopback clients, 10% loss, every
# payload through the codec) measured on seeds 1-5, 3 s each: `measure`
# exits nonzero on any failed correctness check (an uncontained sample,
# an infinite width late in the run, or a client not established or not
# converged at the end), and so does this target
lossy-fleet-check: build
	@for s in 1 2 3 4 5; do \
	  out=$$($(DUNE) exec bench/suite/main.exe -- measure \
	    --workload fleet-32-lossy --seconds 3 --seed $$s) || \
	    { echo "$$out" | grep -v '^{'; \
	      echo "lossy-fleet-check: seed $$s failed"; exit 1; }; \
	done
	@echo "lossy-fleet-check: OK (seeds 1-5)"

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
