# Convenience targets. `make verify` is the full local CI gate; the
# tier-1 gate from ROADMAP.md is `make check`.

CARGO ?= cargo

.PHONY: verify check build test fmt fmt-check clippy doc bench-build bench bench-engine bench-engine-build bench-all bench-all-build bench-all-gate bench-isa bench-isa-build bench-campaign bench-campaign-build bench-importance bench-importance-build bench-spill bench-spill-check trace-roundtrip campaign campaign-resume campaign-fanout campaign-plain audit isa-audit clean

## Full verification: build + all tests + formatting + lints + docs,
## plus a build-only check of the bench targets and of the end-to-end
## benchmark package under benchmark/, the dL1-vs-spill
## placement benchmark (fast enough to run, not just build; its record
## goes under target/, so verify leaves the tree clean), a lockstep
## audit of the full scheme × app matrix — ten paper presets plus two
## L2-spill descriptors — against the icr-check reference model, a
## byte-identical trace save/replay round-trip through icr-run, a
## kill-and-resume smoke of the checkpointed campaign service, a
## two-worker fan-out whose merge must be byte-identical to the
## single-process run, and a plain (in-memory) campaign whose report
## must match the checkpointed run's.
verify: build test fmt-check clippy doc bench-build bench-engine-build bench-all-build bench-isa-build bench-campaign-build bench-importance-build bench-spill-check trace-roundtrip campaign-resume campaign-fanout campaign-plain audit
	@echo "verify: OK"

## Tier-1 gate (ROADMAP.md): release build + quiet tests.
check:
	$(CARGO) build --release
	$(CARGO) test -q

build:
	$(CARGO) build --release --workspace

test:
	$(CARGO) test -q --workspace

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

## API docs must build warnings-clean (broken intra-doc links, etc.).
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

## Compile the end-to-end benchmark package (its own workspace, which
## imports icr_sim's experiment, engine and pool APIs) without running it.
bench-build:
	$(CARGO) build --release --offline --manifest-path benchmark/Cargo.toml

## Criterion benchmarks (confined to the bench crate).
bench:
	$(CARGO) bench -p icr-bench

## Engine smoke benchmark: cold vs warm fig9, writes BENCH_engine.json.
bench-engine:
	$(CARGO) bench -p icr-bench --bench engine

## Compile the engine benchmark without running it (used by `verify`).
bench-engine-build:
	$(CARGO) bench -p icr-bench --bench engine --no-run

## Full-matrix cold benchmark: every figure through the pipelined
## scheduler, per-figure seconds + trajectory to BENCH_all.json.
bench-all:
	$(CARGO) bench -p icr-bench --bench all

## Compile the full-matrix benchmark without running it (used by `verify`).
bench-all-build:
	$(CARGO) bench -p icr-bench --bench all --no-run

## CI regression gate: fail if the cold total regresses >20% over the
## committed BENCH_all.json baseline.
bench-all-gate:
	ICR_BENCH_GATE=1 $(CARGO) bench -p icr-bench --bench all

## Interpret-vs-replay benchmark over the execution-driven ISA kernels:
## cold RV32IM interpretation against replaying the saved .icrt trace,
## recorded to BENCH_isa.json. Asserts replay beats re-interpreting.
bench-isa:
	$(CARGO) bench -p icr-bench --bench isa

## Compile the ISA benchmark without running it (used by `verify`).
bench-isa-build:
	$(CARGO) bench -p icr-bench --bench isa --no-run

## Save a trace with --trace-out, replay it with --trace-in, and require
## the two simulation reports to be byte-identical — once for an
## execution-driven ISA kernel, once for a synthetic profile workload.
trace-roundtrip:
	$(CARGO) build --release -p icr-sim --bin icr-run
	./target/release/icr-run isa:matmul icr-ecc-pp-ls --insts 20000 \
		--json target/tr-live.json --trace-out target/tr.icrt
	./target/release/icr-run isa:matmul icr-ecc-pp-ls --insts 20000 \
		--json target/tr-replay.json --trace-in target/tr.icrt
	cmp target/tr-live.json target/tr-replay.json
	./target/release/icr-run gzip icr-p-ps-s --insts 20000 \
		--json target/tr-live.json --trace-out target/tr.icrt
	./target/release/icr-run gzip icr-p-ps-s --insts 20000 \
		--json target/tr-replay.json --trace-in target/tr.icrt
	cmp target/tr-live.json target/tr-replay.json
	@echo "trace-roundtrip: OK"

## A 1,200-trial deterministic fault-injection campaign.
campaign:
	$(CARGO) run --release -p icr-sim --bin icr-campaign -- --trials 100

## Crash-safety smoke for the checkpointed campaign service: run a
## sharded campaign straight through, run the same campaign again with
## a SIGKILL mid-run, resume it, and require the two JSON reports to be
## byte-identical. (The integration tests in
## crates/icr-sim/tests/campaign_kill.rs do this at randomized kill
## points; this target is the fast release-build end-to-end check.)
CAMPAIGN_RESUME_ARGS = --schemes basep,icr-p-ps-s --apps gzip --trials 200 \
	--insts 20000 --shard-size 10 --seed 7 --quiet
campaign-resume:
	$(CARGO) build --release -p icr-sim --bin icr-campaign
	rm -rf target/ckpt-straight target/ckpt-killed
	rm -f target/cr-straight.json target/cr-killed.json
	./target/release/icr-campaign $(CAMPAIGN_RESUME_ARGS) \
		--checkpoint target/ckpt-straight --json target/cr-straight.json
	@set -e; \
	./target/release/icr-campaign $(CAMPAIGN_RESUME_ARGS) \
		--checkpoint target/ckpt-killed --json target/cr-killed.json & \
	pid=$$!; \
	sleep 0.7; \
	if kill -9 $$pid 2>/dev/null; then \
		echo "campaign-resume: SIGKILLed pid $$pid mid-run"; \
	else \
		echo "campaign-resume: campaign finished before the kill"; \
	fi; \
	wait $$pid || true
	./target/release/icr-campaign $(CAMPAIGN_RESUME_ARGS) --resume \
		--checkpoint target/ckpt-killed --json target/cr-killed.json
	cmp target/cr-straight.json target/cr-killed.json
	@echo "campaign-resume: OK (killed-and-resumed output is byte-identical)"

## Checkpoint-overhead benchmark for the sharded campaign service:
## in-memory vs checkpointed vs resume, shard throughput and overhead
## recorded to BENCH_campaign.json. Asserts the durability cost stays
## under 5% of campaign wall time.
bench-campaign:
	$(CARGO) bench -p icr-bench --bench campaign

## Compile the campaign benchmark without running it (used by `verify`).
bench-campaign-build:
	$(CARGO) bench -p icr-bench --bench campaign --no-run

## Trials-to-target benchmark for importance-sampled fault injection:
## uniform vs forced-arrival + site-tilted proposal to the same Wilson
## CI width, recorded to BENCH_importance.json. Asserts the importance
## leg needs 3x fewer trials on at least half the cells.
bench-importance:
	$(CARGO) bench -p icr-bench --bench importance

## Compile the importance benchmark without running it (used by `verify`).
bench-importance-build:
	$(CARGO) bench -p icr-bench --bench importance --no-run

## Multi-host fan-out smoke: the same sharded campaign run once in a
## single process and once as two --worker halves into separate
## checkpoint directories, then merged restore-only; the two JSON
## reports must be byte-identical.
CAMPAIGN_FANOUT_ARGS = --schemes basep,icr-p-ps-s --apps gzip --trials 200 \
	--insts 20000 --shard-size 10 --seed 7 --importance --quiet
campaign-fanout:
	$(CARGO) build --release -p icr-sim --bin icr-campaign
	rm -rf target/fan-single target/fan-w0 target/fan-w1
	rm -f target/fan-single.json target/fan-merged.json
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--checkpoint target/fan-single --json target/fan-single.json
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--worker 0/2 --checkpoint target/fan-w0
	./target/release/icr-campaign $(CAMPAIGN_FANOUT_ARGS) \
		--worker 1/2 --checkpoint target/fan-w1
	./target/release/icr-campaign merge --schemes basep,icr-p-ps-s \
		--apps gzip --trials 200 --insts 20000 --shard-size 10 --seed 7 \
		--importance --quiet --json target/fan-merged.json \
		target/fan-w0 target/fan-w1
	cmp target/fan-single.json target/fan-merged.json
	@echo "campaign-fanout: OK (merged worker output is byte-identical)"

## One campaign engine: a plain run is the checkpointed service's shard
## loop kept in memory, --batch trials per shard. Run the same
## importance-sampled, early-stopping spec without and with
## --checkpoint; with the checkpointed report's "sharding" block
## deleted, the two JSON reports must be byte-identical.
CAMPAIGN_PLAIN_ARGS = --schemes basep,icr-p-ps-s --apps gzip,gcc --trials 200 \
	--insts 20000 --importance --ci-width 0.15 --batch 10 --seed 7 --quiet
campaign-plain:
	$(CARGO) build --release -p icr-sim --bin icr-campaign
	rm -rf target/plain-ckpt
	rm -f target/plain.json target/plain-ckpt.json target/plain-ckpt-body.json
	./target/release/icr-campaign $(CAMPAIGN_PLAIN_ARGS) --json target/plain.json
	./target/release/icr-campaign $(CAMPAIGN_PLAIN_ARGS) \
		--checkpoint target/plain-ckpt --json target/plain-ckpt.json
	sed '/^  "sharding": {$$/,/^  },$$/d' target/plain-ckpt.json \
		> target/plain-ckpt-body.json
	cmp target/plain.json target/plain-ckpt-body.json
	@echo "campaign-plain: OK (plain output matches the checkpointed run)"

## dL1-only vs L2-spill placement: per-app wall time plus the spill
## region's lifecycle counters, recorded to BENCH_spill.json. Asserts
## the region sees traffic and the bookkeeping stays under 2x the
## dL1-only run. Cheap enough that `verify` runs it outright.
bench-spill:
	$(CARGO) bench -p icr-bench --bench spill

## The same bench and assertions with the record written under target/,
## so `verify` leaves the tracked BENCH_spill.json untouched.
bench-spill-check:
	ICR_BENCH_OUT=$(CURDIR)/target/BENCH_spill.json $(CARGO) bench -p icr-bench --bench spill

## Lockstep reference-model audit: every dL1 access of the full paper
## scheme × app matrix diffed against the naive icr-check model. The
## incremental touched-set diff makes this cheap enough to run deep.
audit:
	$(CARGO) run --release -p icr-sim --bin icr-exp -- audit --insts 20000

## Same lockstep audit over the execution-driven ISA kernels.
isa-audit:
	$(CARGO) run --release -p icr-sim --bin icr-exp -- isa-audit --insts 20000

clean:
	$(CARGO) clean
