# Convenience targets. `make verify` is the full local CI gate; the
# tier-1 gate from ROADMAP.md is `make check`.

CARGO ?= cargo

.PHONY: verify check build test fmt fmt-check clippy doc replay-check bench-build bench-check bench bench-all bench-all-gate bench-isa bench-campaign bench-importance bench-spill bench-spill-check trace-roundtrip campaign campaign-resume campaign-fanout campaign-plain audit isa-audit clean

## Full verification: build + all tests + formatting + lints + docs,
## plus a build-only check of every icr-bench target and of the
## end-to-end benchmark package under benchmark/, the dL1-vs-spill
## placement benchmark (fast enough to run, not just build; its record
## goes under target/, so verify leaves the tree clean), a lockstep
## audit of the full scheme × app matrix — ten paper presets plus two
## L2-spill descriptors — against the icr-check reference model, the
## same audit over the seven RV32IM kernels, a byte-identical trace
## save/replay round-trip through icr-run, a kill-and-resume smoke of
## the checkpointed campaign service, a two-worker fan-out whose merge
## must be byte-identical to the single-process run, a plain
## (in-memory) campaign whose report must match the checkpointed
## run's, a wider pass of the campaign replay's equivalence property,
## and one pass of the end-to-end benchmark's workloads against their
## recorded output digests.
verify: build test fmt-check clippy doc replay-check bench-build bench-check bench-spill-check trace-roundtrip campaign-resume campaign-fanout campaign-plain audit isa-audit
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

## Campaign trials replay their cell's fault-free memory-call log
## without checking that they share its configuration and trace; this
## runs the property holding each replayed or early-stopped result
## equal to run_sim (and each divergence reported) over 50 cases
## instead of the 3 a plain `cargo test` runs.
replay-check:
	PROPTEST_CASES=50 $(CARGO) test -q -p icr-sim --release --lib a_replay_is_run_sim_or_reports_divergence

## Compile every icr-bench target (criterion and standalone alike) and
## the end-to-end benchmark package (its own workspace, which imports
## icr_sim's experiment, engine and pool APIs) without running them.
bench-build:
	$(CARGO) bench -p icr-bench --no-run
	$(CARGO) build --release --offline --manifest-path benchmark/Cargo.toml

## One pass of the end-to-end benchmark's figures, campaign and isa
## workloads (three cold iterations each, untraced, seed 0), then one
## traced campaign pass, failing unless each result line reads
## "correct": true with "failed": 0: every figure JSON, checkpoint file,
## sharded report and SimResult document the workloads produce must
## match its digest in benchmark/digests.txt, and the traced pass holds
## every campaign trial's memoised result, replayed, stopped early or
## run in full, equal to a fresh run_sim.
BENCH_CHECK = $(CARGO) run --release --offline --quiet --manifest-path benchmark/Cargo.toml --
bench-check:
	@set -e; for run in "figures 0" "campaign 0" "isa 0" "campaign 1"; do \
		set -- $$run; \
		line=$$($(BENCH_CHECK) --workload $$1 --seed 0 --seconds 0 --trace $$2 | tail -n 1); \
		case "$$line" in \
			*'"correct": true,'*'"failed": 0,'*) echo "bench-check $$1 (trace $$2): OK";; \
			*) echo "bench-check $$1 (trace $$2): FAILED: $$line"; exit 1;; \
		esac; \
	done

## Criterion benchmarks (confined to the bench crate).
bench:
	$(CARGO) bench -p icr-bench

## Full-matrix cold benchmark: every figure through the pipelined
## scheduler, per-figure seconds + trajectory to BENCH_all.json.
bench-all:
	$(CARGO) bench -p icr-bench --bench all

## CI regression gate: fail, writing nothing, if the cold total regresses
## >20% over the committed BENCH_all.json value.
bench-all-gate:
	ICR_BENCH_GATE=1 $(CARGO) bench -p icr-bench --bench all

## Interpret-vs-replay benchmark over the execution-driven ISA kernels:
## cold RV32IM interpretation against replaying the saved .icrt trace,
## recorded to BENCH_isa.json. Asserts replay beats re-interpreting.
bench-isa:
	$(CARGO) bench -p icr-bench --bench isa

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
## sharded campaign straight through, run the same campaign again and
## SIGKILL it as soon as its first shard checkpoint exists (waiting at
## most 30 s), resume it, and require the two JSON reports to be
## byte-identical. The kill must land mid-run: the target fails unless
## it left at least one but fewer than all checkpoints and no report.
## (The integration tests in crates/icr-sim/tests/campaign_kill.rs do
## this at randomized kill points; this target is the fast
## release-build end-to-end check.)
CAMPAIGN_RESUME_ARGS = --schemes basep,icr-p-ps-s --apps gzip --trials 200 \
	--insts 20000 --shard-size 10 --seed 7 --quiet
CAMPAIGN_RESUME_SHARDS = 20
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
	polls=0; \
	until ls target/ckpt-killed/shard-*.json >/dev/null 2>&1 || [ $$polls -ge 3000 ]; do \
		sleep 0.01; polls=$$((polls + 1)); \
	done; \
	kill -9 $$pid 2>/dev/null || true; \
	wait $$pid || true; \
	shards=$$(ls target/ckpt-killed/shard-*.json 2>/dev/null | wc -l); \
	if [ $$shards -eq 0 ] || [ $$shards -ge $(CAMPAIGN_RESUME_SHARDS) ] \
		|| [ -e target/cr-killed.json ]; then \
		echo "campaign-resume: FAILED: the kill left $$shards of $(CAMPAIGN_RESUME_SHARDS) checkpoints"; \
		[ ! -e target/cr-killed.json ] || echo "campaign-resume: and the killed run wrote its report"; \
		exit 1; \
	fi; \
	echo "campaign-resume: SIGKILLed pid $$pid with $$shards of $(CAMPAIGN_RESUME_SHARDS) checkpoints written"
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

## Trials-to-target benchmark for importance-sampled fault injection:
## uniform vs forced-arrival + site-tilted proposal to the same Wilson
## CI width, recorded to BENCH_importance.json. Asserts the importance
## leg needs 3x fewer trials on at least half the cells.
bench-importance:
	$(CARGO) bench -p icr-bench --bench importance

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
	ICR_BENCH_OUT=$(CURDIR)/target $(CARGO) bench -p icr-bench --bench spill

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
