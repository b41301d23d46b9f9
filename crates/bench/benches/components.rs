//! Microbenchmarks of the building blocks: the coding substrate, the
//! cache structures, the workload generator, the out-of-order core on its
//! own, the full pipeline and the per-run set-up of the memory side.
//! These bound how fast the figure regeneration can go and catch
//! performance regressions in the hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use icr_core::{DataL1, DataL1Config, Scheme};
use icr_cpu::{CpuConfig, PerfectMemory, Pipeline};
use icr_ecc::{ByteParity, ProtectedWord, Protection, SecDed};
use icr_mem::{
    AccessKind, Addr, BlockAddr, Cache, CacheGeometry, DataBlock, HierarchyConfig, InstrCache,
    MemoryBackend,
};
use icr_sim::{run_sim, SimConfig};
use icr_trace::{apps, TraceGenerator};

fn bench_ecc(c: &mut Criterion) {
    let mut g = c.benchmark_group("ecc");
    g.throughput(Throughput::Elements(1));
    g.bench_function("secded_encode", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(SecDed::encode(black_box(x)))
        })
    });
    g.bench_function("secded_decode_clean", |b| {
        let code = SecDed::encode(0xDEAD_BEEF_F00D_CAFE);
        b.iter(|| black_box(code.decode(black_box(0xDEAD_BEEF_F00D_CAFE))))
    });
    g.bench_function("secded_decode_corrupted", |b| {
        let code = SecDed::encode(0xDEAD_BEEF_F00D_CAFE);
        b.iter(|| black_box(code.decode(black_box(0xDEAD_BEEF_F00D_CAFE ^ (1 << 42)))))
    });
    g.bench_function("parity_encode", |b| {
        let mut x = 0u64;
        b.iter(|| {
            x = x.wrapping_add(0x9E37_79B9);
            black_box(ByteParity::encode(black_box(x)))
        })
    });
    g.bench_function("protected_word_check", |b| {
        let mut w = ProtectedWord::encode(12345, Protection::SecDed);
        b.iter(|| black_box(w.check_and_correct()))
    });
    g.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache");
    g.throughput(Throughput::Elements(1));
    g.bench_function("l2_lookup_hit", |b| {
        let geom = CacheGeometry::new(256 * 1024, 4, 64);
        let mut cache = Cache::new(geom, 6);
        let addr = BlockAddr(0x1000);
        cache.fill(addr, DataBlock::pristine(addr, 8), false);
        b.iter(|| black_box(cache.lookup(black_box(addr), AccessKind::Read)))
    });
    // A streaming miss: every read is a new block, so each one misses the
    // L2, fetches pristine data from memory and fills (evicting once the
    // L2 is warm) — the block path below every dL1 miss.
    g.bench_function("l2_read_block_miss", |b| {
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut next = 0u64;
        b.iter(|| {
            next += 64;
            black_box(backend.read_block(black_box(BlockAddr(next))))
        })
    });
    g.bench_function("dl1_load_hit_basep", |b| {
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut dl1 = DataL1::new(DataL1Config::paper_default(Scheme::BASE_P));
        dl1.load(Addr(0x1000_0000), 0, &mut backend);
        let mut now = 1;
        b.iter(|| {
            now += 2;
            black_box(dl1.load(black_box(Addr(0x1000_0000)), now, &mut backend))
        })
    });
    g.bench_function("dl1_store_with_replication", |b| {
        let mut backend = MemoryBackend::new(&HierarchyConfig::default());
        let mut dl1 = DataL1::new(DataL1Config::aggressive(Scheme::ICR_P_PS_S));
        let mut now = 0;
        b.iter(|| {
            now += 2;
            let addr = Addr(0x1000_0000 + (now % 4096) * 64);
            black_box(dl1.store(black_box(addr), now, &mut backend))
        })
    });
    g.finish();
}

fn bench_trace(c: &mut Criterion) {
    let mut g = c.benchmark_group("trace");
    g.throughput(Throughput::Elements(10_000));
    for app in ["gzip", "mcf"] {
        g.bench_function(format!("generate_10k_{app}"), |b| {
            b.iter(|| {
                let gen = TraceGenerator::new(apps::try_profile(app).unwrap(), 1);
                black_box(gen.take(10_000).count())
            })
        });
    }
    g.finish();
}

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("pipeline");
    g.sample_size(10);
    g.throughput(Throughput::Elements(20_000));
    // The core alone: no dL1, every access a single cycle, so a core
    // regression shows here apart from the memory side of `run_sim`.
    for app in ["gzip", "mcf"] {
        let trace: Vec<_> = TraceGenerator::new(apps::try_profile(app).unwrap(), 42)
            .take(20_000)
            .collect();
        g.bench_function(format!("core_20k_{app}_perfect_memory"), |b| {
            b.iter(|| {
                let mut cpu = Pipeline::new(CpuConfig::default());
                let stats = cpu.run(
                    trace.iter().copied(),
                    &mut PerfectMemory,
                    &mut PerfectMemory,
                );
                black_box(stats.cycles)
            })
        });
    }
    for scheme in [Scheme::BASE_P, Scheme::ICR_P_PS_S] {
        g.bench_function(format!("sim_20k_insts_{}", scheme.name()), |b| {
            b.iter(|| {
                let cfg = SimConfig::paper("gzip", DataL1Config::paper_default(scheme), 20_000, 42);
                black_box(run_sim(&cfg).pipeline.cycles)
            })
        });
    }
    g.finish();
}

/// Per-run set-up of the paper machine's memory side: every `run_sim`
/// builds and drops one dL1, one L2 backend (L2, main memory, replica
/// region) and one iL1.
fn bench_setup(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim");
    let hierarchy = HierarchyConfig::default();
    let dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    g.bench_function("build_paper_machine", |b| {
        b.iter(|| {
            let d = DataL1::new(black_box(dl1.clone()));
            let m = MemoryBackend::new(black_box(&hierarchy));
            let i = InstrCache::new(black_box(&hierarchy));
            black_box((&d, &m, &i));
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_ecc,
    bench_cache,
    bench_trace,
    bench_pipeline,
    bench_setup
);
criterion_main!(benches);
