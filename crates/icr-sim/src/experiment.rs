//! One runner per table/figure of the paper's evaluation (§4–§5).
//!
//! Every runner returns a [`FigureResult`] whose series mirror the bars or
//! lines of the original figure. Instruction budgets are scaled down from
//! the paper's 500M (see `EXPERIMENTS.md`); seeds are fixed, so every
//! number is reproducible.
//!
//! Every figure is a grid — dL1 variants or schemes × applications or a
//! swept parameter — and every runner hands its grid to one helper, which
//! submits the cells to the process-wide [`Engine`] over an
//! [`exec::Pool`](crate::exec::Pool) and returns them as
//! `grid[row][col]`: cells named by more than one figure execute once,
//! and every workload trace is materialised once — without changing a
//! single emitted number relative to the serial path. Figures over the
//! applications share one x-axis, the applications plus an `AVG` column
//! holding each series' mean.

use crate::engine::Engine;
use crate::exec::Pool;
use crate::report::{FigureResult, Series};
use crate::simulator::{FaultConfig, ScrubConfig, SimConfig, SimResult};
use icr_core::{
    DataL1Config, DecayConfig, PlacementPolicy, ReplicationHints, Scheme, VictimPolicy, WritePolicy,
};
use icr_energy::EnergyModel;
use icr_fault::ErrorModel;
use icr_mem::{CacheGeometry, RowBufferConfig};
use icr_trace::apps::{APP_NAMES, ISA_APP_NAMES};
use std::sync::Arc;

/// Common experiment options.
#[derive(Debug, Clone, Copy)]
pub struct ExpOptions {
    /// Dynamic instructions per simulation (paper: 500M; scaled here).
    pub instructions: u64,
    /// Workload seed.
    pub seed: u64,
    /// Worker threads per runner (`0` = all available cores).
    pub threads: usize,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            instructions: 200_000,
            seed: 42,
            threads: 0,
        }
    }
}

impl ExpOptions {
    /// The worker pool these options describe.
    pub fn pool(&self) -> Pool {
        Pool::new(self.threads)
    }
}

/// One row of a figure over the applications: its series label, dL1
/// configuration and injected fault.
type Variant = (String, DataL1Config, Option<FaultConfig>);

/// Results in `grid[row][col]` order.
type Grid = Vec<Vec<Arc<SimResult>>>;

fn v(label: &str, dl1: DataL1Config) -> Variant {
    (label.to_owned(), dl1, None)
}

/// `scheme` at its paper defaults, labelled with its name.
fn paper(scheme: Scheme) -> Variant {
    v(&scheme.name(), DataL1Config::paper_default(scheme))
}

/// An unbounded fault storm: `model` strikes with probability `p` per
/// cycle for the whole run.
fn storm(model: ErrorModel, p: f64, seed: u64) -> FaultConfig {
    FaultConfig {
        model,
        p_per_cycle: p,
        seed,
        max_faults: None,
    }
}

/// Runs `cell(row, col)` for every row × column through the
/// process-wide engine: how every figure builds its cells.
fn run_grid<R: Sync, C: Sync>(
    opts: &ExpOptions,
    rows: &[R],
    cols: &[C],
    cell: impl Fn(&R, &C) -> SimConfig + Sync,
) -> Grid {
    opts.pool()
        .run_grid(rows, cols, |r, c| Engine::global().run(&cell(r, c)))
}

/// Runs every variant on every one of `apps`: `grid[variant][app]`.
fn run_apps(opts: &ExpOptions, variants: &[Variant], apps: &[&str]) -> Grid {
    run_grid(opts, variants, apps, |(_, dl1, fault), app| {
        let mut cfg = SimConfig::paper(app, dl1.clone(), opts.instructions, opts.seed);
        cfg.fault = *fault;
        cfg
    })
}

/// `metric` of every result in `row`.
fn each(row: &[Arc<SimResult>], metric: impl Fn(&SimResult) -> f64) -> Vec<f64> {
    row.iter().map(|r| metric(r)).collect()
}

/// Per column, `metric` of `row` over `metric` of `base`.
fn ratio(
    row: &[Arc<SimResult>],
    base: &[Arc<SimResult>],
    metric: impl Fn(&SimResult) -> f64,
) -> Vec<f64> {
    row.iter()
        .zip(base)
        .map(|(r, b)| metric(r) / metric(b))
        .collect()
}

fn cycles(r: &SimResult) -> f64 {
    r.pipeline.cycles as f64
}

/// A figure whose xs are `apps` plus `AVG`: each series carries one value
/// per app, and its `AVG` value is their mean.
fn app_figure(
    id: &str,
    title: &str,
    unit: &str,
    notes: &str,
    apps: &[&str],
    series: impl IntoIterator<Item = (String, Vec<f64>)>,
) -> FigureResult {
    FigureResult {
        id: id.into(),
        title: title.into(),
        unit: unit.into(),
        xs: apps
            .iter()
            .map(|a| a.to_string())
            .chain(["AVG".into()])
            .collect(),
        series: series
            .into_iter()
            .map(|(label, mut values)| {
                values.push(values.iter().sum::<f64>() / values.len() as f64);
                Series { label, values }
            })
            .collect(),
        notes: notes.into(),
    }
}

/// One series per variant, labelled with it: per app,
/// `metric(cell, the same app under variant 0)`, so variant 0 doubles as
/// the baseline.
fn versus_first(
    variants: &[Variant],
    grid: &Grid,
    metric: impl Fn(&SimResult, &SimResult) -> f64,
) -> Vec<(String, Vec<f64>)> {
    variants
        .iter()
        .zip(grid)
        .map(|((label, ..), row)| {
            let values = row.iter().zip(&grid[0]).map(|(r, b)| metric(r, b));
            (label.clone(), values.collect())
        })
        .collect()
}

/// Builds a figure over the eight applications plus `AVG`, from a
/// per-(variant, app) metric.
fn figure_over_apps(
    id: &str,
    title: &str,
    unit: &str,
    notes: &str,
    variants: &[Variant],
    opts: &ExpOptions,
    metric: impl Fn(&SimResult, &SimResult) -> f64,
) -> FigureResult {
    let grid = run_apps(opts, variants, &APP_NAMES);
    let series = versus_first(variants, &grid, metric);
    app_figure(id, title, unit, notes, &APP_NAMES, series)
}

// ---------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------

/// Table 1: the machine configuration, rendered as text.
pub fn table1() -> String {
    let cpu = icr_cpu::CpuConfig::default();
    let h = icr_mem::HierarchyConfig::default();
    let dl1 = DataL1Config::paper_default(Scheme::BASE_P);
    let g = dl1.geometry;
    format!(
        "== table1 — Configuration parameters (paper Table 1) ==\n\
         Functional units     : {} int ALU, {} int mul/div, {} FP ALU, {} FP mul/div\n\
         LSQ size             : {} instructions\n\
         RUU size             : {} instructions\n\
         Issue width          : {} instructions/cycle\n\
         L1 instruction cache : {}KB, {}-way, {} byte blocks, {} cycle latency\n\
         L1 data cache        : {}KB, {}-way, {} byte blocks, 1 cycle latency\n\
         L2                   : {}KB unified, {}-way, {} byte blocks, {} cycle latency\n\
         Memory               : {} cycle latency\n\
         Branch predictor     : combined, bimodal {} entries + two-level {} entries, {} bit history\n\
         BTB                  : {} entry, {}-way\n\
         Misprediction penalty: {} cycles\n\
         All caches write-back (except the §5.8 write-through comparison).\n",
        cpu.int_alu_units,
        cpu.int_mul_units,
        cpu.fp_alu_units,
        cpu.fp_mul_units,
        cpu.lsq_size,
        cpu.ruu_size,
        cpu.issue_width,
        h.l1i_geometry.size_bytes() / 1024,
        h.l1i_geometry.associativity(),
        h.l1i_geometry.block_bytes(),
        h.l1i_latency,
        g.size_bytes() / 1024,
        g.associativity(),
        g.block_bytes(),
        h.l2_geometry.size_bytes() / 1024,
        h.l2_geometry.associativity(),
        h.l2_geometry.block_bytes(),
        h.l2_latency,
        h.memory_latency,
        cpu.bimodal_entries,
        cpu.two_level_entries,
        cpu.history_bits,
        cpu.btb_entries,
        cpu.btb_ways,
        cpu.mispredict_penalty,
    )
}

// ---------------------------------------------------------------------
// §5.1 — Replication mechanisms (Figures 1–5)
// ---------------------------------------------------------------------

/// Figures 1–2's rows: `ICR-P-PS (S)` under aggressive dead-block
/// prediction, with a single (N/2) and a multiple (N/2, N/4) attempt.
fn attempt_variants() -> [Variant; 2] {
    let single = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
    let mut multi = single.clone();
    multi.placement = PlacementPolicy::multi_attempt(single.geometry);
    [v("single (N/2)", single), v("multi (N/2,N/4)", multi)]
}

/// Figure 1: replication ability, single vs multiple attempt,
/// `ICR-P-PS (S)`, aggressive dead-block prediction.
pub fn fig1(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "fig1",
        "Replication ability: single vs multiple attempts, ICR-P-PS (S)",
        "fraction of attempts",
        "paper shape: multiple attempts raise replication ability",
        &attempt_variants(),
        opts,
        |r, _| r.icr.replication_ability(),
    )
}

/// Figure 2: loads with replica, single vs multiple attempt.
pub fn fig2(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "fig2",
        "Loads with replica: single vs multiple attempts, ICR-P-PS (S)",
        "fraction of read hits",
        "paper shape: negligible improvement from multiple attempts",
        &attempt_variants(),
        opts,
        |r, _| r.icr.loads_with_replica(),
    )
}

/// `ICR-P-PS (S)` under aggressive dead-block prediction, allowed a
/// second replica (Figures 3–4).
fn two_replicas() -> DataL1Config {
    let mut two = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
    two.placement = PlacementPolicy::two_replicas(two.geometry);
    two
}

/// Figure 3: ability to create one vs two replicas, `ICR-P-PS (S)`.
pub fn fig3(opts: &ExpOptions) -> FigureResult {
    let grid = run_apps(opts, &[v("two-replica policy", two_replicas())], &APP_NAMES);
    app_figure(
        "fig3",
        "Replication ability for one and two replicas, ICR-P-PS (S)",
        "fraction of attempts",
        "paper shape: two replicas succeed ~12% of the time on average",
        &APP_NAMES,
        [
            (
                ">=1 replica".into(),
                each(&grid[0], |r| r.icr.replication_ability()),
            ),
            (
                ">=2 replicas".into(),
                each(&grid[0], |r| r.icr.replication_ability_two()),
            ),
        ],
    )
}

/// Figure 4: miss rates with one vs two replicas, `ICR-P-PS (S)`.
pub fn fig4(opts: &ExpOptions) -> FigureResult {
    let one = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
    figure_over_apps(
        "fig4",
        "Miss rates with one vs two replicas, ICR-P-PS (S)",
        "dL1 miss rate",
        "paper shape: a second replica worsens miss rate (mesa nearly doubles)",
        &[v("1 replica", one), v("2 replicas", two_replicas())],
        opts,
        |r, _| r.icr.miss_rate(),
    )
}

/// Figure 5: loads with replica, vertical (N/2) vs horizontal (0)
/// replication, `ICR-P-PS (S)`.
pub fn fig5(opts: &ExpOptions) -> FigureResult {
    let vertical = DataL1Config::aggressive(Scheme::ICR_P_PS_S);
    let mut horizontal = vertical.clone();
    horizontal.placement = PlacementPolicy::horizontal();
    figure_over_apps(
        "fig5",
        "Loads with replica: vertical (N/2) vs horizontal (0) replication",
        "fraction of read hits",
        "paper shape: little difference between the two placements",
        &[v("vertical N/2", vertical), v("horizontal 0", horizontal)],
        opts,
        |r, _| r.icr.loads_with_replica(),
    )
}

// ---------------------------------------------------------------------
// §5.2 — Aggressive dead-block prediction (Figures 6–9)
// ---------------------------------------------------------------------

/// Figure 6: replication ability, `ICR-*(LS)` vs `ICR-*(S)`.
pub fn fig6(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "fig6",
        "Replication ability: LS vs S triggers (aggressive decay)",
        "fraction of attempts",
        "paper shape: LS replicates more data than S",
        &[
            v("ICR-*(LS)", DataL1Config::aggressive(Scheme::ICR_P_PS_LS)),
            v("ICR-*(S)", DataL1Config::aggressive(Scheme::ICR_P_PS_S)),
        ],
        opts,
        |r, _| r.icr.replication_ability(),
    )
}

/// Figure 7: loads with replica, `ICR-*(LS)` vs `ICR-*(S)`.
pub fn fig7(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "fig7",
        "Loads with replica: LS vs S triggers (aggressive decay)",
        "fraction of read hits",
        "paper shape: S > 65% on average, LS > 90%, mcf near-complete duplication",
        &[
            v("ICR-*(LS)", DataL1Config::aggressive(Scheme::ICR_P_PS_LS)),
            v("ICR-*(S)", DataL1Config::aggressive(Scheme::ICR_P_PS_S)),
        ],
        opts,
        |r, _| r.icr.loads_with_replica(),
    )
}

/// Figure 8: miss rates for Base*, ICR-*(LS) and ICR-*(S).
pub fn fig8(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "fig8",
        "Miss rates: Base vs ICR-*(LS) vs ICR-*(S) (aggressive decay)",
        "dL1 miss rate",
        "paper shape: ICR raises misses; mcf barely moves (poor locality anyway)",
        &[
            v("Base*", DataL1Config::paper_default(Scheme::BASE_P)),
            v("ICR-*(LS)", DataL1Config::aggressive(Scheme::ICR_P_PS_LS)),
            v("ICR-*(S)", DataL1Config::aggressive(Scheme::ICR_P_PS_S)),
        ],
        opts,
        |r, _| r.icr.miss_rate(),
    )
}

/// Figure 9: normalized execution cycles for all ten schemes,
/// aggressive dead-block prediction, dead-only victims.
pub fn fig9(opts: &ExpOptions) -> FigureResult {
    let variants: Vec<_> = Scheme::all_paper_schemes()
        .into_iter()
        .map(|s| {
            let cfg = if s.replicates() {
                DataL1Config::aggressive(s)
            } else {
                DataL1Config::paper_default(s)
            };
            v(&s.name(), cfg)
        })
        .collect();
    figure_over_apps(
        "fig9",
        "Normalized execution cycles, all schemes (aggressive decay, dead-only)",
        "cycles / BaseP cycles",
        "paper shape: BaseECC ~+30%; ICR-P-PS(S) ~+3.6%; ICR-ECC-PS(S) ~+21%; PP variants ECC-class",
        &variants,
        opts,
        |r, base| cycles(r) / cycles(base),
    )
}

// ---------------------------------------------------------------------
// §5.3 — Decay-window aggressiveness (Figures 10–11, vpr)
// ---------------------------------------------------------------------

const WINDOWS: [u64; 5] = [0, 500, 1000, 5000, 10000];

/// The `schemes` × [`WINDOWS`] decay sweep on vpr.
fn decay_grid(opts: &ExpOptions, schemes: &[Scheme]) -> Grid {
    run_grid(opts, schemes, &WINDOWS, |&scheme, &window| {
        let mut dl1 = DataL1Config::paper_default(scheme);
        dl1.decay = DecayConfig { window };
        // §5.3 runs before the paper switches to dead-first, and its
        // falling-ability trend requires dead-only victims: a longer
        // window shrinks the pool of dead lines replicas may take.
        dl1.victim = VictimPolicy::DeadOnly;
        SimConfig::paper("vpr", dl1, opts.instructions, opts.seed)
    })
}

/// Figure 10: replication ability and loads-with-replica vs decay window
/// (vpr, `ICR-P-PS (S)`).
pub fn fig10(opts: &ExpOptions) -> FigureResult {
    let results = &decay_grid(opts, &[Scheme::ICR_P_PS_S])[0];
    FigureResult {
        id: "fig10".into(),
        title: "Replication ability and loads with replica vs decay window (vpr)".into(),
        unit: "fraction".into(),
        xs: WINDOWS.iter().map(|w| w.to_string()).collect(),
        series: vec![
            Series {
                label: "replication ability".into(),
                values: each(results, |r| r.icr.replication_ability()),
            },
            Series {
                label: "loads w/ replica".into(),
                values: each(results, |r| r.icr.loads_with_replica()),
            },
        ],
        notes: "paper shape: ability falls with window; loads-with-replica nearly flat".into(),
    }
}

/// Figure 11: normalized execution cycles vs decay window (vpr).
pub fn fig11(opts: &ExpOptions) -> FigureResult {
    let base = Engine::global().run(&SimConfig::paper(
        "vpr",
        DataL1Config::paper_default(Scheme::BASE_P),
        opts.instructions,
        opts.seed,
    ));
    let schemes = [Scheme::ICR_P_PS_S, Scheme::ICR_ECC_PS_S];
    let grid = decay_grid(opts, &schemes);
    FigureResult {
        id: "fig11".into(),
        title: "Normalized execution cycles vs decay window (vpr)".into(),
        unit: "cycles / BaseP cycles".into(),
        xs: WINDOWS.iter().map(|w| w.to_string()).collect(),
        series: schemes
            .iter()
            .zip(&grid)
            .map(|(s, row)| Series {
                label: s.name(),
                values: each(row, |r| cycles(r) / cycles(&base)),
            })
            .collect(),
        notes: "paper shape: overhead shrinks as the window grows (<4% at 1000 for ICR-P-PS(S))"
            .into(),
    }
}

// ---------------------------------------------------------------------
// §5.4 — Relaxed dead-block prediction (Figures 12–13)
// ---------------------------------------------------------------------

/// Figure 12: normalized execution cycles with a 1000-cycle decay window.
pub fn fig12(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "fig12",
        "Normalized execution cycles, 1000-cycle decay window, dead-first",
        "cycles / BaseP cycles",
        "paper shape: BaseECC +30.9%, ICR-P-PS(S) +2.4%, ICR-ECC-PS(S) +10.2% on average",
        &[
            paper(Scheme::BASE_P),
            paper(Scheme::BASE_ECC),
            paper(Scheme::ICR_P_PS_S),
            paper(Scheme::ICR_ECC_PS_S),
        ],
        opts,
        |r, base| cycles(r) / cycles(base),
    )
}

/// Figure 13: replication ability and loads-with-replica, 1000 vs 0
/// cycle windows.
pub fn fig13(opts: &ExpOptions) -> FigureResult {
    let variants = [
        v("window 0", DataL1Config::aggressive(Scheme::ICR_P_PS_S)),
        v(
            "window 1000",
            DataL1Config::paper_default(Scheme::ICR_P_PS_S),
        ),
    ];
    let grid = run_apps(opts, &variants, &APP_NAMES);
    let series = variants.iter().zip(&grid).flat_map(|((label, ..), row)| {
        [
            (
                format!("ability ({label})"),
                each(row, |r| r.icr.replication_ability()),
            ),
            (
                format!("loads w/ replica ({label})"),
                each(row, |r| r.icr.loads_with_replica()),
            ),
        ]
    });
    app_figure(
        "fig13",
        "Replication ability & loads with replica: window 1000 vs 0",
        "fraction",
        "paper shape: loads-with-replica barely changes with the window",
        &APP_NAMES,
        series,
    )
}

// ---------------------------------------------------------------------
// §5.5 — Error injection (Figure 14)
// ---------------------------------------------------------------------

/// Error probabilities swept in Figure 14 (per cycle).
pub const FIG14_PROBS: [f64; 4] = [1e-2, 1e-3, 1e-4, 1e-5];

/// Percentage of unrecoverable loads on vortex: one series per scheme
/// (at its paper defaults, labelled with its name), one value per
/// column, where `inject` sets up a column's faults (and scrubbing).
fn unrecoverable_sweep<C: Sync>(
    opts: &ExpOptions,
    schemes: &[Scheme],
    cols: &[C],
    inject: impl Fn(&mut SimConfig, &C) + Sync,
) -> Vec<Series> {
    let grid = run_grid(opts, schemes, cols, |&scheme, col| {
        let dl1 = DataL1Config::paper_default(scheme);
        let mut cfg = SimConfig::paper("vortex", dl1, opts.instructions, opts.seed);
        inject(&mut cfg, col);
        cfg
    });
    schemes
        .iter()
        .zip(&grid)
        .map(|(s, row)| Series {
            label: s.name(),
            values: each(row, |r| 100.0 * r.icr.unrecoverable_load_fraction()),
        })
        .collect()
}

/// Figure 14: percentage of unrecoverable loads vs per-cycle error
/// probability (vortex, random injection model).
pub fn fig14(opts: &ExpOptions) -> FigureResult {
    // Each probability draws its own injector seed.
    let probs: Vec<(u64, f64)> = (0..).zip(FIG14_PROBS).collect();
    let series = unrecoverable_sweep(
        opts,
        &[
            Scheme::BASE_P,
            Scheme::ICR_P_PS_S,
            Scheme::ICR_ECC_PS_S,
            Scheme::BASE_ECC,
        ],
        &probs,
        |cfg, &(k, p)| {
            cfg.fault = Some(storm(ErrorModel::Random, p, opts.seed.wrapping_add(k)));
        },
    );
    FigureResult {
        id: "fig14".into(),
        title: "Unrecoverable loads vs error probability (vortex, random model)".into(),
        unit: "% of loads".into(),
        xs: FIG14_PROBS.iter().map(|p| format!("{p:e}")).collect(),
        series,
        notes:
            "paper shape: BaseP >> ICR-P-PS(S) > ICR-ECC-PS(S); BaseECC corrects all 1-bit errors"
                .into(),
    }
}

// ---------------------------------------------------------------------
// §5.6 — Performance improvements (Figure 15)
// ---------------------------------------------------------------------

/// Figure 15: normalized execution cycles when replicas are left in the
/// cache on primary eviction and can serve misses.
pub fn fig15(opts: &ExpOptions) -> FigureResult {
    let mut icr_p = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    icr_p.keep_replicas_on_evict = true;
    let mut icr_ecc = DataL1Config::paper_default(Scheme::ICR_ECC_PS_S);
    icr_ecc.keep_replicas_on_evict = true;
    figure_over_apps(
        "fig15",
        "Normalized execution cycles with replicas used for performance (§5.6)",
        "cycles / BaseP cycles",
        "paper shape: ICR-*-PS(S) match BaseP, and beat it on mcf/vpr (up to ~24%)",
        &[
            paper(Scheme::BASE_P),
            paper(Scheme::BASE_ECC),
            v("ICR-P-PS (S) keep", icr_p),
            v("ICR-ECC-PS (S) keep", icr_ecc),
        ],
        opts,
        |r, base| cycles(r) / cycles(base),
    )
}

// ---------------------------------------------------------------------
// §5.7 — Sensitivity (prose in the paper)
// ---------------------------------------------------------------------

/// §5.7 sensitivity: replication ability and loads-with-replica across
/// cache sizes and associativities (ICR-P-PS (S), gzip + mcf).
pub fn sensitivity(opts: &ExpOptions) -> FigureResult {
    let shapes = [
        ("8KB/4w", CacheGeometry::new(8 * 1024, 4, 64)),
        ("16KB/2w", CacheGeometry::new(16 * 1024, 2, 64)),
        ("16KB/4w", CacheGeometry::new(16 * 1024, 4, 64)),
        ("16KB/8w", CacheGeometry::new(16 * 1024, 8, 64)),
        ("32KB/4w", CacheGeometry::new(32 * 1024, 4, 64)),
    ];
    let apps = ["gzip", "mcf"];
    let grid = run_grid(opts, &shapes, &apps, |&(_, geometry), app| {
        let mut dl1 = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
        dl1.geometry = geometry;
        dl1.placement = PlacementPolicy::vertical(geometry);
        // Dead-only makes replication ability a direct read-out of how
        // many replication sites each shape offers (§5.7's claim).
        dl1.victim = VictimPolicy::DeadOnly;
        SimConfig::paper(app, dl1, opts.instructions, opts.seed)
    });
    let across_shapes = |a: usize, metric: fn(&SimResult) -> f64| -> Vec<f64> {
        grid.iter().map(|row| metric(&row[a])).collect()
    };
    let series = apps
        .iter()
        .enumerate()
        .flat_map(|(a, app)| {
            [
                Series {
                    label: format!("{app} ability"),
                    values: across_shapes(a, |r| r.icr.replication_ability()),
                },
                Series {
                    label: format!("{app} loads w/ replica"),
                    values: across_shapes(a, |r| r.icr.loads_with_replica()),
                },
            ]
        })
        .collect();
    FigureResult {
        id: "sens".into(),
        title: "§5.7 sensitivity: cache size and associativity".into(),
        unit: "fraction".into(),
        xs: shapes.iter().map(|(n, _)| n.to_string()).collect(),
        series,
        notes: "paper shape: ability rises with size; loads-with-replica stays high".into(),
    }
}

// ---------------------------------------------------------------------
// §5.8 — Write-through comparison (Figure 16)
// ---------------------------------------------------------------------

/// Figure 16: `BaseP` with a write-through dL1 (8-entry coalescing
/// buffer), normalized to `ICR-P-PS (S)` with write-back — execution
/// cycles and energy.
pub fn fig16(opts: &ExpOptions) -> FigureResult {
    let mut wt = DataL1Config::paper_default(Scheme::BASE_P);
    wt.write_policy = WritePolicy::WriteThrough { buffer_entries: 8 };
    let icr = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    let grid = run_apps(
        opts,
        &[v("ICR-P-PS (S) wb", icr), v("BaseP wt", wt)],
        &APP_NAMES,
    );
    let energy = EnergyModel::default();
    app_figure(
        "fig16",
        "Write-through BaseP normalized to write-back ICR-P-PS (S)",
        "ratio (wt BaseP / wb ICR)",
        "paper shape: ICR ~5.7% faster on average; WT energy more than 2x ICR",
        &APP_NAMES,
        [
            ("norm. cycles".into(), ratio(&grid[1], &grid[0], cycles)),
            (
                "norm. energy (L1+L2)".into(),
                ratio(&grid[1], &grid[0], |r| {
                    energy.energy(&r.energy_counts).total()
                }),
            ),
        ],
    )
}

// ---------------------------------------------------------------------
// §5.9 — Speculative-ECC comparison (Figure 17)
// ---------------------------------------------------------------------

/// Figure 17: `BaseECC` with speculative 1-cycle loads, normalized to the
/// performance-optimized `ICR-P-PS (S)` (replicas left in place) —
/// execution cycles and energy at two parity:ECC cost points.
pub fn fig17(opts: &ExpOptions) -> FigureResult {
    let spec = DataL1Config::paper_default(Scheme::BASE_ECC_SPEC);
    let mut icr = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    icr.keep_replicas_on_evict = true;
    let grid = run_apps(
        opts,
        &[v("ICR-P-PS (S) keep", icr), v("BaseECC spec", spec)],
        &APP_NAMES,
    );
    let energy = |model: EnergyModel| {
        ratio(&grid[1], &grid[0], move |r| {
            model.energy(&r.energy_counts).total()
        })
    };
    app_figure(
        "fig17",
        "Speculative BaseECC normalized to perf-optimized ICR-P-PS (S)",
        "ratio (spec ECC / ICR keep)",
        "paper shape: ICR ~2.5% faster avg (mcf ~30%); energy ≈ parity at 15:30, ECC +~3% at 10:30",
        &APP_NAMES,
        [
            ("norm. cycles".into(), ratio(&grid[1], &grid[0], cycles)),
            (
                "norm. energy 15:30".into(),
                energy(EnergyModel::parity15_ecc30()),
            ),
            (
                "norm. energy 10:30".into(),
                energy(EnergyModel::parity10_ecc30()),
            ),
        ],
    )
}

// ---------------------------------------------------------------------
// Ablation: victim policies (DESIGN.md §5)
// ---------------------------------------------------------------------

/// Loads-with-replica and miss rate of every variant over the eight
/// applications plus `AVG`: the victim and hints ablations.
fn replica_vs_miss(
    id: &str,
    title: &str,
    notes: &str,
    variants: &[Variant],
    opts: &ExpOptions,
) -> FigureResult {
    let grid = run_apps(opts, variants, &APP_NAMES);
    let series = variants.iter().zip(&grid).flat_map(|((label, ..), row)| {
        [
            (
                format!("{label} (lwr)"),
                each(row, |r| r.icr.loads_with_replica()),
            ),
            (format!("{label} (miss)"), each(row, |r| r.icr.miss_rate())),
        ]
    });
    app_figure(id, title, "fraction", notes, &APP_NAMES, series)
}

/// Ablation bench: the four victim policies under `ICR-P-PS (S)`.
pub fn victim_ablation(opts: &ExpOptions) -> FigureResult {
    let variants: Vec<_> = VictimPolicy::ALL
        .into_iter()
        .map(|p| {
            let mut cfg = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
            cfg.victim = p;
            v(p.name(), cfg)
        })
        .collect();
    replica_vs_miss(
        "victim",
        "Ablation: victim policy vs loads-with-replica and miss rate",
        "replica-only cannot bootstrap replicas in fresh sets; dead-first balances both",
        &variants,
        opts,
    )
}

// ---------------------------------------------------------------------
// Extension: §5.5's error-model equivalence claim
// ---------------------------------------------------------------------

/// §5.5 states "we have considered several transient error models
/// (direct, adjacent, column and random)… the overall results are
/// similar". This experiment verifies that claim: unrecoverable-load
/// fractions per model, for BaseP and ICR-P-PS (S) at p = 10⁻².
pub fn error_models(opts: &ExpOptions) -> FigureResult {
    let models = ErrorModel::all();
    let series = unrecoverable_sweep(
        opts,
        &[Scheme::BASE_P, Scheme::ICR_P_PS_S],
        &models,
        |cfg, &model| cfg.fault = Some(storm(model, 1e-2, opts.seed)),
    );
    FigureResult {
        id: "models".into(),
        title: "§5.5 claim: the four error models behave similarly".into(),
        unit: "% unrecoverable loads (p=1e-2, vortex)".into(),
        xs: models.iter().map(|m| m.name().to_owned()).collect(),
        series,
        notes: "adjacent can silently defeat parity (same-byte double flips are invisible), \
                so its *detected* losses run lower while silent corruption is possible"
            .into(),
    }
}

// ---------------------------------------------------------------------
// Extension: §6 future work — software-controlled replication
// ---------------------------------------------------------------------

/// The paper's §6 future work, realised: software hints that deny
/// replication for low-value data. Compares unhinted ICR-P-PS (S) with a
/// hinted variant that only replicates each app's hot region.
pub fn hints_ablation(opts: &ExpOptions) -> FigureResult {
    let unhinted = DataL1Config::paper_default(Scheme::ICR_P_PS_S);
    // Hot-region blocks live at the front of each app's data segment;
    // deny everything past the first 16KB so replication effort focuses
    // on the data that is actually hot.
    let mut hinted = unhinted.clone();
    hinted.hints = ReplicationHints::new()
        .deny(0x1000_4000..u64::MAX)
        .replicas(0x1000_0000..0x1000_4000, 1);
    replica_vs_miss(
        "hints",
        "§6 future work: software-directed replication (hot region only)",
        "hinted replication keeps most of the hot-load coverage while cutting \
         the replica-induced miss inflation on spread-out data",
        &[v("no hints", unhinted), v("hot-only hints", hinted)],
        opts,
    )
}

// ---------------------------------------------------------------------
// Extension: the Kim–Somani duplication-cache comparison ([11])
// ---------------------------------------------------------------------

/// ICR's §5.2 claim vs the area-cost alternative: "hot data items are
/// getting automatically replicated (we do not need a separate cache for
/// achieving this compared to that needed by \[11\])". Sweeps a Kim–Somani
/// duplicate store from 8 to 64 blocks on BaseP and compares its
/// unrecoverable-load rate (under random faults at p = 10⁻²) against
/// zero-extra-area ICR-P-PS (S).
pub fn dupcache(opts: &ExpOptions) -> FigureResult {
    let fault = Some(storm(ErrorModel::Random, 1e-2, opts.seed));
    let mut variants: Vec<Variant> = vec![
        (
            "BaseP".into(),
            DataL1Config::paper_default(Scheme::BASE_P),
            fault,
        ),
        (
            "ICR-P-PS (S), +0 area".into(),
            DataL1Config::paper_default(Scheme::ICR_P_PS_S),
            fault,
        ),
    ];
    for blocks in [8usize, 16, 32, 64] {
        let mut cfg = DataL1Config::paper_default(Scheme::BASE_P);
        cfg.duplication_cache = Some(blocks);
        variants.push((format!("dup-cache {blocks} blk"), cfg, fault));
    }
    figure_over_apps(
        "dupcache",
        "Kim–Somani duplication cache vs zero-area ICR (random faults, p=1e-2)",
        "% unrecoverable loads",
        "ICR reaches duplicate-store-class recoverability without the extra array",
        &variants,
        opts,
        |r, _| 100.0 * r.icr.unrecoverable_load_fraction(),
    )
}

// ---------------------------------------------------------------------
// Extension: seed-stability of the headline numbers
// ---------------------------------------------------------------------

/// Runs the Figure-12 headline comparison over several independent
/// workload seeds and reports mean ± 95% CI of the normalized cycles —
/// statistical hygiene the single-run original could not offer. The
/// `ci95` series carry the half-widths for each scheme.
pub fn stability(opts: &ExpOptions) -> FigureResult {
    use crate::stats::Summary;
    const SEEDS: u64 = 5;
    let schemes = [
        Scheme::BASE_P,
        Scheme::BASE_ECC,
        Scheme::ICR_P_PS_S,
        Scheme::ICR_ECC_PS_S,
    ];
    // Seed-major columns, so each seed's eight apps sit side by side.
    let cols: Vec<(u64, &str)> = (0..SEEDS)
        .flat_map(|k| APP_NAMES.map(|app| (opts.seed.wrapping_add(k.wrapping_mul(7919)), app)))
        .collect();
    let grid = run_grid(opts, &schemes, &cols, |&scheme, &(seed, app)| {
        SimConfig::paper(
            app,
            DataL1Config::paper_default(scheme),
            opts.instructions,
            seed,
        )
    });
    // Per-seed 8-app average of normalized cycles, summarised per scheme.
    let mut series = Vec::new();
    for (scheme, row) in schemes.iter().zip(&grid).skip(1) {
        let label = scheme.name();
        let samples: Vec<f64> = ratio(row, &grid[0], cycles)
            .chunks(APP_NAMES.len())
            .map(|apps| apps.iter().sum::<f64>() / apps.len() as f64)
            .collect();
        let summary = Summary::from_samples(&samples);
        series.push(Series {
            label: format!("{label} mean"),
            values: vec![summary.mean],
        });
        series.push(Series {
            label: format!("{label} ci95"),
            values: vec![summary.ci95],
        });
    }
    FigureResult {
        id: "stability".into(),
        title: format!("Seed stability of Figure 12 averages ({SEEDS} seeds)"),
        unit: "normalized cycles (mean, ±95% CI)".into(),
        xs: vec!["8-app average".into()],
        series,
        notes: "the scheme ordering must hold beyond seed noise".into(),
    }
}

// ---------------------------------------------------------------------
// Extension: background scrubbing ([21] in the paper's references)
// ---------------------------------------------------------------------

/// Scrubbing ablation: unrecoverable-load rate vs scrub interval under a
/// heavy random fault storm, for BaseECC (where scrubbing prevents
/// double-bit accumulation) and ICR-P-PS (S).
pub fn scrub(opts: &ExpOptions) -> FigureResult {
    let intervals: [Option<u64>; 4] = [None, Some(20_000), Some(4_000), Some(500)];
    let series = unrecoverable_sweep(
        opts,
        &[Scheme::BASE_ECC, Scheme::ICR_P_PS_S],
        &intervals,
        |cfg, interval| {
            cfg.fault = Some(storm(ErrorModel::Random, 2e-2, opts.seed));
            cfg.scrub = interval.map(|interval| ScrubConfig {
                interval,
                lines_per_step: 64,
            });
        },
    );
    FigureResult {
        id: "scrub".into(),
        title: "Extension: background scrubbing vs unrecoverable loads (p=2e-2)".into(),
        unit: "% unrecoverable loads (vortex)".into(),
        xs: intervals
            .iter()
            .map(|i| match i {
                None => "off".to_owned(),
                Some(v) => format!("every {v}"),
            })
            .collect(),
        series,
        notes: "scrubbing complements SEC-DED (it heals single-bit strikes before they                 pair into uncorrectable doubles) but cannot help parity-only ICR lines,                 whose losses are dirty-word detections scrubbing cannot correct"
            .into(),
    }
}

// ---------------------------------------------------------------------
// Extension: out-of-order window vs the ECC penalty
// ---------------------------------------------------------------------

/// One series per scheme after the first, labelled with it: per column,
/// its cycles over the first scheme's (BaseP's) in the same column.
fn cycles_over_base(schemes: &[Scheme], grid: &Grid) -> Vec<Series> {
    schemes
        .iter()
        .zip(grid)
        .skip(1)
        .map(|(s, row)| Series {
            label: s.name(),
            values: ratio(row, &grid[0], cycles),
        })
        .collect()
}

/// How much of the ECC latency the out-of-order window hides: sweeps the
/// RUU size and reports BaseECC's and ICR-ECC-PS (S)'s slowdown over
/// BaseP at each point. The paper's RUU is 16; wider windows absorb more
/// of the 2-cycle ECC load path, shrinking ICR's advantage — the
/// microarchitectural sensitivity behind the whole comparison.
pub fn window(opts: &ExpOptions) -> FigureResult {
    let ruu_sizes = [8usize, 16, 32, 64];
    let schemes = [Scheme::BASE_P, Scheme::BASE_ECC, Scheme::ICR_ECC_PS_S];
    let grid = run_grid(opts, &schemes, &ruu_sizes, |&scheme, &ruu| {
        let dl1 = DataL1Config::paper_default(scheme);
        let mut cfg = SimConfig::paper("gzip", dl1, opts.instructions, opts.seed);
        cfg.cpu.ruu_size = ruu;
        cfg.cpu.lsq_size = (ruu / 2).max(4);
        cfg
    });
    FigureResult {
        id: "window".into(),
        title: "Extension: RUU size vs the ECC slowdown (gzip)".into(),
        unit: "cycles / BaseP cycles at same RUU".into(),
        xs: ruu_sizes.iter().map(|r| format!("RUU {r}")).collect(),
        series: cycles_over_base(&schemes, &grid),
        notes: "with the ECC port-occupancy model, BaseECC stays *throughput*-bound: a                 wider window speeds BaseP up more than BaseECC, so the relative ECC                 penalty persists — latency can be hidden, bandwidth cannot"
            .into(),
    }
}

// ---------------------------------------------------------------------
// Extension: DRAM open-page sensitivity
// ---------------------------------------------------------------------

/// Replaces the paper's flat 100-cycle memory with an open-page DRAM
/// model (8 banks, 4KB rows, 40/100 cycles) and re-checks the headline
/// scheme ordering on the two memory-bound applications. ICR's extra
/// misses are mostly re-fetches of recently-touched rows, so open-page
/// timing softens their cost.
pub fn dram(opts: &ExpOptions) -> FigureResult {
    let schemes = [Scheme::BASE_P, Scheme::BASE_ECC, Scheme::ICR_P_PS_S];
    let memories: Vec<(&str, Option<RowBufferConfig>)> = ["mcf", "art"]
        .into_iter()
        .flat_map(|app| [(app, None), (app, Some(RowBufferConfig::default_2003()))])
        .collect();
    let grid = run_grid(opts, &schemes, &memories, |&scheme, &(app, row_buffer)| {
        let dl1 = DataL1Config::paper_default(scheme);
        let mut cfg = SimConfig::paper(app, dl1, opts.instructions, opts.seed);
        cfg.hierarchy.memory_row_buffer = row_buffer;
        cfg
    });
    FigureResult {
        id: "dram".into(),
        title: "Extension: flat vs open-page DRAM under the headline schemes".into(),
        unit: "cycles / BaseP cycles (same memory model)".into(),
        xs: memories
            .iter()
            .map(|(app, row_buffer)| match row_buffer {
                None => format!("{app} flat"),
                Some(_) => format!("{app} open-page"),
            })
            .collect(),
        series: cycles_over_base(&schemes, &grid),
        notes: "the scheme ordering must survive a more realistic memory system".into(),
    }
}

// ---------------------------------------------------------------------
// Extension: AVF-style exposure
// ---------------------------------------------------------------------

/// Time-weighted average number of words exposed to single-bit loss
/// (dirty + parity-only + unreplicated), per scheme — an architectural-
/// vulnerability-style summary of the reliability story without any
/// fault injection at all. The dL1 holds 2048 words total.
pub fn exposure(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "exposure",
        "Extension: time-averaged words exposed to single-bit loss",
        "vulnerable words (of 2048)",
        "BaseP exposes its whole dirty footprint; ICR covers it with replicas;          SEC-DED schemes expose nothing to single-bit strikes",
        &[
            paper(Scheme::BASE_P),
            paper(Scheme::ICR_P_PS_S),
            paper(Scheme::ICR_P_PS_LS),
            paper(Scheme::ICR_ECC_PS_S),
        ],
        opts,
        |r, _| r.avg_vulnerable_words,
    )
}

// ---------------------------------------------------------------------
// Extension: analytic one-shot survival (the icr-vuln model)
// ---------------------------------------------------------------------

/// Analytic probability that a uniformly-arriving single-bit strike is
/// survived (recovered or masked, i.e. not lost), per scheme — the
/// campaign's headline number computed from the exposure ledger of one
/// fault-free run per cell, with no injection trials at all. See the
/// `icr-vuln` crate docs for the model and its approximations.
pub fn vuln(opts: &ExpOptions) -> FigureResult {
    figure_over_apps(
        "vuln",
        "Extension: analytic one-shot survival probability (icr-vuln)",
        "P(survived | strike on a valid word)",
        "single-pass AVF accounting; cross-validated against the           Monte-Carlo campaign in icr-sim/tests/vuln_validation.rs",
        &[
            paper(Scheme::BASE_P),
            paper(Scheme::BASE_ECC),
            paper(Scheme::ICR_P_PS_S),
            paper(Scheme::ICR_P_PP_S),
            paper(Scheme::ICR_ECC_PS_S),
        ],
        opts,
        |r, _| r.exposure.one_shot_survived(),
    )
}

// ---------------------------------------------------------------------
// Extension: silent data corruption under the adjacent-bit model
// ---------------------------------------------------------------------

/// Silent data corruption: the adjacent-bit model flips two neighbouring
/// bits, which byte parity misses whenever both land in one byte. An
/// oracle shadow counts loads that consumed wrong data with clean checks.
/// The PP schemes' primary/replica *comparison* catches what parity
/// cannot — the NMR coverage the paper alludes to in §1.
pub fn sdc(opts: &ExpOptions) -> FigureResult {
    let fault = Some(storm(ErrorModel::Adjacent, 1e-2, opts.seed));
    let variants: Vec<Variant> = [
        Scheme::BASE_P,
        Scheme::ICR_P_PS_S,
        Scheme::ICR_P_PP_S,
        Scheme::BASE_ECC,
    ]
    .into_iter()
    .map(|scheme| {
        let mut cfg = DataL1Config::paper_default(scheme);
        cfg.oracle = true;
        (scheme.name(), cfg, fault)
    })
    .collect();
    let grid = run_apps(opts, &variants, &APP_NAMES);
    let silent = variants.iter().zip(&grid).map(|((label, ..), row)| {
        let values = each(row, |r| r.icr.silent_corruptions as f64);
        (format!("{label} silent"), values)
    });
    // One extra series: how many aliased errors PP's compare caught.
    let caught = each(&grid[2], |r| r.icr.errors_caught_by_compare as f64);
    app_figure(
        "sdc",
        "Extension: silent corruption under adjacent-bit faults (p=1e-2)",
        "silently consumed corruptions (count)",
        "parity-based schemes consume same-byte double flips silently; the PP                 compare converts them into detected (and often recovered) errors;                 SEC-DED detects all double flips outright",
        &APP_NAMES,
        silent.chain([("PP compare catches".into(), caught)]),
    )
}

// ---------------------------------------------------------------------
// Execution-driven ISA kernels (extension)
// ---------------------------------------------------------------------

/// Extension: the default scheme matrix over the execution-driven
/// `isa:*` kernels instead of the synthetic SPEC profiles.
///
/// Reports IPC relative to `BaseP` for each kernel under the paper's
/// four headline schemes, with replication-capable schemes resolving
/// their traces through the RV32IM interpreter (see the `icr-isa`
/// crate). Deliberately **not** part of [`figure_runners`]: the default
/// `icr-exp all` figure set — and its pinned golden digest — stays
/// byte-identical; run this via `icr-exp isa`.
pub fn isa_matrix(opts: &ExpOptions) -> FigureResult {
    let variants = [
        paper(Scheme::BASE_P),
        paper(Scheme::BASE_ECC),
        paper(Scheme::ICR_P_PS_LS),
        paper(Scheme::ICR_ECC_PP_LS),
    ];
    let grid = run_apps(opts, &variants, &ISA_APP_NAMES);
    app_figure(
        "isa",
        "Extension: scheme matrix over execution-driven RV32IM kernels",
        "IPC relative to BaseP",
        "traces come from interpreting real programs to completion rather than \
         from synthetic profiles; short kernels may retire before the \
         instruction budget",
        &ISA_APP_NAMES,
        versus_first(&variants, &grid, |r, base| {
            r.pipeline.ipc() / base.pipeline.ipc()
        }),
    )
}

// ---------------------------------------------------------------------
// Extension: the L2 spill tier of the scheme descriptor
// ---------------------------------------------------------------------

/// Extension: what the descriptor's spill placement tier buys.
///
/// Pairs each dL1-only scheme with its `+L2` spill variant and reports
/// the analytic one-shot survival probability (the AVF-weighted chance
/// a uniformly-arriving strike is recovered or masked) across the eight
/// applications, plus — for the spill variants — how often replication
/// would have been refused outright but found a home in the L2 region,
/// and how many dL1 load misses a spilled copy served with verified
/// read-back. Like [`isa_matrix`], deliberately **not** part of
/// [`figure_runners`]: the default `icr-exp all` figure set and its
/// pinned golden digest stay byte-identical; run this via
/// `icr-exp spill`.
pub fn spill_matrix(opts: &ExpOptions) -> FigureResult {
    let variants = [
        paper(Scheme::ICR_P_PS_S),
        v(
            "ICR-P-PS (S) +L2",
            DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2),
        ),
        paper(Scheme::ICR_ECC_PS_S),
        v(
            "ICR-ECC-PS (S) +L2",
            DataL1Config::paper_default(Scheme::ICR_ECC_PS_S_L2),
        ),
    ];
    let grid = run_apps(opts, &variants, &APP_NAMES);
    let rows = || variants.iter().zip(&grid);
    let survival = rows().map(|((label, ..), row)| {
        let values = each(row, |r| r.exposure.one_shot_survived());
        (format!("{label} survival"), values)
    });
    // The spill variants' extra coverage, in raw event counts: replicas
    // that only existed because the region took them, and load misses a
    // spilled copy answered.
    let events = rows()
        .filter(|(_, row)| row.iter().any(|r| r.icr.spills_created > 0))
        .flat_map(|((label, ..), row)| {
            [
                (
                    format!("{label} spills"),
                    each(row, |r| r.icr.spills_created as f64),
                ),
                (
                    format!("{label} spill serves"),
                    each(row, |r| r.icr.misses_served_by_spill as f64),
                ),
            ]
        });
    app_figure(
        "spill",
        "Extension: spill-to-L2 replica placement vs dL1-only",
        "P(survived | strike on a valid word); counts for event series",
        "the +L2 variants spill replicas that found no dead dL1 block into a \
         replica-aware L2 region (verified read-back on dL1 load misses, \
         invalidation on dirty writeback), so their survival can only meet or \
         beat the dL1-only scheme at the cost of L2-latency recoveries",
        &APP_NAMES,
        survival.chain(events),
    )
}

/// One figure runner with its id, as listed by [`figure_runners`].
pub type FigureRunner = (&'static str, fn(&ExpOptions) -> FigureResult);

/// The figure runners behind [`all_figures`], with their ids, in
/// emission order. Exposed so the bench harness can time each figure
/// individually through the same scheduler.
pub fn figure_runners() -> Vec<FigureRunner> {
    vec![
        ("fig1", fig1),
        ("fig2", fig2),
        ("fig3", fig3),
        ("fig4", fig4),
        ("fig5", fig5),
        ("fig6", fig6),
        ("fig7", fig7),
        ("fig8", fig8),
        ("fig9", fig9),
        ("fig10", fig10),
        ("fig11", fig11),
        ("fig12", fig12),
        ("fig13", fig13),
        ("fig14", fig14),
        ("fig15", fig15),
        ("sens", sensitivity),
        ("fig16", fig16),
        ("fig17", fig17),
        ("victim", victim_ablation),
        ("models", error_models),
        ("hints", hints_ablation),
        ("dupcache", dupcache),
        ("stability", stability),
        ("scrub", scrub),
        ("window", window),
        ("dram", dram),
        ("exposure", exposure),
        ("vuln", vuln),
        ("sdc", sdc),
    ]
}

/// Every figure runner, for `icr-exp all` and the benches.
///
/// Figures are pipelined through the [`Pool`] at *figure* granularity:
/// each runner is one job (and fans its own cells out through the same
/// engine), so a long tail figure no longer serialises the figures after
/// it. Results come back in emission order regardless of the worker
/// count, and every cell still deduplicates through the process-wide
/// [`Engine`] — the emitted numbers are identical to the serial path's.
pub fn all_figures(opts: &ExpOptions) -> Vec<FigureResult> {
    opts.pool().run(figure_runners(), |(_, f)| f(opts))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpOptions {
        ExpOptions {
            instructions: 8_000,
            seed: 7,
            threads: 0,
        }
    }

    #[test]
    fn table1_mentions_key_parameters() {
        let t = table1();
        assert!(t.contains("16KB"));
        assert!(t.contains("256KB"));
        assert!(t.contains("100 cycle"));
    }

    #[test]
    fn fig1_has_two_series_over_nine_xs() {
        let r = fig1(&tiny());
        r.validate().unwrap();
        assert_eq!(r.series.len(), 2);
        assert_eq!(r.xs.len(), 9); // 8 apps + AVG
    }

    #[test]
    fn fig9_normalizes_basep_to_one() {
        let r = fig9(&tiny());
        r.validate().unwrap();
        for x in &r.xs {
            let v = r.value("BaseP", x).expect("BaseP present");
            assert!((v - 1.0).abs() < 1e-12, "{x}: BaseP must be 1.0, got {v}");
        }
        // BaseECC must cost more than BaseP everywhere.
        assert!(r.series_mean("BaseECC").expect("present") > 1.0);
    }

    #[test]
    fn spill_matrix_pairs_every_scheme_with_its_l2_variant() {
        let r = spill_matrix(&tiny());
        r.validate().unwrap();
        assert_eq!(r.xs.len(), 9); // 8 apps + AVG
                                   // Four survival series, all probabilities.
        for label in [
            "ICR-P-PS (S) survival",
            "ICR-P-PS (S) +L2 survival",
            "ICR-ECC-PS (S) survival",
            "ICR-ECC-PS (S) +L2 survival",
        ] {
            let s = r
                .series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"));
            assert!(s.values.iter().all(|v| (0.0..=1.0).contains(v)), "{label}");
        }
        // Only the +L2 variants spill, and they actually did.
        for label in ["ICR-P-PS (S) +L2 spills", "ICR-ECC-PS (S) +L2 spills"] {
            let s = r
                .series
                .iter()
                .find(|s| s.label == label)
                .unwrap_or_else(|| panic!("missing series {label}"));
            assert!(s.values.iter().sum::<f64>() > 0.0, "{label} never fired");
        }
        assert!(!r.series.iter().any(|s| s.label == "ICR-P-PS (S) spills"));
    }

    #[test]
    fn spill_matrix_stays_out_of_the_default_figure_set() {
        // The golden digest pins the default `icr-exp all` bytes; the
        // spill figure (like `isa`) must never join that set.
        for (id, _) in figure_runners() {
            assert_ne!(id, "spill");
            assert_ne!(id, "isa");
        }
    }

    #[test]
    fn fig14_reports_percentages() {
        let opts = ExpOptions {
            instructions: 5_000,
            seed: 3,
            threads: 0,
        };
        let r = fig14(&opts);
        r.validate().unwrap();
        for s in &r.series {
            for &val in &s.values {
                assert!((0.0..=100.0).contains(&val));
            }
        }
    }
}
