//! Byte-level pin of the default figure matrix across the ISA-frontend
//! work: execution-driven `isa:*` workloads join the app roster via
//! `EXTENDED_APP_NAMES` only, so the document `icr-exp all --json`
//! emits — every figure id, x label, series label and number token —
//! must not move. The digest below was recorded from the tree *before*
//! the `icr-isa` crate existed; this test re-derives the document
//! through the same `all_figures` + join path the binary uses (at a
//! reduced instruction budget so the whole matrix fits in tier-1 time)
//! and compares bytes.
//!
//! The same budget pins the outputs no `all` digest covers: the `isa`
//! and `spill` matrices (kept out of `all`), the `VulnReport` and
//! `AuditReport` JSON of a small scheme × app spec, and the
//! `SimResult` JSON of a faulted L2-spill run.
//!
//! Regenerate (only when a PR *deliberately* changes figure output)
//! with:
//!
//! ```text
//! cargo test -p icr-sim --test golden_figures --release -- \
//!     --ignored record_golden_digest --nocapture
//! ```

use icr_core::{DataL1Config, Scheme};
use icr_fault::ErrorModel;
use icr_sim::checkpoint::fnv1a64;
use icr_sim::experiment::{all_figures, figure_runners, isa_matrix, spill_matrix, ExpOptions};
use icr_sim::{run_audit, run_sim, run_vuln, AuditSpec, FaultConfig, SimConfig, VulnSpec};
use icr_trace::apps::{APP_NAMES, EXTENDED_APP_NAMES};

/// The budget the pin runs at. Small enough for debug-mode tier-1,
/// large enough that every figure exercises fills, evictions,
/// replication, decay and write-back traffic.
const GOLDEN_INSTRUCTIONS: u64 = 3_000;
const GOLDEN_SEED: u64 = 42;

fn golden_opts() -> ExpOptions {
    ExpOptions {
        instructions: GOLDEN_INSTRUCTIONS,
        seed: GOLDEN_SEED,
        threads: 0,
    }
}

/// Builds the exact document `icr-exp all --json` writes, at the test
/// budget, once every figure has passed `FigureResult::validate`.
fn all_json_document() -> String {
    let figures = all_figures(&golden_opts());
    for f in &figures {
        assert_eq!(f.validate(), Ok(()), "figure {} is inconsistent", f.id);
    }
    let body = figures
        .iter()
        .map(|f| f.to_json())
        .collect::<Vec<_>>()
        .join(",\n");
    format!("[\n{body}\n]")
}

/// Recorded from the pre-`icr-isa` tree. If this moves, the default
/// figure matrix's bytes moved.
const GOLDEN_DIGEST: u64 = 0x0e9b_bc95_d77e_6ac3; // 29 figures, 25060 bytes

/// The schemes and apps of the small vuln/audit pin: a parity and an
/// ECC replicating scheme next to BaseP, one spill descriptor, and two
/// apps with different locality.
fn pin_schemes() -> Vec<Scheme> {
    vec![
        Scheme::BASE_P,
        Scheme::ICR_P_PS_S,
        Scheme::ICR_ECC_PP_LS,
        Scheme::ICR_P_PS_S_L2,
    ]
}

fn pin_apps() -> Vec<String> {
    vec!["gzip".into(), "mcf".into()]
}

/// An `ICR-P-PS-L2 (S)` run under random-model faults: the one pinned
/// `SimResult` whose reliability section counts injected, detected and
/// recovered faults (the figures' runs are fault-free).
fn faulted_spill_run() -> SimConfig {
    SimConfig::builder("gzip", DataL1Config::paper_default(Scheme::ICR_P_PS_S_L2))
        .instructions(GOLDEN_INSTRUCTIONS)
        .seed(GOLDEN_SEED)
        .fault(FaultConfig {
            model: ErrorModel::Random,
            p_per_cycle: 0.004,
            seed: GOLDEN_SEED + 1,
            max_faults: None,
        })
        .build()
}

/// The outputs outside the `all` document, each by name, at the test
/// budget.
fn side_documents() -> [(&'static str, String); 5] {
    let opts = golden_opts();
    let vuln = VulnSpec::new(pin_schemes(), pin_apps(), GOLDEN_INSTRUCTIONS, GOLDEN_SEED);
    let audit = AuditSpec::new(pin_schemes(), pin_apps(), GOLDEN_INSTRUCTIONS, GOLDEN_SEED);
    [
        ("GOLDEN_ISA", isa_matrix(&opts).to_json()),
        ("GOLDEN_SPILL", spill_matrix(&opts).to_json()),
        ("GOLDEN_VULN", run_vuln(&vuln).to_json()),
        ("GOLDEN_AUDIT", run_audit(&audit).to_json()),
        (
            "GOLDEN_FAULTED_RUN",
            run_sim(&faulted_spill_run()).to_json(),
        ),
    ]
}

#[test]
#[ignore = "fixture recorder, run explicitly with --ignored"]
fn record_golden_digest() {
    let doc = all_json_document();
    println!(
        "const GOLDEN_DIGEST: u64 = {:#018x}; // {} figures, {} bytes",
        fnv1a64(doc.as_bytes()),
        doc.matches("\"id\":").count(),
        doc.len()
    );
    for (name, doc) in side_documents() {
        println!(
            "const {name}: u64 = {:#018x}; // {} bytes",
            fnv1a64(doc.as_bytes()),
            doc.len()
        );
    }
}

#[test]
fn default_figure_matrix_bytes_are_pinned() {
    let doc = all_json_document();
    assert_eq!(
        fnv1a64(doc.as_bytes()),
        GOLDEN_DIGEST,
        "the `icr-exp all --json` document changed; ISA workloads must \
         join via EXTENDED_APP_NAMES without touching the default matrix \
         (re-record only if the figure change is deliberate)"
    );
}

/// Recorded before the figure, vuln and audit matrices shared one grid
/// helper; these move only if those outputs' bytes moved.
const GOLDEN_ISA: u64 = 0x3c41_183b_f981_2d3f; // 656 bytes
const GOLDEN_SPILL: u64 = 0x2b8e_fdee_a4a7_cfa3; // 1647 bytes
const GOLDEN_VULN: u64 = 0x173e_4f91_41cc_ba33; // 6831 bytes
const GOLDEN_AUDIT: u64 = 0x139b_c3bd_2c77_f54a; // 951 bytes
/// Recorded before the reports shared one JSON printer (22 faults
/// injected, 4 detected, 4 healed from a replica).
const GOLDEN_FAULTED_RUN: u64 = 0xc3f7_51ef_1002_5cef; // 1049 bytes

#[test]
fn side_matrix_bytes_are_pinned() {
    let pinned = [
        GOLDEN_ISA,
        GOLDEN_SPILL,
        GOLDEN_VULN,
        GOLDEN_AUDIT,
        GOLDEN_FAULTED_RUN,
    ];
    for ((name, doc), want) in side_documents().into_iter().zip(pinned) {
        assert_eq!(fnv1a64(doc.as_bytes()), want, "the {name} document changed");
    }
}

/// The roster invariants behind the pin: the paper's eight apps are
/// untouched, no `isa:` name appears in `APP_NAMES`, and no figure
/// runner id refers to the ISA matrix.
#[test]
fn isa_workloads_join_via_extended_names_only() {
    assert_eq!(
        APP_NAMES,
        ["gzip", "vpr", "gcc", "mcf", "parser", "mesa", "vortex", "art"]
    );
    assert!(
        APP_NAMES.iter().all(|a| !a.starts_with("isa:")),
        "default app roster must stay synthetic"
    );
    assert!(
        EXTENDED_APP_NAMES.iter().any(|a| a.starts_with("isa:")),
        "execution-driven kernels are published through EXTENDED_APP_NAMES"
    );
    assert!(
        figure_runners().iter().all(|(id, _)| *id != "isa"),
        "the ISA matrix is its own subcommand, not part of `all`"
    );
}

/// The scheme-descriptor redesign's analogue of the roster invariant:
/// the ten paper presets stay the only schemes the default figures name
/// (every one a dL1-only placement), the spill figure is its own
/// subcommand, and the digest above therefore pins the paper presets'
/// default output bytes across the `SchemeSpec` rewrite.
#[test]
fn spill_descriptors_join_outside_the_default_matrix() {
    assert!(
        figure_runners().iter().all(|(id, _)| *id != "spill"),
        "the spill comparison is its own subcommand, not part of `all`"
    );
    let paper = icr_core::Scheme::all_paper_schemes();
    assert_eq!(paper.len(), 10);
    assert!(
        paper.iter().all(|s| !s.spills_to_l2()),
        "paper presets must keep replicas in the dL1 only"
    );
    // No named spill preset leaks into the pinned document.
    let doc = all_json_document();
    for s in icr_core::Scheme::all_spill_schemes() {
        assert!(
            !doc.contains(&s.name()),
            "spill scheme {} appeared in the default figure document",
            s.name()
        );
    }
}
