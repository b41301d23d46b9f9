//! The eight SPEC2000 stand-ins the experiments run.
//!
//! The paper evaluates "eight applications from the Spec2000 suite" and its
//! figures name `gzip, vpr, gcc, mcf, parser, mesa, vortex` plus averages;
//! we complete the set with `art`. Profiles are tuned so that, against the
//! paper's 16KB/4-way/64B dL1 (256 blocks), the *relative* behaviours the
//! paper leans on hold:
//!
//! * **mcf** — pointer chasing over a footprint ≫ cache: very poor
//!   locality, the highest miss rate, so replica-induced evictions cost
//!   nothing (Fig. 8) and nearly every load's block was recently installed
//!   and replicated (Fig. 7: ≈ complete duplication under LS);
//! * **mesa** — working set comparable to the cache, so extra replicas
//!   visibly displace useful blocks (Fig. 4: miss rate nearly doubles with
//!   two replicas);
//! * **gzip/gcc/parser/vortex/vpr** — conventional integer codes with a
//!   hot kernel that gets automatically replicated;
//! * **art** — FP streaming with a modest hot set.

use crate::profile::{AppProfile, BranchProfile, LocalityProfile, OpMix};

/// Names of the eight applications, in the order figures print them.
pub const APP_NAMES: [&str; 8] = [
    "gzip", "vpr", "gcc", "mcf", "parser", "mesa", "vortex", "art",
];

/// Execution-driven RISC-V kernels served by the `icr-isa` interpreter
/// through the [`crate::store::WorkloadSource`] seam. These names have no
/// synthetic profile — [`try_profile`] refuses them; resolve them through
/// [`crate::store::global`] after the interpreter crate has installed its
/// source.
pub const ISA_APP_NAMES: [&str; 7] = [
    "isa:bubble",
    "isa:qsort",
    "isa:matmul",
    "isa:chase",
    "isa:strsearch",
    "isa:lz",
    "isa:checksum",
];

/// Additional workloads beyond the paper's eight: four more SPEC2000
/// stand-ins for robustness studies (`bzip2, twolf, crafty, gap`) plus
/// the execution-driven [`ISA_APP_NAMES`] kernels.
pub const EXTENDED_APP_NAMES: [&str; 11] = [
    "bzip2",
    "twolf",
    "crafty",
    "gap",
    "isa:bubble",
    "isa:qsort",
    "isa:matmul",
    "isa:chase",
    "isa:strsearch",
    "isa:lz",
    "isa:checksum",
];

/// An application name no synthetic profile exists for — either a name
/// nobody knows, or an `isa:*` workload that must resolve through a
/// registered [`crate::store::WorkloadSource`] instead of a profile.
///
/// CLIs map this to their exit-2 invalid-invocation contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAppError {
    /// The offending application name.
    pub name: String,
}

impl UnknownAppError {
    /// `true` when the name is a syntactically-valid `isa:*` workload
    /// that simply has no *synthetic* profile (it may still resolve
    /// through the workload store once the interpreter is installed).
    pub fn is_execution_driven(&self) -> bool {
        self.name.starts_with("isa:")
    }
}

impl std::fmt::Display for UnknownAppError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_execution_driven() {
            write!(
                f,
                "unknown application profile {:?}: isa:* workloads are execution-driven; \
                 resolve them through the WorkloadStore after icr_isa::install()",
                self.name
            )
        } else {
            write!(
                f,
                "unknown application {:?}; expected one of {APP_NAMES:?} or {EXTENDED_APP_NAMES:?}",
                self.name
            )
        }
    }
}

impl std::error::Error for UnknownAppError {}

/// Builds the profile for one application by name, or a typed
/// [`UnknownAppError`] for names with no synthetic profile.
pub fn try_profile(name: &str) -> Result<AppProfile, UnknownAppError> {
    let p = match name {
        "gzip" => gzip(),
        "vpr" => vpr(),
        "gcc" => gcc(),
        "mcf" => mcf(),
        "parser" => parser(),
        "mesa" => mesa(),
        "vortex" => vortex(),
        "art" => art(),
        "bzip2" => bzip2(),
        "twolf" => twolf(),
        "crafty" => crafty(),
        "gap" => gap(),
        other => {
            return Err(UnknownAppError {
                name: other.to_owned(),
            })
        }
    };
    debug_assert!(p.validate().is_ok(), "built-in profile must validate");
    Ok(p)
}

/// All eight profiles, in [`APP_NAMES`] order.
pub fn all_profiles() -> Vec<AppProfile> {
    APP_NAMES
        .iter()
        .map(|n| try_profile(n).expect("every APP_NAMES entry has a profile"))
        .collect()
}

fn base(name: &str, mix: OpMix, locality: LocalityProfile, branch: BranchProfile) -> AppProfile {
    AppProfile {
        name: name.to_owned(),
        mix,
        locality,
        branch,
        data_base: 0x1000_0000,
        code_base: 0x0040_0000,
    }
}

fn gzip() -> AppProfile {
    // Compression: strided streaming over buffers plus a hot dictionary.
    base(
        "gzip",
        OpMix {
            load: 0.22,
            store: 0.12,
            branch: 0.13,
            int_alu: 0.50,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 64,
            warm_blocks: 224,
            cold_blocks: 8192,
            p_hot: 0.80,
            p_warm: 0.14,
            stride_fraction: 0.90,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.05,
            warm_dwell: 48,
            hot_confined: false,
        },
        BranchProfile {
            sites: 256,
            taken_rate: 0.62,
            predictability: 0.90,
        },
    )
}

fn vpr() -> AppProfile {
    // Place & route: hot netlist structures, moderate spread.
    base(
        "vpr",
        OpMix {
            load: 0.26,
            store: 0.09,
            branch: 0.14,
            int_alu: 0.42,
            int_mul: 0.01,
            fp_alu: 0.06,
            fp_mul: 0.02,
        },
        LocalityProfile {
            hot_blocks: 80,
            warm_blocks: 208,
            cold_blocks: 8192,
            p_hot: 0.82,
            p_warm: 0.14,
            stride_fraction: 0.50,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.2,
            warm_dwell: 32,
            hot_confined: true,
        },
        BranchProfile {
            sites: 512,
            taken_rate: 0.55,
            predictability: 0.78,
        },
    )
}

fn gcc() -> AppProfile {
    // Compiler: big code and data footprints, branchy.
    base(
        "gcc",
        OpMix {
            load: 0.25,
            store: 0.11,
            branch: 0.17,
            int_alu: 0.44,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 96,
            warm_blocks: 288,
            cold_blocks: 16384,
            p_hot: 0.78,
            p_warm: 0.16,
            stride_fraction: 0.55,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.06,
            warm_dwell: 24,
            hot_confined: false,
        },
        BranchProfile {
            sites: 2048,
            taken_rate: 0.58,
            predictability: 0.72,
        },
    )
}

fn mcf() -> AppProfile {
    // Network-simplex pointer chasing: footprint >> cache, awful locality.
    base(
        "mcf",
        OpMix {
            load: 0.33,
            store: 0.09,
            branch: 0.15,
            int_alu: 0.41,
            int_mul: 0.01,
            fp_alu: 0.005,
            fp_mul: 0.005,
        },
        LocalityProfile {
            hot_blocks: 48,
            warm_blocks: 8192,
            cold_blocks: 131_072,
            p_hot: 0.58,
            p_warm: 0.28,
            stride_fraction: 0.05,
            pointer_chase: true,
            store_hot_bias: 1.0,
            store_reuse: 0.32,
            warm_dwell: 8,
            hot_confined: true,
        },
        BranchProfile {
            sites: 192,
            taken_rate: 0.52,
            predictability: 0.65,
        },
    )
}

fn parser() -> AppProfile {
    // Link grammar parser: dictionary-heavy, decent locality.
    base(
        "parser",
        OpMix {
            load: 0.24,
            store: 0.10,
            branch: 0.16,
            int_alu: 0.47,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 72,
            warm_blocks: 224,
            cold_blocks: 8192,
            p_hot: 0.81,
            p_warm: 0.14,
            stride_fraction: 0.50,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.04,
            warm_dwell: 32,
            hot_confined: false,
        },
        BranchProfile {
            sites: 768,
            taken_rate: 0.56,
            predictability: 0.75,
        },
    )
}

fn mesa() -> AppProfile {
    // 3D rendering: FP pipeline whose working set just fits the cache, so
    // replica pressure shows up directly in the miss rate (Figure 4).
    base(
        "mesa",
        OpMix::fp_default(),
        LocalityProfile {
            hot_blocks: 80,
            warm_blocks: 128,
            cold_blocks: 4096,
            p_hot: 0.58,
            p_warm: 0.38,
            stride_fraction: 0.80,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.02,
            warm_dwell: 40,
            hot_confined: false,
        },
        BranchProfile {
            sites: 160,
            taken_rate: 0.70,
            predictability: 0.94,
        },
    )
}

fn vortex() -> AppProfile {
    // OO database: store-rich, mid-size working set.
    base(
        "vortex",
        OpMix {
            load: 0.25,
            store: 0.15,
            branch: 0.14,
            int_alu: 0.43,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 88,
            warm_blocks: 224,
            cold_blocks: 16384,
            p_hot: 0.81,
            p_warm: 0.14,
            stride_fraction: 0.45,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.06,
            warm_dwell: 32,
            hot_confined: false,
        },
        BranchProfile {
            sites: 1024,
            taken_rate: 0.60,
            predictability: 0.85,
        },
    )
}

fn art() -> AppProfile {
    // Neural-net image recognition: FP streaming over arrays that spill
    // the cache — the highest miss rate after mcf.
    base(
        "art",
        OpMix {
            load: 0.30,
            store: 0.07,
            branch: 0.08,
            int_alu: 0.26,
            int_mul: 0.01,
            fp_alu: 0.21,
            fp_mul: 0.07,
        },
        LocalityProfile {
            hot_blocks: 32,
            warm_blocks: 384,
            cold_blocks: 8192,
            p_hot: 0.50,
            p_warm: 0.34,
            stride_fraction: 0.92,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.02,
            warm_dwell: 12,
            hot_confined: false,
        },
        BranchProfile {
            sites: 96,
            taken_rate: 0.75,
            predictability: 0.95,
        },
    )
}

fn bzip2() -> AppProfile {
    // Block-sorting compression: large sequential buffers plus a hot
    // suffix-array working set.
    base(
        "bzip2",
        OpMix {
            load: 0.23,
            store: 0.11,
            branch: 0.12,
            int_alu: 0.51,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 72,
            warm_blocks: 256,
            cold_blocks: 16384,
            p_hot: 0.76,
            p_warm: 0.16,
            stride_fraction: 0.92,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.05,
            warm_dwell: 40,
            hot_confined: false,
        },
        BranchProfile {
            sites: 320,
            taken_rate: 0.60,
            predictability: 0.88,
        },
    )
}

fn twolf() -> AppProfile {
    // Standard-cell place & route: like vpr but with a larger, less
    // predictable netlist.
    base(
        "twolf",
        OpMix {
            load: 0.26,
            store: 0.09,
            branch: 0.15,
            int_alu: 0.41,
            int_mul: 0.01,
            fp_alu: 0.06,
            fp_mul: 0.02,
        },
        LocalityProfile {
            hot_blocks: 96,
            warm_blocks: 320,
            cold_blocks: 12288,
            p_hot: 0.76,
            p_warm: 0.17,
            stride_fraction: 0.30,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.10,
            warm_dwell: 28,
            hot_confined: true,
        },
        BranchProfile {
            sites: 640,
            taken_rate: 0.54,
            predictability: 0.72,
        },
    )
}

fn crafty() -> AppProfile {
    // Chess search: hot board/hash state, highly branchy, light on
    // stores.
    base(
        "crafty",
        OpMix {
            load: 0.27,
            store: 0.06,
            branch: 0.16,
            int_alu: 0.48,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 56,
            warm_blocks: 384,
            cold_blocks: 8192,
            p_hot: 0.80,
            p_warm: 0.15,
            stride_fraction: 0.20,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.03,
            warm_dwell: 36,
            hot_confined: false,
        },
        BranchProfile {
            sites: 1280,
            taken_rate: 0.55,
            predictability: 0.80,
        },
    )
}

fn gap() -> AppProfile {
    // Group-theory interpreter: pointer-rich heaps, moderate locality.
    base(
        "gap",
        OpMix {
            load: 0.28,
            store: 0.12,
            branch: 0.14,
            int_alu: 0.43,
            int_mul: 0.01,
            fp_alu: 0.01,
            fp_mul: 0.01,
        },
        LocalityProfile {
            hot_blocks: 88,
            warm_blocks: 448,
            cold_blocks: 16384,
            p_hot: 0.74,
            p_warm: 0.19,
            stride_fraction: 0.25,
            pointer_chase: false,
            store_hot_bias: 1.0,
            store_reuse: 0.08,
            warm_dwell: 20,
            hot_confined: false,
        },
        BranchProfile {
            sites: 896,
            taken_rate: 0.58,
            predictability: 0.78,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_eight_profiles_validate() {
        let all = all_profiles();
        assert_eq!(all.len(), 8);
        for p in &all {
            p.validate().unwrap_or_else(|e| panic!("{}: {e}", p.name));
        }
    }

    #[test]
    fn names_match_order() {
        for (i, p) in all_profiles().iter().enumerate() {
            assert_eq!(p.name, APP_NAMES[i]);
        }
    }

    #[test]
    fn mcf_has_worst_locality() {
        let mcf = try_profile("mcf").unwrap();
        assert!(mcf.locality.pointer_chase, "mcf pointer-chases");
        for name in APP_NAMES {
            if name == "mcf" {
                continue;
            }
            let other = try_profile(name).unwrap();
            assert!(
                mcf.locality.cold_blocks > other.locality.cold_blocks,
                "mcf's cold footprint must be the largest (vs {name})"
            );
            assert!(
                !other.locality.pointer_chase,
                "only mcf pointer-chases (vs {name})"
            );
        }
    }

    #[test]
    fn mesa_working_set_is_cache_scale() {
        // The dL1 holds 256 blocks; mesa's hot+warm set should be in that
        // neighbourhood so replicas displace useful data.
        let mesa = try_profile("mesa").unwrap();
        let core = mesa.locality.hot_blocks + mesa.locality.warm_blocks;
        assert!((180..=600).contains(&core), "got {core}");
    }

    #[test]
    fn extended_profiles_validate() {
        for name in EXTENDED_APP_NAMES {
            if name.starts_with("isa:") {
                continue; // execution-driven: no synthetic profile
            }
            try_profile(name)
                .unwrap()
                .validate()
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn isa_names_are_published_through_extended_names() {
        for name in ISA_APP_NAMES {
            assert!(name.starts_with("isa:"));
            assert!(
                EXTENDED_APP_NAMES.contains(&name),
                "{name} missing from EXTENDED_APP_NAMES"
            );
        }
        assert!(
            !APP_NAMES.iter().any(|n| n.starts_with("isa:")),
            "the default roster stays synthetic"
        );
    }

    #[test]
    fn try_profile_returns_typed_errors_instead_of_aborting() {
        for name in APP_NAMES {
            assert!(try_profile(name).is_ok());
        }
        let err = try_profile("doom").unwrap_err();
        assert_eq!(err.name, "doom");
        assert!(!err.is_execution_driven());
        assert!(err.to_string().contains("unknown application"));
        let isa = try_profile("isa:bubble").unwrap_err();
        assert!(isa.is_execution_driven());
        assert!(isa.to_string().contains("execution-driven"));
    }
}
