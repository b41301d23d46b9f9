//! A campaign resume whose checkpoints cover every shard restores them
//! and simulates nothing: no cell runs its fault-free reference, neither
//! for an importance campaign's proposal nor for the call logs, and no
//! run or trace lookup reaches the engine. This binary holds this one
//! test, so the process-wide engine and trace-store counters see nothing
//! else.

use icr_core::Scheme;
use icr_sim::campaign::{run_sharded_campaign, CampaignSpec, ShardedCampaignSpec};
use icr_sim::engine::Engine;

#[test]
fn a_full_restore_resume_simulates_nothing() {
    for importance in [false, true] {
        let mut base = CampaignSpec::new(
            vec![Scheme::BASE_P, Scheme::ICR_P_PS_S],
            vec!["gzip".into()],
            6,
            5,
        );
        base.instructions = 3_000;
        base.threads = 1;
        base.importance = importance;
        let spec = ShardedCampaignSpec::new(base, 2);
        let dir = std::env::temp_dir().join(format!(
            "icr_restore_only_{importance}_{}",
            std::process::id()
        ));
        std::fs::remove_dir_all(&dir).ok();

        let straight = run_sharded_campaign(&spec, Some(&dir), false).unwrap();
        let before = Engine::global().stats();
        let resumed = run_sharded_campaign(&spec, Some(&dir), true).unwrap();
        assert_eq!(
            Engine::global().stats(),
            before,
            "importance={importance}: the resume simulated"
        );
        assert_eq!(resumed.shards_resumed, resumed.shards_done);
        assert_eq!(resumed.to_json(), straight.to_json());
        std::fs::remove_dir_all(&dir).ok();
    }
}
