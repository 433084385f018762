//! `fisec cache verify` audits a store with the from-scratch oracle: a
//! freshly written store passes (a schema-1 JSON store beside it is
//! skipped), and one doctored run in the group the audit samples fails
//! the command with that group named.

use fisec_apps::AppSpec;
use fisec_core::{cache, run_campaign_cached, CampaignCache, CampaignConfig};
use fisec_telemetry::Telemetry;
use std::path::Path;
use std::process::{Command, Output};

const SEED: u64 = 2001;

fn verify(root: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fisec"))
        .args(["cache", "verify", "--seed", &SEED.to_string(), "--cache"])
        .arg(root)
        .output()
        .expect("fisec runs")
}

#[test]
fn verify_names_a_doctored_group() {
    let root = std::env::temp_dir().join(format!("fisec-verify-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let cfg = CampaignConfig {
        cond_branches_only: true,
        ..CampaignConfig::default()
    };
    let cache = CampaignCache::at(root.clone());
    run_campaign_cached(&AppSpec::ftpd(), &cfg, &Telemetry::disabled(), Some(&cache));
    let path = cache::store_paths(&root)[0].clone();
    let legacy = root.join("ftpd-Client1-base.json");
    std::fs::write(&legacy, r#"{"schema":1,"groups":[]}"#).unwrap();
    let out = verify(&root);
    assert!(out.status.success(), "an untouched store verifies");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("ftpd-Client1-base.json: invalid or stale schema — skipped"),
        "{stdout}"
    );
    std::fs::remove_file(&legacy).unwrap();

    let mut store = cache::read_store(&path).expect("a valid store");
    let idx = SEED as usize % store.groups.len();
    let entry = &mut store.groups[idx];
    let addr = entry.addr;
    let run = &mut entry.runs[0];
    run.outcome = if run.outcome == "BRK" { "NM" } else { "BRK" }.to_string();
    cache::write_store(&path, &store).unwrap();
    let out = verify(&root);
    let err = String::from_utf8_lossy(&out.stderr);
    let file = path.file_name().unwrap().to_string_lossy();
    assert!(!out.status.success(), "{err}");
    assert!(
        err.contains(&format!("{file}: group @ {addr:#010x}: 1 of")),
        "{err}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
