//! Regenerate the paper's full evaluation: Tables 1, 2, 3, 4, 5, Figure 4,
//! the §7 random-injection estimate and the §5.4 load study.
//!
//! ```text
//! cargo run --release --example campaign_report [--quick] [--from-scratch] [--no-block-cache]
//! ```
//!
//! `--quick` shrinks the random studies so the whole report finishes in
//! well under a minute. `--from-scratch` runs the campaigns on the
//! one-boot-per-experiment reference oracle instead of the default
//! checkpoint-based engine; `--no-block-cache` disables the
//! interpreter's basic-block engine. Both switches produce identical
//! results, only slower — see the "Campaign runtime" section of
//! EXPERIMENTS.md. Any other argument prints the usage and exits with
//! status 2, so a mistyped switch can never quietly select the default
//! engine.

use fisec_apps::AppSpec;
use fisec_core::{
    figure4, load, random, run_campaign, tables, CampaignConfig, CampaignSummary, EncodingScheme,
    ExecutionMode,
};

const USAGE: &str = "usage: campaign_report [--quick] [--from-scratch] [--no-block-cache]";

/// The command-line switches.
#[derive(Debug, Default, PartialEq, Eq)]
struct Flags {
    quick: bool,
    from_scratch: bool,
    no_block_cache: bool,
}

/// Parse the arguments after the program name. `Ok(None)` asks for the
/// usage text; an unknown argument is an error naming it.
fn parse_flags<I: IntoIterator<Item = String>>(args: I) -> Result<Option<Flags>, String> {
    let mut flags = Flags::default();
    for arg in args {
        match arg.as_str() {
            "--quick" => flags.quick = true,
            "--from-scratch" => flags.from_scratch = true,
            "--no-block-cache" => flags.no_block_cache = true,
            "-h" | "--help" => return Ok(None),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Some(flags))
}

fn main() {
    let flags = match parse_flags(std::env::args().skip(1)) {
        Ok(Some(flags)) => flags,
        Ok(None) => {
            println!("{USAGE}");
            return;
        }
        Err(e) => {
            eprintln!("campaign_report: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let quick = flags.quick;
    let mode = if flags.from_scratch {
        ExecutionMode::FromScratch
    } else {
        ExecutionMode::Snapshot
    };
    let random_runs = if quick { 300 } else { 3000 };
    let load_samples = if quick { 40 } else { 200 };

    let ftpd = AppSpec::ftpd();
    let sshd = AppSpec::sshd();

    println!("== Injection targets ==");
    for app in [&ftpd, &sshd] {
        let set = fisec_inject::enumerate_targets(&app.image, &app.auth_funcs, false);
        println!(
            "{}: {} control-transfer instructions ({} conditional branches), {} bits => {} runs/client; auth section = {:.1}% of text",
            app.name,
            set.instructions,
            set.cond_branches,
            set.runs(),
            set.runs(),
            app.image.text_fraction(&app.auth_funcs) * 100.0
        );
    }

    let base_cfg = CampaignConfig {
        mode,
        block_cache: !flags.no_block_cache,
        ..CampaignConfig::default()
    };
    let new_cfg = CampaignConfig {
        scheme: EncodingScheme::NewEncoding,
        ..base_cfg
    };

    eprintln!("running baseline campaigns...");
    let ftp_base = run_campaign(&ftpd, &base_cfg);
    let ssh_base = run_campaign(&sshd, &base_cfg);

    println!("\n== Table 1: FTP and SSH Result Distributions ==");
    println!("{}", tables::render_table1(&[&ftp_base, &ssh_base]));

    println!("== Table 2: Error Location Abbreviations ==");
    println!("{}", tables::render_table2());

    println!("== Table 3: Break-ins and Fail Silence Violations by Location ==");
    println!("{}", tables::render_table3(&[&ftp_base, &ssh_base]));

    println!("== Table 4: Conditional Branch Encoding Mapping ==");
    println!("{}", fisec_encoding::render_table4());

    eprintln!("running new-encoding campaigns...");
    let ftp_new = run_campaign(&ftpd, &new_cfg);
    let ssh_new = run_campaign(&sshd, &new_cfg);

    println!("== Table 5: FTP and SSH Results from New Encoding ==");
    println!(
        "{}",
        tables::render_table5(&[&ftp_base, &ssh_base], &[&ftp_new, &ssh_new])
    );

    println!("== Figure 4: Instructions between Error and Crash (FTP Client1) ==");
    let lat = &ftp_base.clients[0].crash_latencies;
    let hist = figure4::histogram(lat);
    println!("{}", figure4::render(&hist));
    let transient = ftp_base.clients[0].transient_deviations;
    println!(
        "crashes with pre-crash traffic deviation (transient vulnerability window): {} of {}\n",
        transient,
        lat.len()
    );

    eprintln!("running random-injection campaign ({random_runs} errors)...");
    println!("== §7: Random single-bit errors over the whole text segment ==");
    let r = random::run_random_campaign(&ftpd, random_runs, 2001);
    println!(
        "runs {}  no-effect {}  SD {}  FSV {}  BRK {}",
        r.runs, r.no_effect, r.sd, r.fsv, r.brk
    );
    match r.errors_per_breakin() {
        Some(n) => {
            println!("=> about one out of {n:.0} single-bit errors causes a security violation\n")
        }
        None => println!("=> no break-in in this sample\n"),
    }

    eprintln!("running load/diversity study ({load_samples} samples)...");
    println!("== §5.4: Latent-error manifestation vs. client diversity ==");
    let l = load::run_load_study(&ftpd, load_samples, 77);
    println!("{}", load::render(&l));

    // Machine-readable snapshot for EXPERIMENTS.md regression comparison.
    println!("== JSON summaries ==");
    for c in [&ftp_base, &ssh_base, &ftp_new, &ssh_new] {
        println!("{}", CampaignSummary::from(c).to_json());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Option<Flags>, String> {
        parse_flags(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn known_switches_combine_in_any_order() {
        assert_eq!(parse(&[]), Ok(Some(Flags::default())));
        assert_eq!(
            parse(&["--from-scratch", "--quick", "--no-block-cache"]),
            Ok(Some(Flags {
                quick: true,
                from_scratch: true,
                no_block_cache: true,
            }))
        );
        assert_eq!(parse(&["--help"]), Ok(None));
    }

    #[test]
    fn unknown_arguments_are_rejected_by_name() {
        for typo in ["--fromscratch", "--quik", "quick", "-q"] {
            let err = parse(&["--quick", typo]).unwrap_err();
            assert!(err.contains(typo), "{err}");
        }
    }
}
