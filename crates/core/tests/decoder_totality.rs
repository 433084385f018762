//! The decoders that read files a campaign left on disk are total: the
//! campaign-cache store codec and the random tier's ledger reader. On
//! arbitrary bytes, on every prefix of a real file (a torn write) and on
//! single-bit flips of one, they return a value or a miss/error and
//! never panic. A store image that decodes re-encodes to the same bytes,
//! and a count claiming more items than the bytes left is refused before
//! anything is allocated for it.

use fisec_apps::AppSpec;
use fisec_core::cache::{self, decode_store, encode_store, StoreFile};
use fisec_core::random::{read_ledger, run_random_streaming, RandomConfig};
use fisec_core::{run_campaign_cached, CampaignCache, CampaignConfig, EncodingScheme};
use fisec_inject::EngineOpts;
use fisec_telemetry::{JsonlSink, Telemetry};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fisec-decoders-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(name)
}

/// `(file name, bytes)` of every store a cold `table5 --app both`
/// writes (one per client, holding both schemes' rows), plus ftpd's
/// flight-recorder stores (the only ones whose runs carry divergence
/// observables).
fn cold_stores() -> &'static [(String, Vec<u8>)] {
    static STORES: OnceLock<Vec<(String, Vec<u8>)>> = OnceLock::new();
    STORES.get_or_init(|| {
        let root = scratch("stores");
        let _ = std::fs::remove_dir_all(&root);
        let cache = CampaignCache::at(root.clone());
        let tel = Telemetry::disabled();
        for app in [AppSpec::ftpd(), AppSpec::sshd()] {
            for scheme in [EncodingScheme::Baseline, EncodingScheme::NewEncoding] {
                let cfg = CampaignConfig {
                    scheme,
                    threads: 2,
                    ..CampaignConfig::default()
                };
                run_campaign_cached(&app, &cfg, &tel, Some(&cache));
            }
        }
        let recorded = CampaignConfig {
            threads: 2,
            engine: EngineOpts {
                flight_recorder: true,
                ..EngineOpts::default()
            },
            ..CampaignConfig::default()
        };
        run_campaign_cached(&AppSpec::ftpd(), &recorded, &tel, Some(&cache));
        let stores: Vec<_> = cache::store_paths(&root)
            .into_iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&p).unwrap())
            })
            .collect();
        let _ = std::fs::remove_dir_all(&root);
        stores
    })
}

fn store(name: &str) -> &'static [u8] {
    &cold_stores()
        .iter()
        .find(|(n, _)| n == name)
        .unwrap_or_else(|| panic!("no cold store {name}"))
        .1
}

/// Decode `bytes`; when it decodes, demand the same bytes back.
fn decode_checked(bytes: &[u8]) -> Option<StoreFile> {
    let file = decode_store(bytes)?;
    assert!(
        encode_store(&file) == bytes,
        "a decoded store must re-encode to the bytes it came from"
    );
    Some(file)
}

#[test]
fn every_cold_store_re_encodes_to_its_own_bytes() {
    let stores = cold_stores();
    // 6 clients, plus ftpd's 4 recorder stores.
    assert_eq!(stores.len(), 10, "{:?}", stores.iter().map(|s| &s.0));
    let texts = [AppSpec::ftpd(), AppSpec::sshd()].map(|a| (a.name, a.image.text));
    let mut with_div = 0;
    for (name, bytes) in stores {
        let file = decode_checked(bytes).unwrap_or_else(|| panic!("{name} does not decode"));
        assert!(!file.groups.is_empty(), "{name}");
        // Each store keeps the text its entries were checked against.
        let text = &texts.iter().find(|(app, _)| *app == file.app).unwrap().1;
        assert!(file.text == *text, "{name} keeps another text");
        with_div += file
            .groups
            .iter()
            .flat_map(|g| &g.rows)
            .filter(|r| matches!(r.run.1, Some((Some(_), _))))
            .count();
    }
    assert!(with_div > 0, "the recorder stores carry divergence depths");
}

#[test]
fn every_prefix_of_a_cold_store_is_a_miss() {
    let bytes = store("ftpd-Client1.store");
    for len in 0..bytes.len() {
        assert!(
            decode_store(&bytes[..len]).is_none(),
            "a {len}-byte prefix of {} decoded",
            bytes.len()
        );
    }
    // Trailing bytes are refused too.
    let mut longer = bytes.to_vec();
    longer.push(0);
    assert!(decode_store(&longer).is_none());
}

/// Offsets in an encoded store: where the text's length word starts,
/// and where the groups start.
fn text_and_groups_at(file: &StoreFile) -> (usize, usize) {
    let strings = file.app.len() + file.client.len() + file.context.len();
    let text_at = 12 + 3 * 4 + strings + 1;
    (text_at, text_at + 4 + file.text.len())
}

#[test]
fn bit_flips_in_a_cold_store_header_and_first_group_decode_totally() {
    let bytes = store("ftpd-Client1-rec.store");
    let (text_at, groups_at) = text_and_groups_at(&decode_store(bytes).unwrap());
    let mut flipped = bytes.to_vec();
    // The header, the strings and the text's length word; the first
    // bytes of the text; the first KiB of groups.
    let bits = (0..8 * (text_at + 4))
        .chain(8 * (text_at + 4)..8 * (text_at + 68))
        .chain(8 * groups_at..8 * (groups_at + 1024));
    for bit in bits {
        flipped[bit / 8] ^= 1 << (bit % 8);
        let file = decode_checked(&flipped);
        // The magic and schema word are checked before anything else.
        if bit < 8 * 12 {
            assert!(file.is_none(), "header bit {bit} flipped still decodes");
        }
        // A flipped text byte is still a text: the file decodes.
        if (8 * (text_at + 4)..8 * groups_at).contains(&bit) {
            assert!(file.is_some(), "text bit {bit} flipped does not decode");
        }
        flipped[bit / 8] ^= 1 << (bit % 8);
    }
}

#[test]
fn hostile_counts_in_a_short_file_are_misses() {
    let real = decode_store(store("ftpd-Client1.store")).unwrap();
    let with_last_u32 = |file: &StoreFile, v: u32| {
        let mut bytes = encode_store(file);
        let n = bytes.len();
        bytes[n - 4..].copy_from_slice(&v.to_le_bytes());
        bytes
    };
    // No groups: the file ends with the group count.
    let empty = StoreFile {
        groups: Vec::new(),
        ..real.clone()
    };
    assert!(decode_store(&with_last_u32(&empty, 0)).is_some());
    assert!(decode_store(&with_last_u32(&empty, u32::MAX)).is_none());
    assert!(decode_store(&with_last_u32(&empty, 1)).is_none());
    // One group without rows: the file ends with its row count.
    let mut one = real.clone();
    one.groups.truncate(1);
    one.groups[0].rows.clear();
    assert!(decode_store(&with_last_u32(&one, 0)).is_some());
    assert!(decode_store(&with_last_u32(&one, u32::MAX)).is_none());
    // A text claiming more bytes than the file holds, or fewer, which
    // leaves its last bytes to be read as the group count.
    let (text_at, _) = text_and_groups_at(&empty);
    let text_len = empty.text.len() as u32;
    for claim in [u32::MAX, text_len + 1, text_len - 1] {
        let mut bytes = encode_store(&empty);
        bytes[text_at..text_at + 4].copy_from_slice(&claim.to_le_bytes());
        assert!(decode_store(&bytes).is_none(), "text length {claim}");
    }
    // An empty text decodes (every entry under it is stale).
    let no_text = StoreFile {
        text: Vec::new(),
        ..empty.clone()
    };
    assert_eq!(decode_checked(&encode_store(&no_text)), Some(no_text));
    // A string claiming u32::MAX bytes: the app name right after the
    // 12-byte header.
    let mut bytes = encode_store(&empty);
    bytes[12..16].copy_from_slice(&u32::MAX.to_le_bytes());
    assert!(decode_store(&bytes).is_none());
    // Non-UTF-8 text and a bool tag other than 0/1.
    let mut bytes = encode_store(&empty);
    bytes[16] = 0xff;
    assert!(decode_store(&bytes).is_none());
    let app_len = real.app.len() + real.client.len();
    let recorder_at = 12 + 2 * 4 + app_len;
    let mut bytes = encode_store(&empty);
    assert_eq!(bytes[recorder_at], 0);
    bytes[recorder_at] = 2;
    assert!(decode_store(&bytes).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn store_decoder_never_panics_on_arbitrary_bytes(
        body in proptest::collection::vec(any::<u8>(), 0..400),
        header in any::<bool>(),
    ) {
        // Behind a valid header, the bytes reach the group decoder.
        let mut bytes = if header {
            store("ftpd-Client1.store")[..12].to_vec()
        } else {
            Vec::new()
        };
        bytes.extend_from_slice(&body);
        let _ = decode_checked(&bytes);
    }

    #[test]
    fn single_bit_flips_of_a_cold_store_decode_totally(pick in any::<u64>()) {
        let bytes = store("ftpd-Client2-rec.store");
        let bit = (pick % (8 * bytes.len() as u64)) as usize;
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = decode_checked(&flipped);
    }
}

/// A finished ledger of a small ftpd random campaign (4 batches).
fn ledger() -> &'static [u8] {
    static LEDGER: OnceLock<Vec<u8>> = OnceLock::new();
    LEDGER.get_or_init(|| {
        let path = scratch("ledger.jsonl");
        let tel = Telemetry::new(Arc::new(JsonlSink::create(&path).unwrap()), false);
        let cfg = RandomConfig {
            runs: 160,
            batch: 40,
            ..RandomConfig::default()
        };
        run_random_streaming(&AppSpec::ftpd(), &cfg, &tel).unwrap();
        tel.sink.flush();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).ok();
        bytes
    })
}

/// Run `read_ledger` on `bytes` through a file of `name`.
fn read_ledger_bytes(name: &str, bytes: &[u8]) -> Result<(), String> {
    let path = scratch(name);
    std::fs::write(&path, bytes).unwrap();
    let out = read_ledger(&path).map(|_| ());
    std::fs::remove_file(&path).ok();
    out
}

#[test]
fn every_prefix_of_a_ledger_reads_without_panicking() {
    let bytes = ledger();
    let full = read_ledger_bytes("full.jsonl", bytes);
    assert!(full.is_ok(), "{full:?}");
    for len in 0..bytes.len() {
        let _ = read_ledger_bytes("prefix.jsonl", &bytes[..len]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn single_bit_flips_of_a_ledger_read_without_panicking(pick in any::<u64>()) {
        let bytes = ledger();
        let bit = (pick % (8 * bytes.len() as u64)) as usize;
        let mut flipped = bytes.to_vec();
        flipped[bit / 8] ^= 1 << (bit % 8);
        let _ = read_ledger_bytes("flipped.jsonl", &flipped);
    }
}

#[test]
fn out_of_range_ledger_numbers_are_errors_not_panics() {
    let text = String::from_utf8(ledger().to_vec()).unwrap();
    for seed in ["-9223372036854775808", "-9223372036854775809", "-0"] {
        let doctored = text.replacen("\"seed\":2001", &format!("\"seed\":{seed}"), 1);
        assert_ne!(doctored, text);
        let read = read_ledger_bytes("numbers.jsonl", doctored.as_bytes());
        // A negative seed fails the header's u64 field; "-0" is 0.
        assert_eq!(read.is_ok(), seed == "-0", "{seed}: {read:?}");
    }
}
