//! `cache stats|compact|clear` over a cache root that also holds a log
//! directory of a retired fingerprint version (`hds1-…`). The current
//! build cannot read such a log, but it must neither hide it nor leave it
//! behind: `stats` reports it with its size, `compact` leaves it alone and
//! `clear` deletes it. Runs the released binary, so the checks are on the
//! output a shell user sees.

use std::fs;
use std::path::Path;
use std::process::Command;

const RETIRED: &str = "hds1-0123456789abcdef";
const RETIRED_SEGMENT: &[u8] = b"{\"kind\":\"empty\"}\n";

fn hdsampler(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_hdsampler"))
        .args(args)
        .output()
        .expect("run hdsampler");
    assert!(out.status.success(), "hdsampler {args:?} failed: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

fn cache(action: &str, root: &Path) -> String {
    hdsampler(&["cache", action, "--l2", root.to_str().unwrap()])
}

#[test]
fn retired_logs_are_reported_kept_by_compact_and_deleted_by_clear() {
    let root = std::env::temp_dir().join(format!("hds-cache-retired-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    hdsampler(&[
        "sample",
        "local:vehicles-compact?n=400&k=50&seed=11",
        "--samples",
        "5",
        "--l2",
        root.to_str().unwrap(),
    ]);
    let retired = root.join(RETIRED);
    fs::create_dir_all(&retired).unwrap();
    fs::write(retired.join("seg-00000.jsonl"), RETIRED_SEGMENT).unwrap();

    let stats = cache("stats", &root);
    assert!(
        stats.contains("1 site(s), 1 retired log(s)"),
        "stats: {stats}"
    );
    let bytes = RETIRED_SEGMENT.len();
    assert!(
        stats.contains(&format!("{RETIRED}: retired, {bytes} bytes")),
        "stats: {stats}"
    );
    assert!(
        stats
            .lines()
            .any(|l| l.contains("hds2-") && l.contains(" facts, ") && l.contains(" rows in ")),
        "stats: {stats}"
    );

    let compact = cache("compact", &root);
    assert!(
        compact.contains(&format!("{RETIRED}: retired, left as is")),
        "compact: {compact}"
    );
    assert_eq!(
        fs::read(retired.join("seg-00000.jsonl")).unwrap(),
        RETIRED_SEGMENT,
        "compact leaves a retired log untouched"
    );

    let clear = cache("clear", &root);
    assert!(
        clear.contains(&format!("{RETIRED}: retired, deleted")),
        "clear: {clear}"
    );
    assert!(!retired.exists(), "clear deletes the retired log");
    assert!(
        cache("stats", &root).contains("1 site(s)\n"),
        "only the current site remains"
    );
    fs::remove_dir_all(&root).unwrap();
}
