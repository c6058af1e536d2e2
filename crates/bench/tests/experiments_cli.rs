//! The `experiments` command line: anything it cannot run is exit 2 and
//! the listing of every row, on stderr, with nothing run.

use std::process::Command;

fn experiments(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments")).args(args).output().expect("runs");
    let text = |bytes: Vec<u8>| String::from_utf8(bytes).expect("utf-8");
    (out.status.code(), text(out.stdout), text(out.stderr))
}

#[test]
fn no_row_unknown_row_and_malformed_scale_exit_2_with_the_listing() {
    for args in [&[][..], &["fig99"], &["fig01", "--scale", "many"], &["all", "--scale", "-1"]] {
        let (code, stdout, stderr) = experiments(args);
        assert_eq!(code, Some(2), "{args:?}");
        assert!(stdout.is_empty(), "{args:?} ran something: {stdout}");
        assert!(stderr.starts_with("usage: experiments <name|all> [--scale N]"), "{args:?}");
        for row in ["fig01", "fig13", "ablation", "fleet_rct", "crash_rct", "impairment_sweep"] {
            let listed = stderr.lines().any(|l| l.trim_start().starts_with(row));
            assert!(listed, "{args:?}: {row} not listed in\n{stderr}");
        }
    }
}
