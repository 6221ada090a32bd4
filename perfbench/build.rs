//! Stamps the binary with its provenance: the compiler that built it, the
//! git commit when the source is a git checkout, and a digest of the
//! workspace sources, which identifies the code under test even where no
//! git metadata exists.

use std::path::Path;
use std::process::Command;

fn digest_tree(dir: &Path, hash: &mut u64) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<_> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            digest_tree(&path, hash);
        } else if path
            .extension()
            .is_some_and(|ext| ext == "rs" || ext == "toml")
        {
            if let Ok(bytes) = std::fs::read(&path) {
                for b in path.to_string_lossy().bytes().chain(bytes) {
                    // FNV-1a
                    *hash ^= u64::from(b);
                    *hash = hash.wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
    }
}

fn command_line(cmd: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(cmd)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

fn main() {
    let manifest = std::env::var("CARGO_MANIFEST_DIR").expect("cargo sets CARGO_MANIFEST_DIR");
    let root = Path::new(&manifest)
        .parent()
        .expect("the benchmark sits one level below the repository root");
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string());
    let version = command_line(&rustc, &["-V"], root).unwrap_or_else(|| "unknown".into());
    // only the repository's own git metadata names the commit: a checkout
    // without it may sit inside some other repository
    let commit = root
        .join(".git")
        .exists()
        .then(|| command_line("git", &["rev-parse", "--short=12", "HEAD"], root))
        .flatten()
        .unwrap_or_else(|| "unknown".into());
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    digest_tree(&root.join("crates"), &mut hash);
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    println!("cargo:rustc-env=PERFBENCH_COMMIT={commit}");
    println!("cargo:rustc-env=PERFBENCH_SOURCE={hash:016x}");
    println!("cargo:rerun-if-changed=build.rs");
    println!("cargo:rerun-if-changed=../crates");
}
