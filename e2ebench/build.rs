//! Stamps the build's provenance (cargo profile and `target-cpu`) into the
//! binary, for the `_meta` block of every record.

fn main() {
    let profile = std::env::var("PROFILE").unwrap_or_else(|_| "unknown".into());
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let target_cpu = flags
        .split('\x1f')
        .map(|f| f.strip_prefix("-C").unwrap_or(f))
        .find_map(|f| f.strip_prefix("target-cpu="))
        .unwrap_or("default")
        .to_string();
    println!("cargo:rustc-env=E2E_PROFILE={profile}");
    println!("cargo:rustc-env=E2E_TARGET_CPU={target_cpu}");
    println!("cargo:rerun-if-env-changed=CARGO_ENCODED_RUSTFLAGS");
    println!("cargo:rerun-if-changed=build.rs");
}
