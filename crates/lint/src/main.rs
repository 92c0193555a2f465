//! `le-lint` CLI: `cargo run -p le-lint -- check [--root PATH] [--format text|json]`.
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or I/O error.

use std::env;
use std::path::PathBuf;
use std::process::ExitCode;

use le_lint::check_workspace;

const USAGE: &str = "usage: le-lint check [--root PATH] [--format text|json]

Runs the workspace lint rules (hermeticity, no-panic, float-hygiene,
determinism, lint-headers, wallclock, trace-hygiene, le-error-unwrap,
dead-dep, dead-pub) over every crate and reports the `lint:allow` escapes per rule. Exits 0 when
clean, 1 when violations are found, 2 on usage or I/O errors.";

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    match run(&args) {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("le-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<bool, String> {
    let mut root: Option<PathBuf> = None;
    let mut format = "text".to_string();
    let mut command: Option<&str> = None;

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "check" if command.is_none() => command = Some("check"),
            "--root" => {
                root = Some(PathBuf::from(
                    it.next().ok_or("--root requires a path argument")?,
                ));
            }
            "--format" => {
                let f = it.next().ok_or("--format requires `text` or `json`")?;
                if f != "text" && f != "json" {
                    return Err(format!("unknown format `{f}` (expected text or json)"));
                }
                format = f.clone();
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }

    if command != Some("check") {
        return Err(format!("expected the `check` subcommand\n{USAGE}"));
    }

    let root = match root {
        Some(r) => r,
        None => find_workspace_root()?,
    };
    let report = check_workspace(&root).map_err(|e| format!("{}: {e}", root.display()))?;

    if format == "json" {
        print!("{}", report.to_json());
    } else {
        print!("{}", report.to_text());
    }
    Ok(report.is_clean())
}

/// Walk up from the current directory to the first `Cargo.toml` that
/// declares a `[workspace]`.
fn find_workspace_root() -> Result<PathBuf, String> {
    let mut dir = env::current_dir().map_err(|e| e.to_string())?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let toml = std::fs::read_to_string(&manifest).map_err(|e| e.to_string())?;
            if toml.lines().any(|l| l.trim() == "[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml found above the current directory; pass --root"
                .to_string());
        }
    }
}
