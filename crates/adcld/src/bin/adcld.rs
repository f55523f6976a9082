//! `adcld` — the tuning daemon.
//!
//! ```text
//! adcld [--listen ADDR] [--history PATH] [--checkpoint-every N]
//!       [--jobs N] [--guidelines] [--addr-file PATH]
//! ```
//!
//! Listens on localhost (default `127.0.0.1:7411`; use port `0` for an
//! ephemeral port) and serves newline-delimited JSON tuning queries until
//! a client sends `{"cmd":"shutdown"}`. The history file defaults to the
//! `NBC_HISTORY_PATH` environment variable; without either, decisions are
//! kept in memory only. `--addr-file` writes the bound address to a file
//! so scripts can discover an ephemeral port.

use adcld::service::ServiceConfig;
use adcld::Server;
use std::io::Write as _;
use std::path::PathBuf;
use std::process::exit;

struct Args {
    listen: String,
    cfg: ServiceConfig,
    addr_file: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: adcld [--listen ADDR] [--history PATH] [--checkpoint-every N] \
         [--jobs N] [--guidelines] [--addr-file PATH]"
    );
    exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        listen: "127.0.0.1:7411".into(),
        cfg: ServiceConfig {
            history_path: std::env::var_os("NBC_HISTORY_PATH").map(PathBuf::from),
            ..ServiceConfig::default()
        },
        addr_file: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("adcld: {flag} needs a value");
                exit(2);
            })
        };
        match a.as_str() {
            "--listen" => args.listen = value("--listen"),
            "--history" => args.cfg.history_path = Some(PathBuf::from(value("--history"))),
            "--checkpoint-every" => {
                args.cfg.checkpoint_every =
                    value("--checkpoint-every").parse().unwrap_or_else(|_| {
                        eprintln!("adcld: --checkpoint-every needs an integer");
                        exit(2);
                    })
            }
            "--jobs" => {
                args.cfg.jobs = value("--jobs").parse().unwrap_or_else(|_| {
                    eprintln!("adcld: --jobs needs an integer");
                    exit(2);
                })
            }
            "--guidelines" => args.cfg.guidelines = true,
            "--addr-file" => args.addr_file = Some(PathBuf::from(value("--addr-file"))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("adcld: unknown argument {other:?}");
                usage();
            }
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let server = match Server::spawn(args.cfg, &args.listen) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adcld: cannot start on {}: {e}", args.listen);
            exit(1);
        }
    };
    let svc = server.service();
    if svc.stale_dropped() > 0 {
        eprintln!(
            "adcld: dropped {} stale history entr{} (context changed)",
            svc.stale_dropped(),
            if svc.stale_dropped() == 1 { "y" } else { "ies" }
        );
    }
    if let Some(path) = &args.addr_file {
        if let Err(e) = std::fs::write(path, format!("{}\n", server.addr())) {
            eprintln!("adcld: cannot write {}: {e}", path.display());
            exit(1);
        }
    }
    println!("adcld: listening on {}", server.addr());
    println!(
        "adcld: context {:?}, {} warm decision(s) loaded",
        svc.context(),
        svc.history_len()
    );
    let _ = std::io::stdout().flush();
    server.wait();
    println!("adcld: shut down");
}
