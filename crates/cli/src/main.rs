//! The `vamana` interactive shell and query server.
//!
//! ```sh
//! cargo run --release -p vamana-cli --bin vamana-shell
//! vamana> .generate 2
//! vamana> //province[text()='Vermont']/ancestor::person/name
//! ```
//!
//! Files given on the command line are loaded before the prompt appears;
//! with `-c <command>` the shell runs one command and exits. `serve`
//! runs the TCP query service in the foreground instead of a prompt:
//!
//! ```sh
//! vamana-shell serve 4050 auction.xml      # serve a loaded file
//! vamana-shell serve 4050 --generate 2     # serve generated XMark data
//! ```

use std::io::{BufRead, Write};
use vamana_cli::Session;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();

    if args.first().map(String::as_str) == Some("serve") {
        serve(&args[1..]);
        return;
    }

    let mut session = Session::new();

    // `-c` one-shot mode.
    if let Some(pos) = args.iter().position(|a| a == "-c") {
        for file in &args[..pos] {
            load(&session, file);
        }
        let cmd = args[pos + 1..].join(" ");
        run_line(&mut session, &cmd);
        return;
    }

    for file in &args {
        load(&session, file);
    }

    println!("VAMANA — cost-driven XPath engine (type .help for commands)");
    let stdin = std::io::stdin();
    loop {
        print!("vamana> ");
        std::io::stdout().flush().ok();
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => match session.execute(&line) {
                Some(out) => {
                    if !out.is_empty() {
                        println!("{out}");
                    }
                }
                None => break,
            },
            Err(e) => {
                eprintln!("input error: {e}");
                break;
            }
        }
    }
}

/// `vamana-shell serve <port> [file... | --generate <mb>]`: loads the
/// given data, then blocks serving the query protocol on `port`.
fn serve(args: &[String]) {
    let Some(port) = args.first().and_then(|p| p.parse::<u16>().ok()) else {
        eprintln!("usage: vamana-shell serve <port> [file... | --generate <mb>]");
        std::process::exit(2);
    };
    let mut session = Session::new();
    let mut rest = args[1..].iter();
    while let Some(arg) = rest.next() {
        let out = if arg == "--generate" {
            let mb = rest.next().map(String::as_str).unwrap_or("1");
            session
                .execute(&format!(".generate {mb}"))
                .unwrap_or_default()
        } else {
            session
                .load_file(arg)
                .unwrap_or_else(|e| format!("ERR shell {e}"))
        };
        if out.starts_with("ERR") {
            eprintln!("{out}");
            std::process::exit(1);
        }
        println!("{out}");
    }
    match session.execute(&format!(".serve {port}")) {
        Some(out) if out.starts_with("ERR") => {
            eprintln!("{out}");
            std::process::exit(1);
        }
        Some(out) => println!("{out}"),
        None => return,
    }
    // The accept loop runs on the .serve background thread; keep the
    // process alive until killed.
    loop {
        std::thread::park();
    }
}

/// Loads a file named on the command line and prints the outcome.
fn load(session: &Session, file: &str) {
    match session.load_file(file) {
        Ok(out) => println!("{out}"),
        Err(e) => println!("ERR shell {e}"),
    }
}

fn run_line(session: &mut Session, line: &str) {
    if let Some(out) = session.execute(line) {
        if !out.is_empty() {
            println!("{out}");
        }
    }
}
