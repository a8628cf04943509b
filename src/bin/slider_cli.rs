//! `slider-cli` — command-line front end for the Slider reasoner.
//!
//! ```text
//! slider-cli materialize <input.nt|input.ttl|-> [--format nt|ttl]
//!                        [--fragment rho-df|rdfs|rdfs-plus] [--output FILE]
//!                        [--buffer N] [--timeout-ms N] [--workers N] [--stats]
//! slider-cli graph       [--fragment rho-df|rdfs|rdfs-plus]
//! slider-cli generate    <ontology> [--scale F] [--output FILE]
//! slider-cli serve       [--sessions N] [--workers N]
//!                        [--fragment rho-df|rdfs|rdfs-plus] [--scale F]
//! slider-cli list
//! ```
//!
//! `materialize` streams the input into the reasoner while parsing (the
//! paper's input-manager path), waits for quiescence and writes the closure
//! as N-Triples (generalised triples with literal subjects are skipped on
//! output, with a note on stderr). Without `--format`, the input's
//! extension picks the syntax: `.ttl` or `.turtle` reads as Turtle,
//! anything else, stdin (`-`) included, as N-Triples.
//!
//! `serve` runs N independent reasoners on one shared dictionary, each
//! materialising its own stream concurrently while its own pool's
//! deadline tick applies a deferred retraction mid-stream.

use slider::parser::{Format, NTriplesWriter};
use slider::prelude::*;
use slider::workloads::{to_ntriples, PaperOntology, ONTOLOGIES};
use std::io::{BufRead, BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  slider-cli materialize <input.nt|input.ttl|-> [--fragment rho-df|rdfs|rdfs-plus] \
         [--format nt|ttl] [--output FILE] [--buffer N] [--timeout-ms N] [--workers N] [--stats]\n\
         \x20 slider-cli graph [--fragment rho-df|rdfs|rdfs-plus]\n\
         \x20 slider-cli generate <ontology> [--scale F] [--output FILE]\n\
         \x20 slider-cli serve [--sessions N] [--workers N] \
         [--fragment rho-df|rdfs|rdfs-plus] [--scale F]\n\
         \x20 slider-cli list"
    );
    ExitCode::from(2)
}

fn parse_fragment(s: &str) -> Option<Fragment> {
    match s.to_ascii_lowercase().as_str() {
        "rho-df" | "rhodf" | "rho_df" | "pdf" => Some(Fragment::RhoDf),
        "rdfs" => Some(Fragment::Rdfs),
        "rdfs-plus" | "rdfsplus" | "rdfs_plus" => Some(Fragment::RdfsPlus),
        _ => None,
    }
}

struct Options {
    fragment: Fragment,
    format: Option<Format>,
    output: Option<String>,
    stats: bool,
    config: SliderConfig,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        fragment: Fragment::Rdfs,
        format: None,
        output: None,
        stats: false,
        config: SliderConfig::default(),
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--fragment" => {
                let v = iter.next().ok_or("--fragment needs a value")?;
                opts.fragment =
                    parse_fragment(v).ok_or_else(|| format!("unknown fragment '{v}'"))?;
            }
            "--format" => {
                let v = iter.next().ok_or("--format needs a value")?;
                opts.format = Some(match v.as_str() {
                    "nt" | "ntriples" => Format::NTriples,
                    "ttl" | "turtle" => Format::Turtle,
                    other => return Err(format!("unknown format '{other}'")),
                });
            }
            "--output" | "-o" => {
                opts.output = Some(iter.next().ok_or("--output needs a path")?.clone());
            }
            "--buffer" => {
                let v = iter.next().ok_or("--buffer needs a number")?;
                opts.config.buffer_capacity =
                    v.parse().map_err(|_| format!("bad buffer size '{v}'"))?;
            }
            "--timeout-ms" => {
                let v = iter.next().ok_or("--timeout-ms needs a number")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad timeout '{v}'"))?;
                opts.config.timeout = if ms == 0 {
                    None
                } else {
                    Some(Duration::from_millis(ms))
                };
            }
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a number")?;
                opts.config.workers = v.parse().map_err(|_| format!("bad worker count '{v}'"))?;
            }
            "--stats" => opts.stats = true,
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    Ok(opts)
}

fn cmd_materialize(input: &str, opts: &Options) -> Result<(), String> {
    let start = Instant::now();
    let dict = Arc::new(Dictionary::new());
    let ruleset = Ruleset::fragment(opts.fragment, &dict);
    let slider = Slider::new(Arc::clone(&dict), ruleset, opts.config.clone());

    // Stream-parse into the reasoner (chunked input-manager path).
    let reader: Box<dyn BufRead> = if input == "-" {
        Box::new(std::io::stdin().lock())
    } else {
        let file = std::fs::File::open(input).map_err(|e| format!("open {input}: {e}"))?;
        Box::new(std::io::BufReader::new(file))
    };
    let format = opts.format.unwrap_or_else(|| {
        std::path::Path::new(input)
            .extension()
            .and_then(|ext| ext.to_str())
            .map_or(Format::NTriples, Format::from_extension)
    });
    let mut chunk: Vec<Triple> = Vec::with_capacity(4096);
    let mut parsed = 0usize;
    for t in slider::parser::parse(reader, format) {
        chunk.push(dict.encode_triple_owned(t.map_err(|e| e.to_string())?));
        parsed += 1;
        if chunk.len() == 4096 {
            slider.add_triples(&chunk);
            chunk.clear();
        }
    }
    slider.add_triples(&chunk);
    slider.wait_idle();
    let elapsed = start.elapsed();

    // Emit the closure.
    let sink: Box<dyn Write> = match &opts.output {
        Some(path) => Box::new(BufWriter::new(
            std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?,
        )),
        None => Box::new(BufWriter::new(std::io::stdout().lock())),
    };
    let mut writer = NTriplesWriter::new(sink);
    let mut generalised = 0usize;
    for t in slider.store().to_sorted_vec() {
        if dict.is_literal(t.s) {
            generalised += 1;
            continue;
        }
        writer.write_encoded(t, &dict).map_err(|e| e.to_string())?;
    }
    let written = writer.written();
    writer.into_inner().map_err(|e| e.to_string())?;

    let stats = slider.stats();
    eprintln!(
        "{} triples parsed, {} distinct, {} inferred, {} written ({} generalised skipped) in {:.3}s ({:.0} triples/s)",
        parsed,
        stats.input_fresh,
        stats.total_inferred(),
        written,
        generalised,
        elapsed.as_secs_f64(),
        parsed as f64 / elapsed.as_secs_f64().max(1e-9),
    );
    if opts.stats {
        eprintln!("\n{stats}");
    }
    Ok(())
}

fn cmd_graph(opts: &Options) -> Result<(), String> {
    let dict = Arc::new(Dictionary::new());
    let ruleset = Ruleset::fragment(opts.fragment, &dict);
    let graph = DependencyGraph::build(&ruleset);
    print!("{}", graph.to_dot());
    Ok(())
}

fn cmd_generate(name: &str, args: &[String]) -> Result<(), String> {
    let ontology = ONTOLOGIES
        .iter()
        .copied()
        .find(|o| o.name().eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown ontology '{name}' (try `slider-cli list`)"))?;
    let mut scale = 1.0f64;
    let mut output: Option<String> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--scale" => {
                let v = iter.next().ok_or("--scale needs a number")?;
                scale = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
            }
            "--output" | "-o" => output = Some(iter.next().ok_or("--output needs a path")?.clone()),
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    let text = to_ntriples(&ontology.generate(scale));
    match output {
        Some(path) => std::fs::write(&path, text).map_err(|e| format!("write {path}: {e}"))?,
        None => print!("{text}"),
    }
    Ok(())
}

/// The multi-stream demo: N `Slider`s on one shared dictionary, each
/// materialising its own generated stream concurrently. Every session
/// defers the retraction of its first chunk, so its pool's deadline flush
/// runs while it and the other sessions keep ingesting.
fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut sessions = 4usize;
    let mut fragment = Fragment::RhoDf;
    let mut scale = 0.01f64;
    let mut config = SliderConfig::default()
        .with_maintenance_batch(usize::MAX)
        .with_maintenance_max_age(Some(Duration::from_millis(20)));
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--sessions" => {
                let v = iter.next().ok_or("--sessions needs a number")?;
                sessions = v.parse().map_err(|_| format!("bad session count '{v}'"))?;
            }
            "--workers" => {
                let v = iter.next().ok_or("--workers needs a number")?;
                let n: usize = v.parse().map_err(|_| format!("bad worker count '{v}'"))?;
                config = config.with_workers(n);
            }
            "--fragment" => {
                let v = iter.next().ok_or("--fragment needs a value")?;
                fragment = parse_fragment(v).ok_or_else(|| format!("unknown fragment '{v}'"))?;
            }
            "--scale" => {
                let v = iter.next().ok_or("--scale needs a number")?;
                scale = v.parse().map_err(|_| format!("bad scale '{v}'"))?;
            }
            other => return Err(format!("unknown option '{other}'")),
        }
    }
    if sessions == 0 {
        return Err("--sessions must be at least 1".into());
    }

    // Each session: its own store, threads and stream — only the
    // dictionary is shared. All attach before any ingests, so none ever
    // sees the dictionary as its own to sweep.
    let dict = Arc::new(Dictionary::new());
    let sliders: Vec<Slider> = (0..sessions)
        .map(|_| {
            let ruleset = Ruleset::fragment(fragment, &dict);
            Slider::new(Arc::clone(&dict), ruleset, config.clone())
        })
        .collect();
    let start = Instant::now();
    let results: Vec<Result<String, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = sliders
            .iter()
            .enumerate()
            .map(|(i, session)| {
                let dict = &dict;
                scope.spawn(move || -> Result<String, String> {
                    let ontology = ONTOLOGIES[i % ONTOLOGIES.len()];
                    let data = ontology.generate(scale);
                    let encoded: Vec<Triple> = data
                        .iter()
                        .map(|t| dict.encode_triple_owned(t.clone()))
                        .collect();
                    let mut chunks = encoded.chunks(512);
                    let first: Vec<Triple> = chunks.next().unwrap_or_default().to_vec();
                    session.add_triples(&first);
                    // Expire the first chunk while the rest of the stream
                    // is still arriving: the session's deadline flush
                    // retracts it mid-ingest.
                    session.apply(Op::Defer(first));
                    for chunk in chunks {
                        session.add_triples(chunk);
                    }
                    session.wait_idle();
                    session.apply(Op::Flush);
                    session.wait_idle();
                    let stats = session.stats();
                    Ok(format!(
                        "session {i:>2} [{:<14}]: {:>7} in, {:>8} closure ({} inferred), \
                         {} retracted",
                        ontology.name(),
                        encoded.len(),
                        stats.store_size,
                        stats.total_inferred(),
                        stats.retracted,
                    ))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "session thread panicked".to_string())?
            })
            .collect()
    });
    let elapsed = start.elapsed();
    for line in results {
        println!("{}", line?);
    }
    println!(
        "serve: {} sessions on one dictionary in {:.3}s",
        sessions,
        elapsed.as_secs_f64(),
    );
    Ok(())
}

fn cmd_list() {
    println!("{:<16} {:>12}", "ontology", "paper size");
    for o in ONTOLOGIES {
        println!("{:<16} {:>12}", o.name(), o.paper_size());
    }
    let _ = PaperOntology::Bsbm100k; // catalogue type is public API
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first() else {
        return usage();
    };
    let result = match command.as_str() {
        "materialize" => {
            let Some(input) = args.get(1) else {
                return usage();
            };
            match parse_options(&args[2..]) {
                Ok(opts) => cmd_materialize(input, &opts),
                Err(e) => Err(e),
            }
        }
        "graph" => match parse_options(&args[1..]) {
            Ok(opts) => cmd_graph(&opts),
            Err(e) => Err(e),
        },
        "generate" => {
            let Some(name) = args.get(1) else {
                return usage();
            };
            cmd_generate(name, &args[2..])
        }
        "serve" => cmd_serve(&args[1..]),
        "list" => {
            cmd_list();
            Ok(())
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
