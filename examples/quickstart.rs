//! Quickstart: build two tiny KBs by hand and resolve them.
//!
//! Run with `cargo run --example quickstart`.

use minoaner::core::MinoanEr;
use minoaner::exec::Executor;
use minoaner::kb::{KbBuilder, KbPair};

fn main() {
    // First KB: a tourist guide.
    let mut guide = KbBuilder::new("guide");
    guide.add_literal("g:knossos", "name", "Palace of Knossos");
    guide.add_literal(
        "g:knossos",
        "description",
        "minoan bronze age palace near heraklion",
    );
    guide.add_uri("g:knossos", "locatedIn", "g:heraklion");
    guide.add_literal("g:heraklion", "name", "Heraklion");
    guide.add_literal("g:phaistos", "name", "Phaistos");
    guide.add_literal(
        "g:phaistos",
        "description",
        "minoan palace of the famous disc",
    );

    // Second KB: an encyclopedia with a different schema.
    let mut wiki = KbBuilder::new("wiki");
    wiki.add_literal("w:q173527", "label", "Knossos Palace");
    wiki.add_literal(
        "w:q173527",
        "abstract",
        "largest bronze age archaeological site on crete",
    );
    wiki.add_uri("w:q173527", "municipality", "w:q160544");
    wiki.add_literal("w:q160544", "label", "Heraklion");
    wiki.add_literal("w:q192797", "label", "Phaistos");
    wiki.add_literal(
        "w:q192797",
        "abstract",
        "minoan site where the phaistos disc was found",
    );

    let pair = KbPair::new(guide.finish(), wiki.finish());

    // Resolve with the paper's default configuration: no schema
    // alignment, no thresholds to tune, no iterations. Every stage runs
    // on the executor it is handed; the default one is the process-wide
    // thread pool, and the result is the same on any executor.
    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::default());

    println!("found {} matches:", out.matching.len());
    for (e1, e2) in out.matching.iter() {
        println!(
            "  {}  <=>  {}",
            pair.first.entity_uri(e1),
            pair.second.entity_uri(e2)
        );
    }
    println!(
        "(H1 name matches: {}, H2 value matches: {}, H3 rank-aggregation matches: {})",
        out.report.h1_matches, out.report.h2_matches, out.report.h3_matches
    );
}
