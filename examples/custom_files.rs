//! Loading KBs from files: write two small TSV KBs plus a ground-truth
//! file, then resolve and evaluate — the workflow the `minoaner` CLI
//! wraps.
//!
//! Run with `cargo run --example custom_files`.

use minoaner::core::MinoanEr;
use minoaner::eval::MatchQuality;
use minoaner::exec::Executor;
use minoaner::kb::{parse, KbPair, Matching};

fn main() {
    let dir = std::env::temp_dir().join("minoaner-example");
    std::fs::create_dir_all(&dir).expect("create temp dir");

    let first = "\
g:1\tname\tlit\tKri Kri Taverna
g:1\tcuisine\tlit\tcretan traditional
g:1\taddress\turi\tg:a1
g:a1\tstreet\tlit\t12 Minos Avenue Heraklion
g:2\tname\tlit\tLabyrinth Grill
g:2\tcuisine\tlit\tgreek grill
";
    let second = "\
y:77\ttitle\tlit\tkri kri taverna
y:77\tcategory\tlit\ttraditional cretan food
y:77\tlocation\turi\ty:a77
y:a77\tstreetAddress\tlit\t12 minos ave heraklion
y:88\ttitle\tlit\tknossos snack bar
";
    std::fs::write(dir.join("first.tsv"), first).expect("write first");
    std::fs::write(dir.join("second.tsv"), second).expect("write second");

    let kb1 = parse::parse_tsv("E1", first).expect("parse first");
    let kb2 = parse::parse_tsv("E2", second).expect("parse second");
    let pair = KbPair::new(kb1, kb2);

    let truth = Matching::from_pairs([(
        pair.first.entity_by_uri("g:1").expect("g:1"),
        pair.second.entity_by_uri("y:77").expect("y:77"),
    )]);

    let out = MinoanEr::with_defaults().run_with(&pair, &Executor::sequential());
    for (a, b) in out.matching.iter() {
        println!(
            "{} <=> {}",
            pair.first.entity_uri(a),
            pair.second.entity_uri(b)
        );
    }
    let q = MatchQuality::evaluate(&out.matching, &truth);
    println!(
        "precision {:.0}%  recall {:.0}%  F1 {:.0}%",
        q.precision() * 100.0,
        q.recall() * 100.0,
        q.f1() * 100.0
    );
}
