//! Cross-engine closure equivalence: Slider (all configurations) must
//! compute exactly the closure the independent batch oracles compute, on
//! every workload family and both fragments.

use slider::baseline::{NaiveReasoner, RecomputeOracle, SemiNaiveReasoner};
use slider::prelude::*;
use slider::rules::{InputFilter, OutputSignature};
use slider::workloads::stream::SlidingWindow;
use slider::workloads::{encode_all, PaperOntology};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Duration;

fn oracle_closure(dict: &Arc<Dictionary>, fragment: Fragment, input: &[Triple]) -> Vec<Triple> {
    let mut semi = SemiNaiveReasoner::new(Ruleset::fragment(fragment, dict));
    semi.materialize_all(input);
    let mut naive = NaiveReasoner::new(Ruleset::fragment(fragment, dict));
    naive.materialize_all(input);
    let a = semi.store().to_sorted_vec();
    let b = naive.store().to_sorted_vec();
    assert_eq!(
        a, b,
        "the two oracles disagree — bug in a rule or a baseline"
    );
    a
}

fn slider_closure(
    dict: &Arc<Dictionary>,
    fragment: Fragment,
    input: &[Triple],
    config: SliderConfig,
) -> Vec<Triple> {
    let slider = Slider::new(Arc::clone(dict), Ruleset::fragment(fragment, dict), config);
    slider.add_triples(input);
    slider.wait_idle();
    slider.store().to_sorted_vec()
}

fn check_ontology(ontology: PaperOntology, scale: f64) {
    let data = ontology.generate(scale);
    for fragment in [Fragment::RhoDf, Fragment::Rdfs] {
        let dict = Arc::new(Dictionary::new());
        let input = encode_all(&data, &dict);
        let expected = oracle_closure(&dict, fragment, &input);
        let got = slider_closure(&dict, fragment, &input, SliderConfig::default());
        assert_eq!(got, expected, "{ontology} under {fragment}");
    }
}

#[test]
fn bsbm_family() {
    check_ontology(PaperOntology::Bsbm100k, 0.02);
}

#[test]
fn wikipedia_family() {
    check_ontology(PaperOntology::Wikipedia, 0.01);
}

#[test]
fn wordnet_family() {
    check_ontology(PaperOntology::Wordnet, 0.01);
}

#[test]
fn chain_family() {
    check_ontology(PaperOntology::SubClassOf50, 1.0);
}

/// Table 1's chain rows are exact: `(n−1)(n−2)/2` inferred under ρdf.
#[test]
fn chain_inferred_counts_match_table1() {
    for (ontology, n) in [
        (PaperOntology::SubClassOf10, 10usize),
        (PaperOntology::SubClassOf20, 20),
        (PaperOntology::SubClassOf50, 50),
        (PaperOntology::SubClassOf100, 100),
    ] {
        let dict = Arc::new(Dictionary::new());
        let input = encode_all(&ontology.generate(1.0), &dict);
        let slider = Slider::new(
            Arc::clone(&dict),
            Ruleset::rho_df(),
            SliderConfig::default(),
        );
        slider.add_triples(&input);
        slider.wait_idle();
        let inferred = slider.store().len() - input.len();
        assert_eq!(
            inferred,
            (n - 1) * (n - 2) / 2,
            "{ontology}: paper Table 1 count"
        );
    }
}

/// The closure must be identical across extreme reasoner configurations —
/// buffer size and pool size affect performance, never the result.
#[test]
fn configuration_independence() {
    let data = PaperOntology::Bsbm100k.generate(0.01);
    let configs = [
        SliderConfig::default(),
        SliderConfig::default().with_buffer_capacity(1),
        SliderConfig::default().with_buffer_capacity(100_000),
        SliderConfig::default().with_workers(1),
        SliderConfig::default().with_workers(16),
        SliderConfig::batch(),
        SliderConfig::default().with_timeout(Some(Duration::from_millis(1))),
        SliderConfig::default().with_trace(true),
    ];
    for fragment in [Fragment::RhoDf, Fragment::Rdfs] {
        let mut closures = Vec::new();
        for config in &configs {
            let dict = Arc::new(Dictionary::new());
            let input = encode_all(&data, &dict);
            closures.push(slider_closure(&dict, fragment, &input, config.clone()));
        }
        for (i, closure) in closures.iter().enumerate() {
            assert_eq!(
                closure, &closures[0],
                "config #{i} disagrees under {fragment}"
            );
        }
    }
}

/// ρdf ⊆ RDFS: everything ρdf infers, RDFS infers too.
#[test]
fn rho_df_is_subset_of_rdfs() {
    let data = PaperOntology::Bsbm100k.generate(0.01);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let rho = slider_closure(&dict, Fragment::RhoDf, &input, SliderConfig::default());
    let rdfs = slider_closure(&dict, Fragment::Rdfs, &input, SliderConfig::default());
    let rdfs_set: std::collections::HashSet<Triple> = rdfs.iter().copied().collect();
    for t in rho {
        assert!(rdfs_set.contains(&t), "RDFS closure is missing {t}");
    }
}

/// Materialisation is idempotent: re-feeding the closure infers nothing.
#[test]
fn closure_is_a_fixpoint() {
    let data = PaperOntology::Wikipedia.generate(0.005);
    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&data, &dict);
    let closure = slider_closure(&dict, Fragment::Rdfs, &input, SliderConfig::default());

    let slider = Slider::new(
        Arc::clone(&dict),
        Ruleset::rdfs(&dict),
        SliderConfig::default(),
    );
    slider.add_triples(&closure);
    slider.wait_idle();
    assert_eq!(slider.store().len(), closure.len());
}

/// Runs its rule, recording the thread each rule instance ran on.
struct Probe(Arc<dyn Rule>, Arc<Mutex<HashSet<ThreadId>>>);

impl Rule for Probe {
    fn name(&self) -> &'static str {
        self.0.name()
    }
    fn definition(&self) -> &'static str {
        self.0.definition()
    }
    fn input_filter(&self) -> InputFilter {
        self.0.input_filter()
    }
    fn output_signature(&self) -> OutputSignature {
        self.0.output_signature()
    }
    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        self.1.lock().unwrap().insert(std::thread::current().id());
        self.0.apply(store, delta, out);
    }
    fn derives(&self, store: &VerticalStore, t: Triple) -> bool {
        self.0.derives(store, t)
    }
}

/// One step of a stream: what expires, then what arrives.
type Step<'a> = (&'a [TermTriple], &'a [TermTriple]);

/// Plays `steps` (retract, assert, `wait_idle`) on a `workers: 0` engine
/// whose every rule is a [`Probe`]. Checks the closure against the
/// recompute oracle and that every rule instance ran on this thread;
/// returns per-rule `[fired, derived, fresh]` and the closure.
fn pool_less_run(name: &str, fragment: Fragment, steps: &[Step]) -> (Vec<[u64; 3]>, Vec<Triple>) {
    let dict = Arc::new(Dictionary::new());
    let threads = Arc::new(Mutex::new(HashSet::new()));
    let native = Ruleset::fragment(fragment, &dict);
    let probed = native
        .rules()
        .iter()
        .fold(Ruleset::custom(native.name()), |set, rule| {
            set.with(Probe(Arc::clone(rule), Arc::clone(&threads)))
        });
    let config = SliderConfig::default().with_workers(0);
    let slider = Slider::new(Arc::clone(&dict), probed, config);
    let mut oracle = RecomputeOracle::new(native);
    for &(expired, arrival) in steps {
        // Encoded first: a retraction burst may sweep the expired terms.
        oracle.remove(&encode_all(expired, &dict));
        slider.remove_terms(expired);
        slider.add_terms(arrival);
        slider.wait_idle();
        oracle.add(&encode_all(arrival, &dict));
    }
    let closure = slider.store().to_sorted_vec();
    assert_eq!(
        closure,
        oracle.to_sorted_vec(),
        "{name}: closure differs from the oracle"
    );
    let me = HashSet::from([std::thread::current().id()]);
    assert_eq!(
        *threads.lock().unwrap(),
        me,
        "{name}: a rule ran off the caller"
    );
    let counters = slider
        .stats()
        .rules
        .iter()
        .map(|r| [r.fired, r.derived, r.fresh])
        .collect();
    (counters, closure)
}

/// `workers: 0` spawns no pool: every rule instance runs on the caller's
/// thread, inside `wait_idle`, in FIFO order. So two runs of one input
/// fire identically, rule by rule — for a load, a chain, a sliding window
/// with retractions and an inference-heavy ingest.
#[test]
fn a_pool_less_engine_is_deterministic_and_single_threaded() {
    let bsbm = PaperOntology::Bsbm100k.generate(0.01);
    let chain = PaperOntology::SubClassOf50.generate(1.0);
    let wiki = PaperOntology::Wikipedia.generate(0.005);
    let window = SlidingWindow::new(&wiki, 200, 3, Duration::ZERO);
    let cases: [(&str, Fragment, Vec<Step>); 4] = [
        ("bsbm", Fragment::Rdfs, vec![(&[], &bsbm)]),
        ("chain", Fragment::RhoDf, vec![(&[], &chain)]),
        (
            "window",
            Fragment::Rdfs,
            window
                .steps()
                .map(|s| (s.expiring.unwrap_or_default(), s.arrival))
                .collect(),
        ),
        (
            "wikipedia",
            Fragment::Rdfs,
            wiki.chunks(500).map(|c| (&[][..], c)).collect(),
        ),
    ];
    for (name, fragment, steps) in cases {
        let first = pool_less_run(name, fragment, &steps);
        assert!(first.0.iter().any(|c| c[0] > 0), "{name}: no rule fired");
        let second = pool_less_run(name, fragment, &steps);
        assert!(first == second, "{name}: two runs differ");
    }
}

/// `RuleSpec::apply` skips a delta triple whose key — the positions its
/// join reads — repeats the previous one's. That may only drop repeats:
/// for every built-in rule over Wikipedia-shaped input, one `apply` over
/// the whole delta emits the same conclusion *set* as one `apply` per
/// triple, where no triple has a predecessor to repeat. The deltas are the
/// input in generation order and the sorted closure (long subject runs);
/// the store is the closure, so every rule has every table to join.
#[test]
fn the_run_length_skip_keeps_every_builtin_conclusion() {
    use slider::workloads::wikipedia::{generate, WikipediaConfig};

    let dict = Arc::new(Dictionary::new());
    let input = encode_all(&generate(&WikipediaConfig::sized(2_000)), &dict);
    let ruleset = Ruleset::rdfs_plus(&dict);
    let mut oracle = RecomputeOracle::new(ruleset.clone());
    oracle.add(&input);
    let store = oracle.closure();
    let closure = store.to_sorted_vec();
    let mut skipped = 0;
    for rule in ruleset.rules() {
        for delta in [&input, &closure] {
            let (mut whole, mut single) = (Vec::new(), Vec::new());
            rule.apply(&store, delta, &mut whole);
            for &t in delta.iter() {
                rule.apply(&store, &[t], &mut single);
            }
            skipped += single.len() - whole.len();
            for out in [&mut whole, &mut single] {
                out.sort_unstable();
                out.dedup();
            }
            assert_eq!(whole, single, "{}", rule.name());
        }
    }
    assert!(skipped > 0, "no delta had a run to skip");
}
