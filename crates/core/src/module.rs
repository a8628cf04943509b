//! Rule modules and their distributors (paper §2, Figure 1): the rule
//! instance joins a buffered batch and routes the fresh conclusions.

use crate::buffer::Buffer;
use crate::engine::Engine;
use crate::stats::{bump, RuleCounters};
use crate::trace::EventKind;
use crate::work::Drainer;
use parking_lot::Mutex;
use slider_model::{Dictionary, NodeId, Triple};
use slider_rules::{DependencyGraph, Rule, Ruleset};
use slider_store::TriplePattern;
use std::sync::Arc;

/// One rule module: the rule, its buffer, its distributor's routing table
/// and its counters (paper Figure 1, one column).
pub(crate) struct Module {
    pub(crate) rule: Arc<dyn Rule>,
    pub(crate) buffer: Buffer,
    /// Rules whose buffers receive this module's fresh conclusions —
    /// `successors` in the dependency graph, minus the module itself when
    /// it runs as a closure.
    pub(crate) successors: Vec<usize>,
    /// `Some((p, serial))` for a rule transitive over `p`
    /// ([`Rule::transitive_predicate`]): its instances run
    /// [`Engine::close_edges`] one at a time under `serial`.
    pub(crate) closure: Option<(NodeId, Mutex<()>)>,
    pub(crate) counters: RuleCounters,
}

/// Everything derived from the loaded ruleset — the **swappable half** of
/// the engine. [`Op::Swap`](crate::Op::Swap) installs a fresh one at its
/// linearisation point; everything else resolves the current state once
/// per unit of work ([`Engine::rstate`]) under a token, which keeps the
/// resolution stable: a swap completes only at verified quiescence (zero
/// tokens, buffers empty), so a state resolved under a token is never
/// retired mid-use.
pub(crate) struct RulesetState {
    /// Ruleset name ("rho-df", "RDFS", custom).
    pub(crate) name: String,
    pub(crate) modules: Vec<Module>,
    /// Shared with [`Slider::dependency_graph`](crate::Slider::dependency_graph) callers, whose handles
    /// outlive a swap.
    pub(crate) graph: Arc<DependencyGraph>,
    /// The dictionary's high-water mark when this state was installed:
    /// every id below it is a dictionary-sweep root. That covers the
    /// rules' constants and the vocabulary without enumerating either.
    pub(crate) roots_below: usize,
}

impl RulesetState {
    /// The loaded rules, in module order — the rule list DRed runs over.
    pub(crate) fn rules(&self) -> Vec<Arc<dyn Rule>> {
        self.modules.iter().map(|m| Arc::clone(&m.rule)).collect()
    }
}

/// Builds the ruleset-derived state: dependency graph and modules. For
/// rules also present in `carried` (matched by `Rule::same_rule`), the
/// counters carry over — a hot-swap keeps a kept rule's history.
pub(crate) fn build_state(
    ruleset: &Ruleset,
    dict: &Dictionary,
    capacity: usize,
    carried: Option<&RulesetState>,
) -> RulesetState {
    let graph = DependencyGraph::build(ruleset);
    let modules: Vec<Module> = ruleset
        .rules()
        .iter()
        .enumerate()
        .map(|(i, rule)| {
            let kept =
                carried.and_then(|old| old.modules.iter().find(|m| m.rule.same_rule(&**rule)));
            let closure = rule.transitive_predicate().map(|p| (p, Mutex::new(())));
            let mut successors = graph.successors(i).to_vec();
            if closure.is_some() {
                // A closure instance emits everything its edges imply, so
                // its own conclusions need no second pass through it.
                successors.retain(|&j| j != i);
            }
            Module {
                rule: Arc::clone(rule),
                buffer: Buffer::new(capacity),
                successors,
                closure,
                counters: kept.map(|m| m.counters.carry()).unwrap_or_default(),
            }
        })
        .collect();
    RulesetState {
        name: ruleset.name().to_owned(),
        modules,
        graph: Arc::new(graph),
        roots_below: dict.high_water(),
    }
}

impl Engine {
    /// Routes `triples` to the buffers of `targets`, firing full buffers as
    /// new rule instances. The caller resolved `state` under a token it
    /// still holds, and `triples` are in the store.
    ///
    /// A target buffers only the triples its join can use now
    /// ([`Rule::joinable`], asked under one shared read of the store after
    /// the insert). Asking before the insert would lose derivations: two
    /// racing adds could each miss the other's table.
    pub(crate) fn dispatch(&self, state: &RulesetState, targets: &[usize], triples: &[Triple]) {
        let mut patterns = Vec::new();
        let ends: Vec<usize> = {
            let store = self.store.read();
            (targets.iter())
                .map(|&i| {
                    state.modules[i].rule.joinable(&store, &mut patterns);
                    patterns.len()
                })
                .collect()
        };
        let (mut accepted, mut start) = (Vec::new(), 0);
        for (&i, end) in targets.iter().zip(ends) {
            let module = &state.modules[i];
            let pats = &patterns[start..end];
            start = end;
            accepted.clear();
            if pats.contains(&TriplePattern::ANY) {
                accepted.extend_from_slice(triples);
            } else {
                let joinable = |t: &&Triple| pats.iter().any(|pat| pat.matches(**t));
                accepted.extend(triples.iter().filter(joinable));
            }
            if accepted.is_empty() {
                continue;
            }
            bump(&module.counters.buffered, accepted.len() as u64);
            for chunk in module.buffer.push_batch(&accepted) {
                bump(&module.counters.full_flushes, 1);
                if let Some(log) = &self.log {
                    log.record(EventKind::BufferFull { rule: i });
                }
                // A full buffer is worth a handoff: it wakes the pool,
                // whoever filled it.
                self.work.submit(i, chunk, Drainer::Worker);
            }
        }
    }

    /// Executes one rule instance: join, distribute, route (Figure 1's
    /// rule-module → distributor path).
    pub(crate) fn run_job(&self, rule: usize, delta: Vec<Triple>) {
        // The job carries a token acquired at submission, so the
        // state resolved here is the submission-time state: a swap cannot
        // have linearised in between.
        let state = self.rstate();
        let module = &state.modules[rule];
        let mut fresh = Vec::new();
        let derived = match &module.closure {
            Some((p, serial)) => self.close_edges(*p, serial, &delta, &mut fresh),
            None => self.join(module.rule.as_ref(), &delta, &mut fresh),
        };
        bump(&module.counters.fired, 1);
        bump(&module.counters.derived, derived as u64);
        bump(&module.counters.fresh, fresh.len() as u64);
        if let Some(log) = &self.log {
            log.record(EventKind::RuleFired {
                rule,
                delta: delta.len(),
                derived,
                fresh: fresh.len(),
                store_size: self.store.len(),
            });
        }
        if !fresh.is_empty() {
            // Distributor step 3: dispatch to dependent buffers only.
            self.dispatch(&state, &module.successors, &fresh);
        }
    }

    /// One semi-naive step: `rule.apply` on `delta`, then the distributor's
    /// steps 1 and 2 — add the conclusions to the store and append the new
    /// ones to `fresh`. Returns how many conclusions the join derived.
    fn join(&self, rule: &dyn Rule, delta: &[Triple], fresh: &mut Vec<Triple>) -> usize {
        let mut out = Vec::new();
        // The join reads the live store under a shared lock, beside other
        // joins. The store holds this delta — `insert_batch` wrote it
        // before the dispatch that buffered it returned — and possibly
        // newer writes, which is sound (monotone): extra visible triples
        // only produce conclusions earlier; deletion cannot interleave, it
        // requires the store held exclusively, which implies quiescence —
        // no instance like this one in flight. Conclusions already present
        // are dropped under the same read, so the write lock covers only
        // candidate-fresh triples.
        let store = self.store.read();
        rule.apply(&store, delta, &mut out);
        let derived = out.len();
        out.retain(|&t| !store.contains(t));
        drop(store);
        self.store.insert_batch(&out, fresh);
        derived
    }

    /// Incremental transitive closure over `p` (Swift's tabled closure):
    /// each non-reflexive edge `(a, b)` of `delta` emits
    /// `({a} ∪ anc(a)) × ({b} ∪ desc(b))`, minus `(a, b)` and what the
    /// store holds, and inserts it before the next edge is read. Returns
    /// how many candidates the edges produced; appends the new ones to
    /// `fresh`.
    ///
    /// Sound because `serial` runs one instance at a time: when an edge is
    /// read, the store holds the closure of every edge processed before it
    /// (and of the store as the last quiescent point left it), so joining
    /// the edge to its ancestors and descendants closes it in one step. A
    /// `p` triple this module did not emit was dispatched to it and gets
    /// its own turn. A reflexive edge `(x, x)` adds no path. The lock is
    /// released before the caller dispatches `fresh`.
    fn close_edges(
        &self,
        p: NodeId,
        serial: &Mutex<()>,
        delta: &[Triple],
        fresh: &mut Vec<Triple>,
    ) -> usize {
        let _serial = serial.lock();
        let (mut above, mut below, mut out) = (Vec::new(), Vec::new(), Vec::new());
        let mut derived = 0;
        for &edge in delta.iter().filter(|t| t.p == p && t.s != t.o) {
            let store = self.store.read();
            above.clear();
            above.push(edge.s);
            above.extend(store.subjects_with(p, edge.s).filter(|&x| x != edge.s));
            below.clear();
            below.push(edge.o);
            below.extend(store.objects_with(p, edge.o).filter(|&y| y != edge.o));
            derived += above.len() * below.len() - 1;
            out.clear();
            for &x in &above {
                out.extend(
                    below
                        .iter()
                        .map(|&y| Triple::new(x, p, y))
                        .filter(|&t| t != edge && !store.contains(t)),
                );
            }
            drop(store);
            self.store.insert_batch(&out, fresh);
        }
        derived
    }
}
