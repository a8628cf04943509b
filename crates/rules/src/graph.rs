//! The rules dependency graph (paper §2.3, Figure 2).
//!
//! > "During the initialization process, Slider creates a list of dependent
//! > buffers for each rule … To implement such functionality, Slider builds
//! > a rules dependency graph. It is a directed graph, where edges
//! > represent the links (dependency) between the rules (vertices)."
//!
//! Edge `A → B` means "the output of rule A can be used by rule B", i.e.
//! `A`'s [`OutputSignature`] intersects `B`'s [`InputFilter`]. The
//! distributor of rule `A` dispatches `A`'s (deduplicated) conclusions to
//! exactly the buffers of `successors(A)`.

use crate::rule::{InputFilter, OutputSignature};
use crate::ruleset::Ruleset;
use slider_model::NodeId;
use std::fmt::Write as _;

/// The dependency graph over a [`Ruleset`], plus the entry routing used for
/// raw input triples.
#[derive(Debug, Clone)]
pub struct DependencyGraph {
    names: Vec<&'static str>,
    /// `succ[i]` = rules that must receive rule `i`'s fresh conclusions.
    succ: Vec<Vec<usize>>,
    /// Input filters, cached for routing raw input.
    filters: Vec<InputFilter>,
    /// Output signatures, cached for the partition/emitter queries.
    outputs: Vec<OutputSignature>,
    /// Maintenance partitions (see [`DependencyGraph::component_of`]).
    partitions: Partitions,
}

/// The graph's *maintenance partitions*: the finest grouping of rules such
/// that truth maintenance scoped to one group can never read or write a
/// triple that maintenance in another group writes.
///
/// Two rules land in the same component when any of these hold, closed
/// transitively:
///
/// * one **feeds** the other (a dependency edge either way) — group A's
///   overdeletion could invalidate conclusions of group B;
/// * their **input filters overlap** — a retracted predicate would seed
///   both rules' downward closures, so they must run in one pass;
/// * their **output signatures overlap** — both can emit some predicate,
///   so rederiving a deleted triple of that predicate must consult both.
///
/// Within one component, every predicate any member consumes or emits is
/// *owned* by the component, and ownership is exclusive: a predicate's
/// consumers and emitters are all in one component by construction. A rule
/// with a universal input or output owns every predicate — its component
/// reports no finite predicate list and partitioned maintenance falls back
/// to a single pass (in ρdf/RDFS the `PRP-*` rules collapse everything
/// into one component; partitioning pays off for predicate-scoped rulesets
/// such as [`Transitive`](crate::Transitive) families).
#[derive(Debug, Clone, Default)]
struct Partitions {
    /// Component id per rule, compacted to `0..count` in rule order.
    comp: Vec<usize>,
    /// Number of components.
    count: usize,
    /// Per component: the sorted, deduplicated predicates its rules consume
    /// or emit — `None` when a member has a universal input or output (the
    /// component then owns every predicate).
    owned: Vec<Option<Vec<NodeId>>>,
}

impl Partitions {
    fn build(succ: &[Vec<usize>], filters: &[InputFilter], outputs: &[OutputSignature]) -> Self {
        let n = filters.len();
        // Union-find over the rules; path-halving is overkill at n ≈ 10,
        // but keeps the closure transitive regardless of pair order.
        let mut parent: Vec<usize> = (0..n).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let union = |parent: &mut [usize], a: usize, b: usize| {
            let (ra, rb) = (find(parent, a), find(parent, b));
            if ra != rb {
                parent[ra] = rb;
            }
        };
        for (i, succs) in succ.iter().enumerate() {
            for &j in succs {
                union(&mut parent, i, j);
            }
        }
        for i in 0..n {
            for j in i + 1..n {
                if filters[i].overlaps(&filters[j]) || outputs[i].overlaps(&outputs[j]) {
                    union(&mut parent, i, j);
                }
            }
        }

        // Compact the roots to 0..count in rule order.
        let mut comp = vec![usize::MAX; n];
        let mut count = 0;
        for i in 0..n {
            let root = find(&mut parent, i);
            if comp[root] == usize::MAX {
                comp[root] = count;
                count += 1;
            }
            comp[i] = comp[root];
        }

        // Owned predicates per component; `None` once a member is
        // universal on either side.
        let mut owned: Vec<Option<Vec<NodeId>>> = vec![Some(Vec::new()); count];
        for i in 0..n {
            let slot = &mut owned[comp[i]];
            match (&filters[i], &outputs[i]) {
                (InputFilter::Universal, _) | (_, OutputSignature::Universal) => *slot = None,
                (InputFilter::Predicates(ins), OutputSignature::Predicates(outs)) => {
                    if let Some(preds) = slot {
                        preds.extend(ins.iter().chain(outs.iter()).copied());
                    }
                }
            }
        }
        for preds in owned.iter_mut().flatten() {
            preds.sort_unstable();
            preds.dedup();
        }
        Partitions { comp, count, owned }
    }
}

impl DependencyGraph {
    /// Builds the graph for `ruleset` by intersecting output signatures
    /// with input filters.
    pub fn build(ruleset: &Ruleset) -> Self {
        let rules = ruleset.rules();
        let filters: Vec<InputFilter> = rules.iter().map(|r| r.input_filter()).collect();
        let outputs: Vec<OutputSignature> = rules.iter().map(|r| r.output_signature()).collect();
        let succ: Vec<Vec<usize>> = outputs
            .iter()
            .map(|out| {
                filters
                    .iter()
                    .enumerate()
                    .filter(|(_, filter)| out.may_feed(filter))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        let partitions = Partitions::build(&succ, &filters, &outputs);
        DependencyGraph {
            names: rules.iter().map(|r| r.name()).collect(),
            succ,
            filters,
            outputs,
            partitions,
        }
    }

    /// Number of rules (vertices).
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The rules that consume rule `i`'s output.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.succ[i]
    }

    /// True if rule `from` feeds rule `to`.
    pub fn has_edge(&self, from: usize, to: usize) -> bool {
        self.succ[from].contains(&to)
    }

    /// Edge lookup by rule names (convenience for tests/tools).
    pub fn has_edge_named(&self, from: &str, to: &str) -> bool {
        match (self.index_of(from), self.index_of(to)) {
            (Some(a), Some(b)) => self.has_edge(a, b),
            _ => false,
        }
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.succ.iter().map(Vec::len).sum()
    }

    /// Index of the rule named `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|&n| n == name)
    }

    /// Rule name of vertex `i`.
    pub fn name(&self, i: usize) -> &'static str {
        self.names[i]
    }

    /// The rules with universal input (Figure 2's "Universal Input" box).
    pub fn universal_inputs(&self) -> Vec<usize> {
        self.filters
            .iter()
            .enumerate()
            .filter(|(_, f)| matches!(f, InputFilter::Universal))
            .map(|(i, _)| i)
            .collect()
    }

    /// The cached input filter of rule `i` (used for entry routing).
    pub fn filter(&self, i: usize) -> &InputFilter {
        &self.filters[i]
    }

    /// Rules whose buffer should receive a raw input triple with
    /// predicate `p`.
    pub fn entry_routes(&self, p: slider_model::NodeId) -> impl Iterator<Item = usize> + '_ {
        self.filters
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.accepts_predicate(p))
            .map(|(i, _)| i)
    }

    /// The rules transitively reachable from `seeds` along dependency
    /// edges, seeds included. Result is sorted and deduplicated.
    ///
    /// This is the graph query behind DRed overdeletion (the *downward
    /// closure* of a retraction): a deleted triple can only invalidate
    /// conclusions of rules reachable from the rules that consume it, so
    /// maintenance restricts its rule set to `reachable(entry_routes(p))`
    /// for the retracted predicates `p`.
    pub fn reachable(&self, seeds: impl IntoIterator<Item = usize>) -> Vec<usize> {
        let mut visited = vec![false; self.len()];
        let mut stack: Vec<usize> = seeds.into_iter().collect();
        let mut out = Vec::new();
        while let Some(i) = stack.pop() {
            if visited[i] {
                continue;
            }
            visited[i] = true;
            out.push(i);
            stack.extend(self.succ[i].iter().copied().filter(|&j| !visited[j]));
        }
        out.sort_unstable();
        out
    }

    /// The rules that may participate in the downward closure of a deleted
    /// triple with predicate `p`: the [`DependencyGraph::reachable`] set of
    /// its [`DependencyGraph::entry_routes`].
    pub fn affected_by(&self, p: slider_model::NodeId) -> Vec<usize> {
        self.reachable(self.entry_routes(p).collect::<Vec<_>>())
    }

    /// Number of maintenance partitions: the finest grouping of rules such
    /// that maintenance scoped to one group never reads or writes a triple
    /// that maintenance in another group writes (see
    /// [`DependencyGraph::component_of`] for the grouping criterion).
    pub fn partition_count(&self) -> usize {
        self.partitions.count
    }

    /// The maintenance partition (component id in
    /// `0..`[`partition_count`](DependencyGraph::partition_count)) of rule
    /// `i`.
    ///
    /// Two rules share a component when (transitively) one feeds the
    /// other, their input filters overlap, or their output signatures
    /// overlap — the union of everything that could make their
    /// overdeletion/rederivation footprints touch. Retractions whose
    /// predicates map to *different* components
    /// ([`DependencyGraph::component_of_predicate`]) can therefore be
    /// maintained by independent DRed passes, in parallel.
    pub fn component_of(&self, i: usize) -> usize {
        self.partitions.comp[i]
    }

    /// The maintenance partition responsible for predicate `p`: the
    /// component of the rules that consume or emit `p`. By construction
    /// all of them share one component, so the answer is unique; `None`
    /// means no rule touches `p` — retracting such a triple is a plain
    /// delete with no derived consequences (an *inert* retraction).
    pub fn component_of_predicate(&self, p: NodeId) -> Option<usize> {
        (0..self.len())
            .find(|&i| self.filters[i].accepts_predicate(p) || self.outputs[i].may_emit(p))
            .map(|i| self.partitions.comp[i])
    }

    /// Every predicate component `c`'s rules consume or emit (sorted,
    /// deduplicated) — the tables a maintenance pass scoped to `c` may
    /// touch. `None` when a member rule has a universal input or output:
    /// the component owns every predicate and cannot be split off.
    pub fn component_predicates(&self, c: usize) -> Option<&[NodeId]> {
        self.partitions.owned[c].as_deref()
    }

    /// Renders the graph in Graphviz DOT, reproducing Figure 2's layout
    /// conventions (a "Universal Input" source node feeding the universal
    /// rules).
    pub fn to_dot(&self) -> String {
        let mut dot = String::from("digraph rules_dependency {\n  rankdir=LR;\n");
        dot.push_str("  universal_input [label=\"Universal Input\", shape=box];\n");
        for (i, name) in self.names.iter().enumerate() {
            let _ = writeln!(dot, "  r{i} [label=\"{name}\"];");
        }
        for i in self.universal_inputs() {
            let _ = writeln!(dot, "  universal_input -> r{i};");
        }
        for (i, succs) in self.succ.iter().enumerate() {
            for &j in succs {
                let _ = writeln!(dot, "  r{i} -> r{j};");
            }
        }
        dot.push_str("}\n");
        dot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use slider_model::vocab::{RDFS_SUB_CLASS_OF, RDF_TYPE};
    use slider_model::Dictionary;
    use std::sync::Arc;

    #[test]
    fn rho_df_graph_matches_figure2() {
        let g = DependencyGraph::build(&Ruleset::rho_df());
        assert_eq!(g.len(), 8);

        // Figure 2: PRP-DOM, PRP-RNG, PRP-SPO1 take universal input.
        let universal: Vec<&str> = g
            .universal_inputs()
            .into_iter()
            .map(|i| g.name(i))
            .collect();
        assert_eq!(universal, vec!["PRP-DOM", "PRP-RNG", "PRP-SPO1"]);

        // The worked example from §2.3: "the directed edge from rule
        // SCM-SCO to CAX-SCO depicts that output of first rule, a
        // subclassOf relation can be used as an input for second rule".
        assert!(g.has_edge_named("SCM-SCO", "CAX-SCO"));

        // Transitive rules feed themselves.
        assert!(g.has_edge_named("SCM-SCO", "SCM-SCO"));
        assert!(g.has_edge_named("SCM-SPO", "SCM-SPO"));

        // subPropertyOf flows into the dom/rng schema rules.
        assert!(g.has_edge_named("SCM-SPO", "SCM-DOM2"));
        assert!(g.has_edge_named("SCM-SPO", "SCM-RNG2"));

        // type-producers feed CAX-SCO.
        for producer in ["PRP-DOM", "PRP-RNG", "CAX-SCO"] {
            assert!(
                g.has_edge_named(producer, "CAX-SCO"),
                "{producer} → CAX-SCO"
            );
        }

        // Everything feeds the universal-input rules.
        for from in 0..g.len() {
            for to_name in ["PRP-DOM", "PRP-RNG", "PRP-SPO1"] {
                assert!(
                    g.has_edge(from, g.index_of(to_name).unwrap()),
                    "{} → {to_name}",
                    g.name(from)
                );
            }
        }

        // PRP-SPO1 (universal output) feeds everything.
        let spo1 = g.index_of("PRP-SPO1").unwrap();
        for to in 0..g.len() {
            assert!(g.has_edge(spo1, to));
        }

        // Negative cases: type-producers do not feed the schema-only rules.
        assert!(!g.has_edge_named("CAX-SCO", "SCM-SCO"));
        assert!(!g.has_edge_named("PRP-DOM", "SCM-DOM2"));
        assert!(!g.has_edge_named("SCM-DOM2", "SCM-SCO"));
        assert!(!g.has_edge_named("SCM-RNG2", "SCM-DOM2"));
    }

    /// Pin the exact ρdf edge set: 8 rules; every rule feeds the 3
    /// universal ones; plus the predicate-mediated edges.
    #[test]
    fn rho_df_exact_edge_count() {
        let g = DependencyGraph::build(&Ruleset::rho_df());
        let mut expected = 0usize;
        // every rule → 3 universal-input rules
        expected += 8 * 3;
        // PRP-SPO1 (universal out) → the 5 non-universal rules
        expected += 5;
        // sco producers (CAX? no — CAX-SCO emits type) :
        // SCM-SCO (sco) → {CAX-SCO, SCM-SCO}
        expected += 2;
        // SCM-SPO (spo) → {SCM-SPO, SCM-DOM2, SCM-RNG2}
        expected += 3;
        // SCM-DOM2 (dom) → {SCM-DOM2}
        expected += 1;
        // SCM-RNG2 (rng) → {SCM-RNG2}
        expected += 1;
        // type producers CAX-SCO, PRP-DOM, PRP-RNG → {CAX-SCO}
        expected += 3;
        assert_eq!(g.edge_count(), expected, "\n{}", g.to_dot());
    }

    #[test]
    fn rdfs_graph_wires_structural_rules() {
        let dict = Arc::new(Dictionary::new());
        let g = DependencyGraph::build(&Ruleset::rdfs(&dict));
        // rdfs8 emits subClassOf → feeds SCM-SCO and CAX-SCO.
        assert!(g.has_edge_named("RDFS8", "SCM-SCO"));
        assert!(g.has_edge_named("RDFS8", "CAX-SCO"));
        // rdfs6 emits subPropertyOf → feeds SCM-SPO and PRP-SPO1.
        assert!(g.has_edge_named("RDFS6", "SCM-SPO"));
        assert!(g.has_edge_named("RDFS6", "PRP-SPO1"));
        // rdfs4a emits type → feeds the type-filtered structural rules.
        assert!(g.has_edge_named("RDFS4A", "RDFS8"));
        assert!(g.has_edge_named("RDFS4A", "RDFS10"));
        // …but not the sco-only rule.
        assert!(!g.has_edge_named("RDFS4A", "SCM-SCO"));
    }

    #[test]
    fn entry_routes_by_predicate() {
        let g = DependencyGraph::build(&Ruleset::rho_df());
        let sco_routes: Vec<&str> = g
            .entry_routes(RDFS_SUB_CLASS_OF)
            .map(|i| g.name(i))
            .collect();
        assert_eq!(
            sco_routes,
            vec!["CAX-SCO", "SCM-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1"]
        );
        let type_routes: Vec<&str> = g.entry_routes(RDF_TYPE).map(|i| g.name(i)).collect();
        assert_eq!(
            type_routes,
            vec!["CAX-SCO", "PRP-DOM", "PRP-RNG", "PRP-SPO1"]
        );
        // A random predicate only reaches the universal rules.
        let other: Vec<&str> = g
            .entry_routes(slider_model::NodeId(99_999))
            .map(|i| g.name(i))
            .collect();
        assert_eq!(other, vec!["PRP-DOM", "PRP-RNG", "PRP-SPO1"]);
    }

    #[test]
    fn reachability_closure() {
        let g = DependencyGraph::build(&Ruleset::rho_df());
        // Empty seed set reaches nothing.
        assert!(g.reachable(Vec::new()).is_empty());
        // Seeds are included even without a self-loop.
        let cax = g.index_of("CAX-SCO").unwrap();
        let from_cax = g.reachable([cax]);
        assert!(from_cax.contains(&cax));
        // CAX-SCO feeds the universal rules; PRP-SPO1 (universal output)
        // then feeds everything — so the closure is all 8 rules.
        assert_eq!(from_cax.len(), 8);
        // Result is sorted + deduplicated even with duplicate seeds.
        let dup = g.reachable([cax, cax]);
        assert_eq!(dup, from_cax);
        assert!(dup.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn affected_by_predicate() {
        let g = DependencyGraph::build(&Ruleset::rho_df());
        // In ρdf every predicate routes into the universal-input rules and
        // PRP-SPO1's universal output closes over everything: deleting any
        // triple can, in principle, touch all 8 rules.
        assert_eq!(g.affected_by(RDFS_SUB_CLASS_OF).len(), 8);
        assert_eq!(g.affected_by(slider_model::NodeId(99_999)).len(), 8);
        // A ruleset without universal rules localises the closure.
        let rs = Ruleset::custom("sco-only")
            .with(crate::rho_df::CaxSco)
            .with(crate::rho_df::ScmSco)
            .with(crate::rho_df::ScmSpo);
        let g = DependencyGraph::build(&rs);
        let affected: Vec<&str> = g
            .affected_by(RDF_TYPE)
            .into_iter()
            .map(|i| g.name(i))
            .collect();
        // type only enters CAX-SCO, whose output (type) feeds only itself.
        assert_eq!(affected, vec!["CAX-SCO"]);
        let affected: Vec<&str> = g
            .affected_by(RDFS_SUB_CLASS_OF)
            .into_iter()
            .map(|i| g.name(i))
            .collect();
        // sco enters CAX-SCO + SCM-SCO; SCM-SPO stays untouched.
        assert_eq!(affected, vec!["CAX-SCO", "SCM-SCO"]);
    }

    #[test]
    fn rho_df_collapses_to_one_partition() {
        // The PRP-* rules are universal on input (PRP-DOM/RNG) or output
        // (PRP-SPO1): everything overlaps, so ρdf has a single maintenance
        // partition that owns every predicate.
        let g = DependencyGraph::build(&Ruleset::rho_df());
        assert_eq!(g.partition_count(), 1);
        for i in 0..g.len() {
            assert_eq!(g.component_of(i), 0);
        }
        assert_eq!(g.component_predicates(0), None, "universal ownership");
        assert_eq!(g.component_of_predicate(RDF_TYPE), Some(0));
        assert_eq!(
            g.component_of_predicate(slider_model::NodeId(99_999)),
            Some(0),
            "universal input consumes every predicate"
        );
    }

    #[test]
    fn predicate_scoped_rules_partition() {
        // {CAX-SCO, SCM-SCO} share sco; SCM-SPO's spo vocabulary is
        // disjoint from both — two partitions.
        let rs = Ruleset::custom("scoped")
            .with(crate::rho_df::CaxSco)
            .with(crate::rho_df::ScmSco)
            .with(crate::rho_df::ScmSpo);
        let g = DependencyGraph::build(&rs);
        assert_eq!(g.partition_count(), 2);
        let sco_comp = g.component_of(g.index_of("CAX-SCO").unwrap());
        assert_eq!(g.component_of(g.index_of("SCM-SCO").unwrap()), sco_comp);
        let spo_comp = g.component_of(g.index_of("SCM-SPO").unwrap());
        assert_ne!(sco_comp, spo_comp);
        // Consumers and emitters agree on ownership.
        assert_eq!(g.component_of_predicate(RDFS_SUB_CLASS_OF), Some(sco_comp));
        assert_eq!(g.component_of_predicate(RDF_TYPE), Some(sco_comp));
        use slider_model::vocab::RDFS_SUB_PROPERTY_OF;
        assert_eq!(
            g.component_of_predicate(RDFS_SUB_PROPERTY_OF),
            Some(spo_comp)
        );
        // Unknown predicates are inert.
        assert_eq!(g.component_of_predicate(slider_model::NodeId(42)), None);
        // Owned vocabularies are finite, sorted and disjoint.
        let sco_owned = g.component_predicates(sco_comp).unwrap();
        let spo_owned = g.component_predicates(spo_comp).unwrap();
        assert!(sco_owned.contains(&RDFS_SUB_CLASS_OF));
        assert!(sco_owned.contains(&RDF_TYPE));
        assert_eq!(spo_owned, [RDFS_SUB_PROPERTY_OF]);
        assert!(sco_owned.iter().all(|p| !spo_owned.contains(p)));
    }

    #[test]
    fn output_overlap_joins_partitions_without_edges() {
        // Two rules that both emit type but never feed each other must
        // share a partition: rederiving a deleted type triple consults
        // both. (CAX-SCO feeds itself; the second family's Subsumption
        // emits into the same `type` predicate.)
        let rs = Ruleset::custom("shared-output")
            .with(crate::rho_df::CaxSco)
            .with(crate::Subsumption::new(
                "S-B",
                RDF_TYPE,
                slider_model::NodeId(7_000),
            ));
        let g = DependencyGraph::build(&rs);
        assert_eq!(g.partition_count(), 1);
    }

    #[test]
    fn empty_graph_has_no_partitions() {
        let g = DependencyGraph::build(&Ruleset::custom("empty"));
        assert_eq!(g.partition_count(), 0);
        assert_eq!(g.component_of_predicate(RDF_TYPE), None);
    }

    #[test]
    fn dot_export_contains_nodes_and_edges() {
        let g = DependencyGraph::build(&Ruleset::rho_df());
        let dot = g.to_dot();
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("Universal Input"));
        assert!(dot.contains("CAX-SCO"));
        // 3 universal-input edges drawn from the source box.
        assert_eq!(dot.matches("universal_input -> ").count(), 3);
    }

    #[test]
    fn empty_ruleset() {
        let g = DependencyGraph::build(&Ruleset::custom("empty"));
        assert!(g.is_empty());
        assert_eq!(g.edge_count(), 0);
        assert!(g.universal_inputs().is_empty());
    }
}
