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
        DependencyGraph {
            names: rules.iter().map(|r| r.name()).collect(),
            succ,
            filters,
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
    pub fn entry_routes(&self, p: NodeId) -> impl Iterator<Item = usize> + '_ {
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
    pub fn affected_by(&self, p: NodeId) -> Vec<usize> {
        self.reachable(self.entry_routes(p).collect::<Vec<_>>())
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
        let mut rs = Ruleset::custom("sco-only");
        // CAX-SCO, SCM-SCO, SCM-SPO.
        crate::rho_df::rules()
            .into_iter()
            .take(3)
            .for_each(|r| rs.push(r));
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
