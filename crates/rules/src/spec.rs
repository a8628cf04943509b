//! Rules as data: the [`RuleSpec`] IR and the one join evaluator behind
//! every built-in rule.
//!
//! A spec is a list of Horn clauses `body ⊢ head` over triple patterns
//! ([`Atom`]s) whose positions are variables or constant term ids, plus
//! optional [`Guard`]s. Construction compiles it once into join plans:
//!
//! * **forward**, one plan per body atom: a delta triple matching that atom
//!   binds its variables, then the other atoms are probed in the store,
//!   most-bound atom first (ties: bound predicate first, then declaration
//!   order), each through the vertical-index lookup its bound positions
//!   allow. This is paper Algorithm 1, semi-naive, for any body;
//! * **backward**, one plan per head atom: unify the head with the asked
//!   triple, then run the same join over the whole body and stop at the
//!   first solution — one-step SLD resolution, which is [`Rule::derives`].
//!
//! A kind guard ([`Guard::Literal`], [`Guard::NotLiteral`]) is checked,
//! through the spec's [`RuleSpec::dictionary`], by the step that first
//! binds its variable. The input filter, output signature and transitive
//! predicate are read off the clauses, so they cannot disagree with what
//! the rule does; so are the patterns [`Rule::joinable`] routes by.
//!
//! Each forward plan also gets a **key**: the atom positions that the
//! later steps, the head or a guard read, or that repeat a variable of the
//! atom itself. Where the key is narrower than the atom — `RDFS4A` reads
//! only the subject of `(x p y)` — a delta triple whose key equals that of
//! the previous triple the atom admitted is skipped: it would bind the
//! same values and emit the same conclusions again. The check is O(1) and
//! allocates nothing; it sheds the repeats of a delta in subject (or
//! object) runs, as input and overdeletion deltas mostly are.
//!
//! ```
//! use slider_model::{Dictionary, NodeId, Term, Triple};
//! use slider_rules::{Atom, Guard, InputFilter, Rule, RuleSpec};
//! use std::sync::Arc;
//!
//! let (parent, brother, uncle) = (NodeId(100), NodeId(101), NodeId(102));
//! let rule = RuleSpec::new("UNCLE", "(x parent y), (y brother z) ⊢ (x uncle z)").clause(
//!     [Atom::new("x", parent, "y"), Atom::new("y", brother, "z")],
//!     [Atom::new("x", uncle, "z")],
//! );
//! assert_eq!(rule.input_filter(), InputFilter::Predicates(vec![parent, brother]));
//!
//! // A kind guard: only a literal name is a label.
//! let dict = Arc::new(Dictionary::new());
//! let (name, label, bob) = (NodeId(103), NodeId(104), NodeId(105));
//! let labels = RuleSpec::new("LABEL", "(x name l), l literal ⊢ (x label l)")
//!     .dictionary(&dict)
//!     .clause([Atom::new("x", name, "l")], [Atom::new("x", label, "l")])
//!     .guard(Guard::Literal("l"));
//! let lit = dict.intern(&Term::literal("Bob"));
//! let delta = [Triple::new(bob, name, lit), Triple::new(bob, name, bob)];
//! let mut out = Vec::new();
//! labels.apply(&delta.iter().copied().collect(), &delta, &mut out);
//! assert_eq!(out, [Triple::new(bob, label, lit)]);
//! ```

use crate::rule::{InputFilter, OutputSignature, Rule};
use slider_model::{Dictionary, NodeId, Triple};
use slider_store::{PropertyTable, TriplePattern, VerticalStore};
use std::sync::Arc;

/// One position of an [`Atom`]: a variable, by name, or a constant term id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Arg {
    /// A variable; equal names within one clause are the same variable.
    Var(&'static str),
    /// A fixed term id.
    Const(NodeId),
}

impl From<&'static str> for Arg {
    fn from(name: &'static str) -> Self {
        Arg::Var(name)
    }
}

impl From<NodeId> for Arg {
    fn from(id: NodeId) -> Self {
        Arg::Const(id)
    }
}

/// A triple pattern: subject, predicate and object [`Arg`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Atom {
    s: Arg,
    p: Arg,
    o: Arg,
}

impl Atom {
    /// An atom from three positions; `&'static str` is a variable and
    /// [`NodeId`] a constant.
    pub fn new(s: impl Into<Arg>, p: impl Into<Arg>, o: impl Into<Arg>) -> Self {
        let (s, p, o) = (s.into(), p.into(), o.into());
        Atom { s, p, o }
    }

    fn args(&self) -> [Arg; 3] {
        [self.s, self.p, self.o]
    }
}

/// A side condition every body solution must meet before the head fires.
/// The two kind guards need a [`RuleSpec::dictionary`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Guard {
    /// The two variables are bound to different terms (`PRP-FP`, `PRP-IFP`).
    Distinct(&'static str, &'static str),
    /// The variable is bound to a literal (`RDFS1`).
    Literal(&'static str),
    /// The variable is bound to a term that is not a literal (`RDFS4B`).
    NotLiteral(&'static str),
}

/// One Horn clause: every solution of `body` in the store yields every
/// `head` atom (whose variables all occur in `body`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct Clause {
    body: Vec<Atom>,
    head: Vec<Atom>,
}

/// A rule as data: named clauses plus guards, evaluated by one compiled
/// join evaluator (see the module docs).
///
/// Two specs are equal iff name, definition, clauses (constants included)
/// and guards are — the identity `Op::Swap` uses, so a rule
/// re-pointed at another predicate under the same name is another rule.
/// The dictionary is not part of it.
#[derive(Debug, Clone)]
pub struct RuleSpec {
    name: &'static str,
    definition: &'static str,
    clauses: Vec<Clause>,
    guards: Vec<Guard>,
    /// Classifies terms for the kind guards.
    dict: Option<Arc<Dictionary>>,
    // Compiled from the fields above by `RuleSpec::compile`.
    plans: Vec<ClausePlan>,
    filter: InputFilter,
    signature: OutputSignature,
    closure: Option<NodeId>,
}

impl PartialEq for RuleSpec {
    fn eq(&self, other: &Self) -> bool {
        (self.name, self.definition, &self.clauses, &self.guards)
            == (other.name, other.definition, &other.clauses, &other.guards)
    }
}

impl Eq for RuleSpec {}

impl RuleSpec {
    /// A spec with no clauses yet; add them with [`RuleSpec::clause`].
    pub fn new(name: &'static str, definition: &'static str) -> Self {
        RuleSpec {
            name,
            definition,
            clauses: Vec::new(),
            guards: Vec::new(),
            dict: None,
            plans: Vec::new(),
            filter: InputFilter::Predicates(Vec::new()),
            signature: OutputSignature::Predicates(Vec::new()),
            closure: None,
        }
    }

    /// Adds the clause `body ⊢ head` and recompiles.
    ///
    /// # Panics
    ///
    /// If `body` is empty, a head variable does not occur in `body`, a
    /// guard names a variable the body does not bind, or the clause needs
    /// more than 16 slots (variables plus distinct constants) or more than
    /// 8 distinct constant body predicates.
    pub fn clause(mut self, body: impl Into<Vec<Atom>>, head: impl Into<Vec<Atom>>) -> Self {
        let (body, head) = (body.into(), head.into());
        self.clauses.push(Clause { body, head });
        self.compile()
    }

    /// Adds a guard, checked in every clause, and recompiles.
    ///
    /// # Panics
    ///
    /// As [`RuleSpec::clause`], and if `guard` is a kind guard and the
    /// spec has no [`RuleSpec::dictionary`] yet.
    pub fn guard(mut self, guard: Guard) -> Self {
        self.guards.push(guard);
        self.compile()
    }

    /// Sets the dictionary the kind guards classify terms with.
    pub fn dictionary(mut self, dict: &Arc<Dictionary>) -> Self {
        self.dict = Some(Arc::clone(dict));
        self
    }

    fn compile(mut self) -> Self {
        let kind = |g: &Guard| !matches!(g, Guard::Distinct(..));
        if self.dict.is_none() && self.guards.iter().any(kind) {
            panic!("{}: a kind guard needs RuleSpec::dictionary", self.name);
        }
        self.plans = (self.clauses.iter())
            .map(|clause| ClausePlan::new(self.name, clause, &self.guards))
            .collect();
        // A variable predicate anywhere makes the side universal.
        let body: Vec<&Atom> = self.clauses.iter().flat_map(|c| &c.body).collect();
        let head: Vec<&Atom> = self.clauses.iter().flat_map(|c| &c.head).collect();
        let universal = |atoms: &[&Atom]| atoms.iter().any(|a| matches!(a.p, Arg::Var(_)));
        self.filter = match universal(&body) {
            true => InputFilter::Universal,
            false => InputFilter::Predicates(constant_predicates(body)),
        };
        self.signature = match universal(&head) {
            true => OutputSignature::Universal,
            false => OutputSignature::Predicates(constant_predicates(head)),
        };
        self.closure = closure_predicate(&self.clauses, &self.guards);
        self
    }
}

/// The distinct constant predicates of `atoms`, in first-use order.
fn constant_predicates<'a>(atoms: impl IntoIterator<Item = &'a Atom>) -> Vec<NodeId> {
    let mut out = Vec::new();
    for atom in atoms {
        match atom.p {
            Arg::Const(p) if !out.contains(&p) => out.push(p),
            _ => {}
        }
    }
    out
}

/// `Some(p)` iff the clauses are exactly `(x p y), (y p z) ⊢ (x p z)`
/// (either body order) over three distinct variables, with no guard.
fn closure_predicate(clauses: &[Clause], guards: &[Guard]) -> Option<NodeId> {
    let ([clause], []) = (clauses, guards) else {
        return None;
    };
    let ([a, b], [h]) = (&clause.body[..], &clause.head[..]) else {
        return None;
    };
    let Arg::Const(p) = h.p else { return None };
    let ends = |t: &Atom| match (t.s, t.p, t.o) {
        (Arg::Var(s), q, Arg::Var(o)) if q == h.p => Some((s, o)),
        _ => None,
    };
    let ((x, z), (a0, a1), (b0, b1)) = (ends(h)?, ends(a)?, ends(b)?);
    let y = if a0 == x { a1 } else { b1 };
    let chained = (a0, a1, b1) == (x, b0, z) || (b0, b1, a1) == (x, a0, z);
    (chained && x != y && y != z && x != z).then_some(p)
}

/// Slot values during one clause evaluation: the clause's variables, then
/// its constants, which never change. A power of two long, so a masked
/// slot index needs no bounds check.
type Env = [NodeId; MAX_SLOTS];
const MAX_SLOTS: usize = 16;

/// The partitions of a clause's constant body predicates, looked up once
/// per call instead of once per probe.
type Tables<'a> = [Option<&'a PropertyTable>; MAX_PREDS];
const MAX_PREDS: usize = 8;

/// One compiled atom position: its [`Env`] slot, and whether matching a
/// term there binds the slot (a variable's first occurrence) or compares
/// with it (a constant, or a variable bound earlier).
#[derive(Debug, Clone, Copy)]
struct Pos {
    slot: u8,
    set: bool,
}

/// The store lookup that probes a body atom, fixed at compile time by
/// which positions are known then: `Contains` (s p o), `Objects` (s p),
/// `Subjects` (p o), `Pairs` (p); and, with the predicate unknown, one
/// probe per partition: `SubjectOut` (s, and maybe o), `ObjectIn` (o),
/// `Scan` (none).
#[derive(Debug, Clone, Copy)]
enum Probe {
    Contains,
    Objects,
    Subjects,
    Pairs,
    SubjectOut,
    ObjectIn,
    Scan,
}

impl Probe {
    fn knows_predicate(self) -> bool {
        matches!(
            self,
            Probe::Contains | Probe::Objects | Probe::Subjects | Probe::Pairs
        )
    }
}

/// A kind guard, compiled into the atom that first binds its variable:
/// the slot, and whether its term must be a literal.
type Kind = (u8, bool);

#[derive(Debug, Clone)]
struct Step {
    atom: [Pos; 3],
    probe: Probe,
    /// Index of the atom's constant predicate in [`ClausePlan::preds`].
    table: Option<usize>,
    kinds: Vec<Kind>,
}

/// A join entered by unifying one atom with a given triple.
#[derive(Debug, Clone)]
struct Entry {
    /// The atom's constants as a filter: `ids & mask == value` per
    /// position (0 and 0 for a variable).
    mask: [u64; 3],
    value: [u64; 3],
    atom: [Pos; 3],
    kinds: Vec<Kind>,
    steps: Vec<Step>,
    /// The positions the join reads, as a mask like `mask`, if that is
    /// narrower than the atom's variables (forward entries only): a triple
    /// whose key repeats the last admitted one's adds nothing.
    key: Option<[u64; 3]>,
}

impl Entry {
    /// The atom's constants as a pattern.
    fn pattern(&self) -> TriplePattern {
        let [s, p, o] = [0, 1, 2].map(|i| (self.mask[i] != 0).then_some(NodeId(self.value[i])));
        TriplePattern::new(s, p, o)
    }

    /// Sets the key, if it is narrower than the atom: the variable
    /// positions whose slot the steps, `heads`, `distinct` or a kind check
    /// read, or that the atom repeats.
    fn compile_key(&mut self, heads: &[[u8; 3]], distinct: &[(u8, u8)]) {
        let mut read: Vec<u8> = heads.iter().flatten().copied().collect();
        read.extend(distinct.iter().flat_map(|&(a, b)| [a, b]));
        read.extend(self.kinds.iter().map(|&(slot, _)| slot));
        for step in &self.steps {
            read.extend(step.atom.iter().map(|pos| pos.slot));
            read.extend(step.kinds.iter().map(|&(slot, _)| slot));
        }
        let slot = |i: usize| self.atom[i].slot;
        let repeated = |i: usize| (0..3).any(|j| j != i && slot(j) == slot(i));
        let var = |i: usize| self.mask[i] == 0;
        let key = [0, 1, 2].map(|i| var(i) && (read.contains(&slot(i)) || repeated(i)));
        let narrower = (0..3).any(|i| var(i) && !key[i]);
        self.key = narrower.then(|| key.map(|k| if k { u64::MAX } else { 0 }));
    }
}

#[derive(Debug, Clone)]
struct ClausePlan {
    /// The clause's constants in their slots.
    init: Env,
    /// The body's distinct constant predicates.
    preds: Vec<NodeId>,
    /// One entry per body atom (semi-naive `apply`).
    forward: Vec<Entry>,
    /// One entry per head atom (backward `derives`).
    backward: Vec<Entry>,
    head: Vec<[u8; 3]>,
    distinct: Vec<(u8, u8)>,
}

impl ClausePlan {
    fn new(name: &str, clause: &Clause, guards: &[Guard]) -> Self {
        let body = &clause.body;
        assert!(!body.is_empty(), "{name}: empty body");
        // Slots: the body's variables, then every constant of the clause.
        let args = || body.iter().chain(&clause.head).flat_map(Atom::args);
        let vars = body
            .iter()
            .flat_map(Atom::args)
            .filter(|a| matches!(a, Arg::Var(_)));
        let mut slots: Vec<Arg> = Vec::new();
        for arg in vars.chain(args().filter(|a| matches!(a, Arg::Const(_)))) {
            if !slots.contains(&arg) {
                slots.push(arg);
            }
        }
        assert!(slots.len() <= MAX_SLOTS, "{name}: over {MAX_SLOTS} slots");
        let mut init = [NodeId(0); MAX_SLOTS];
        for (value, arg) in init.iter_mut().zip(&slots) {
            if let Arg::Const(c) = *arg {
                *value = c;
            }
        }
        let preds = constant_predicates(body);
        assert!(
            preds.len() <= MAX_PREDS,
            "{name}: over {MAX_PREDS} constant predicates"
        );
        let compiler = Compiler {
            name,
            slots,
            preds,
            guards,
        };
        let var = |v| compiler.slot(Arg::Var(v)) as u8;
        let mut plan = ClausePlan {
            init,
            forward: (0..body.len())
                .map(|i| compiler.entry(&body[i], body, Some(i)))
                .collect(),
            backward: (clause.head.iter())
                .map(|h| compiler.entry(h, body, None))
                .collect(),
            head: (clause.head.iter())
                .map(|h| h.args().map(|arg| compiler.slot(arg) as u8))
                .collect(),
            distinct: (guards.iter())
                .filter_map(|guard| match *guard {
                    Guard::Distinct(a, b) => Some((var(a), var(b))),
                    Guard::Literal(_) | Guard::NotLiteral(_) => None,
                })
                .collect(),
            preds: compiler.preds,
        };
        for entry in &mut plan.forward {
            entry.compile_key(&plan.head, &plan.distinct);
        }
        plan
    }

    /// Whether `entry`'s other atoms' constant predicates all have a
    /// partition in `tables`: if not, the entry has no solutions.
    fn can_join(entry: &Entry, tables: &Tables) -> bool {
        (entry.steps.iter()).all(|st| st.table.is_none_or(|i| tables[i].is_some()))
    }

    /// Looks up the partitions of the body's constant predicates.
    fn tables<'a>(&self, store: &'a VerticalStore) -> Tables<'a> {
        let mut tables = [None; MAX_PREDS];
        for (table, &p) in tables.iter_mut().zip(&self.preds) {
            *table = store.table(p);
        }
        tables
    }
}

/// Compiles one clause's atoms against its slot layout.
struct Compiler<'a> {
    name: &'a str,
    slots: Vec<Arg>,
    preds: Vec<NodeId>,
    guards: &'a [Guard],
}

impl Compiler<'_> {
    fn slot(&self, arg: Arg) -> usize {
        let found = self.slots.iter().position(|&s| s == arg);
        found.unwrap_or_else(|| panic!("{}: {arg:?} is not bound by the body", self.name))
    }

    /// The positions of `atom` known under `bound`.
    fn known(&self, atom: &Atom, bound: &[bool]) -> [bool; 3] {
        (atom.args()).map(|arg| matches!(arg, Arg::Const(_)) || bound[self.slot(arg)])
    }

    /// Compiles `atom` under `bound`, marking the variables it binds.
    fn atom(&self, atom: &Atom, bound: &mut [bool]) -> [Pos; 3] {
        atom.args().map(|arg| {
            let slot = self.slot(arg);
            let set = matches!(arg, Arg::Var(_)) && !bound[slot];
            bound[slot] = true;
            Pos {
                slot: slot as u8,
                set,
            }
        })
    }

    /// The kind guards on the variables a compiled atom binds.
    fn kinds(&self, atom: &[Pos; 3]) -> Vec<Kind> {
        let kinds = self.guards.iter().filter_map(|guard| match *guard {
            Guard::Literal(v) => Some((self.slot(Arg::Var(v)) as u8, true)),
            Guard::NotLiteral(v) => Some((self.slot(Arg::Var(v)) as u8, false)),
            Guard::Distinct(..) => None,
        });
        let binds = |&(slot, _): &Kind| atom.iter().any(|pos| pos.set && pos.slot == slot);
        kinds.filter(binds).collect()
    }

    /// Compiles a join entered through `atom` (body atom `skip`, or a head
    /// atom) over the rest of `body`, greedily ordered: most known
    /// positions first, then a known predicate, then declaration order.
    fn entry(&self, atom: &Atom, body: &[Atom], skip: Option<usize>) -> Entry {
        let mut bound = vec![false; self.slots.len()];
        let consts = atom.args().map(|arg| match arg {
            Arg::Const(c) => (u64::MAX, c.0),
            Arg::Var(_) => (0, 0),
        });
        let first = self.atom(atom, &mut bound);
        let mut left: Vec<usize> = (0..body.len()).filter(|&i| Some(i) != skip).collect();
        let mut steps = Vec::new();
        while !left.is_empty() {
            let score = |i: usize| {
                let k = self.known(&body[i], &bound);
                2 * k.iter().filter(|&&b| b).count() + usize::from(k[1])
            };
            let mut best = 0;
            for j in 1..left.len() {
                if score(left[j]) > score(left[best]) {
                    best = j;
                }
            }
            let next = &body[left.remove(best)];
            let probe = match self.known(next, &bound) {
                [true, true, true] => Probe::Contains,
                [true, true, false] => Probe::Objects,
                [false, true, true] => Probe::Subjects,
                [false, true, false] => Probe::Pairs,
                [true, false, _] => Probe::SubjectOut,
                [false, false, true] => Probe::ObjectIn,
                [false, false, false] => Probe::Scan,
            };
            let table = match next.p {
                Arg::Const(p) => self.preds.iter().position(|&q| q == p),
                Arg::Var(_) => None,
            };
            let atom = self.atom(next, &mut bound);
            let kinds = self.kinds(&atom);
            steps.push(Step {
                atom,
                probe,
                table,
                kinds,
            });
        }
        let (mask, value) = (consts.map(|c| c.0), consts.map(|c| c.1));
        Entry {
            mask,
            value,
            kinds: self.kinds(&first),
            atom: first,
            steps,
            key: None,
        }
    }
}

#[inline(always)]
fn at(slot: u8) -> usize {
    usize::from(slot) % MAX_SLOTS
}

/// Binds or checks one position against `x`.
#[inline(always)]
fn bind(pos: Pos, x: NodeId, env: &mut Env) -> bool {
    let slot = &mut env[at(pos.slot)];
    if pos.set {
        *slot = x;
        true
    } else {
        *slot == x
    }
}

/// Matches `t` against an atom, binding first occurrences.
#[inline(always)]
fn unify(atom: &[Pos; 3], t: Triple, env: &mut Env) -> bool {
    bind(atom[0], t.s, env) && bind(atom[1], t.p, env) && bind(atom[2], t.o, env)
}

/// Whether every kind check holds on `env`.
#[inline(always)]
fn kinds_hold(kinds: &[Kind], env: &Env, dict: Option<&Dictionary>) -> bool {
    (kinds.iter()).all(|&(slot, lit)| dict.is_some_and(|d| d.is_literal(env[at(slot)]) == lit))
}

/// Whether `t` matches the constants of `entry`'s atom.
#[inline(always)]
fn admits(entry: &Entry, t: Triple) -> bool {
    let (m, v) = (&entry.mask, &entry.value);
    ((t.s.0 & m[0]) ^ v[0]) | ((t.p.0 & m[1]) ^ v[1]) | ((t.o.0 & m[2]) ^ v[2]) == 0
}

/// Probes `step`, whose predicate is known and has partition `table`:
/// for every match, binds the unknown positions and calls `k`, stopping
/// as soon as `k` returns `true`. Returns whether it stopped. Plain `for`
/// loops keep the store's iterators inlined.
#[inline(always)]
fn probe(
    table: Option<&PropertyTable>,
    step: &Step,
    env: &mut Env,
    mut k: impl FnMut(&mut Env) -> bool,
) -> bool {
    let Some(table) = table else { return false };
    let [s, _, o] = step.atom;
    let [sv, _, ov] = step.atom.map(|pos| env[at(pos.slot)]);
    match step.probe {
        Probe::Contains => table.contains(sv, ov) && k(env),
        Probe::Objects => {
            for x in table.objects(sv) {
                if bind(o, x, env) && k(env) {
                    return true;
                }
            }
            false
        }
        Probe::Subjects => {
            for x in table.subjects(ov) {
                if bind(s, x, env) && k(env) {
                    return true;
                }
            }
            false
        }
        _ => {
            for (x, y) in table.pairs() {
                if bind(s, x, env) && bind(o, y, env) && k(env) {
                    return true;
                }
            }
            false
        }
    }
}

/// [`probe`] for the shapes with an unknown predicate: every partition.
#[inline(never)]
fn probe_any_predicate(
    store: &VerticalStore,
    step: &Step,
    env: &mut Env,
    mut k: impl FnMut(&mut Env) -> bool,
) -> bool {
    let [s, p, o] = step.atom;
    let [sv, _, ov] = step.atom.map(|pos| env[at(pos.slot)]);
    let mut tables = store.tables();
    match step.probe {
        Probe::SubjectOut => tables.any(|(q, tab)| {
            (tab.objects(sv)).any(|y| bind(p, q, env) && bind(o, y, env) && k(env))
        }),
        Probe::ObjectIn => tables.any(|(q, tab)| {
            (tab.subjects(ov)).any(|x| bind(s, x, env) && bind(p, q, env) && k(env))
        }),
        _ => store.iter().any(|t| unify(&step.atom, t, env) && k(env)),
    }
}

/// Runs `steps`, checking each step's kinds through `dict`; at each full
/// solution that passes `distinct`, calls `emit`, stopping as soon as it
/// returns `true`. Returns whether it stopped.
#[inline(never)]
fn solve<F: FnMut(&Env) -> bool>(
    store: &VerticalStore,
    tables: &Tables,
    dict: Option<&Dictionary>,
    steps: &[Step],
    distinct: &[(u8, u8)],
    env: &mut Env,
    emit: &mut F,
) -> bool {
    let Some((step, rest)) = steps.split_first() else {
        let apart = |&(a, b): &(u8, u8)| env[at(a)] != env[at(b)];
        return distinct.iter().all(apart) && emit(env);
    };
    let k = |env: &mut Env| {
        kinds_hold(&step.kinds, env, dict) && solve(store, tables, dict, rest, distinct, env, emit)
    };
    match step.table {
        _ if !step.probe.knows_predicate() => probe_any_predicate(store, step, env, k),
        Some(i) => probe(tables[i], step, env, k),
        None => probe(store.table(env[at(step.atom[1].slot)]), step, env, k),
    }
}

impl Rule for RuleSpec {
    fn name(&self) -> &'static str {
        self.name
    }

    fn definition(&self) -> &'static str {
        self.definition
    }

    fn input_filter(&self) -> InputFilter {
        self.filter.clone()
    }

    fn output_signature(&self) -> OutputSignature {
        self.signature.clone()
    }

    /// Entry by entry, then delta triple by delta triple: the order of
    /// `out` differs from a triple-major loop, its multiset does not.
    fn apply(&self, store: &VerticalStore, delta: &[Triple], out: &mut Vec<Triple>) {
        let dict = self.dict.as_deref();
        for plan in &self.plans {
            let tables = plan.tables(store);
            let mut env = plan.init;
            let (heads, distinct) = (plan.head.as_slice(), plan.distinct.as_slice());
            let head = |h: &[u8; 3], env: &Env| {
                let [s, p, o] = h.map(|slot| env[at(slot)]);
                Triple::new(s, p, o)
            };
            let mut emit = |env: &Env| {
                match heads {
                    [h] => out.push(head(h, env)),
                    _ => out.extend(heads.iter().map(|h| head(h, env))),
                }
                false
            };
            for entry in &plan.forward {
                // A constant predicate absent from the store: no solutions.
                if !ClausePlan::can_join(entry, &tables) {
                    continue;
                }
                // Specialised shapes, each run in the loop itself: a
                // one-atom body, and a second atom over a constant
                // predicate; anything else goes through `solve`.
                let steps = entry.steps.as_slice();
                let direct = match (steps, distinct) {
                    ([step], []) if step.kinds.is_empty() => step.table.map(|i| (step, i)),
                    _ => None,
                };
                let mut last = None;
                for &t in delta {
                    if !admits(entry, t) {
                        continue;
                    }
                    if let Some(m) = entry.key {
                        let key = Some([t.s.0 & m[0], t.p.0 & m[1], t.o.0 & m[2]]);
                        if key == last {
                            continue;
                        }
                        last = key;
                    }
                    if !unify(&entry.atom, t, &mut env) || !kinds_hold(&entry.kinds, &env, dict) {
                        continue;
                    }
                    if let Some((step, i)) = direct {
                        probe(tables[i], step, &mut env, |env| emit(env));
                    } else if steps.is_empty() && distinct.is_empty() {
                        emit(&env);
                    } else {
                        solve(store, &tables, dict, steps, distinct, &mut env, &mut emit);
                    }
                }
            }
        }
    }

    fn derives(&self, store: &VerticalStore, t: Triple) -> bool {
        if !self.signature.may_emit(t.p) {
            return false;
        }
        let dict = self.dict.as_deref();
        self.plans.iter().any(|plan| {
            plan.backward.iter().any(|entry| {
                if !admits(entry, t) {
                    return false;
                }
                let (mut env, tables) = (plan.init, plan.tables(store));
                if !unify(&entry.atom, t, &mut env) || !kinds_hold(&entry.kinds, &env, dict) {
                    return false;
                }
                // Bodies of one or two plain atoms (most built-ins) probe
                // in place; anything else goes through `solve`.
                let table = |step: &Step, env: &Env| match step.table {
                    Some(i) => tables[i],
                    None => store.table(env[at(step.atom[1].slot)]),
                };
                let plain = |step: &Step| step.probe.knows_predicate() && step.kinds.is_empty();
                match (entry.steps.as_slice(), plan.distinct.as_slice()) {
                    ([a], []) if plain(a) => probe(table(a, &env), a, &mut env, |_| true),
                    ([a, b], []) if plain(a) && plain(b) => {
                        probe(table(a, &env), a, &mut env, |env| {
                            probe(table(b, env), b, env, |_| true)
                        })
                    }
                    (steps, distinct) => {
                        let mut found = |_: &Env| true;
                        solve(store, &tables, dict, steps, distinct, &mut env, &mut found)
                    }
                }
            })
        })
    }

    /// The constant patterns of the forward entries that can join `store`:
    /// those whose other atoms' constant predicates all have a partition.
    fn joinable(&self, store: &VerticalStore, out: &mut Vec<TriplePattern>) {
        for plan in &self.plans {
            let tables = plan.tables(store);
            let entries = plan.forward.iter();
            out.extend(
                entries
                    .filter(|e| ClausePlan::can_join(e, &tables))
                    .map(Entry::pattern),
            );
        }
    }

    fn transitive_predicate(&self) -> Option<NodeId> {
        self.closure
    }

    fn spec(&self) -> Option<&RuleSpec> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::rule;
    use slider_model::vocab::RDF_TYPE as TYPE;

    /// `apply`'s conclusions with `delta` as the whole store, sorted.
    fn apply(rule: &RuleSpec, delta: &[Triple]) -> Vec<Triple> {
        let mut out = Vec::new();
        rule.apply(&delta.iter().copied().collect(), delta, &mut out);
        out.sort_unstable();
        out
    }

    /// The run-length skip reads the positions the atom itself compares:
    /// in `(x p x)` the head reads only `p`, yet `x` decides whether a
    /// triple unifies, so `(a p a)` after `(b p a)` is no repeat. Nor is a
    /// triple whose key repeats one the atom's constants rejected.
    #[test]
    fn the_run_length_skip_keeps_what_the_atom_compares() {
        let [p, q, t, a, b, c] = [100, 101, 102, 103, 104, 105].map(NodeId);
        let loops = RuleSpec::new("LOOP", "(x p x) ⊢ (p type T)")
            .clause([Atom::new("x", "p", "x")], [Atom::new("p", TYPE, t)]);
        let delta = [Triple::new(b, p, a), Triple::new(a, p, a)];
        assert_eq!(apply(&loops, &delta), [Triple::new(p, TYPE, t)]);

        let typed = RuleSpec::new("P-SUBJECT", "(x p y) ⊢ (x type T)")
            .clause([Atom::new("x", p, "y")], [Atom::new("x", TYPE, t)]);
        assert!(typed.plans[0].forward[0].key.is_some(), "{{x}} is narrower");
        let delta = [
            Triple::new(a, q, b),
            Triple::new(a, p, c),
            Triple::new(a, p, b),
        ];
        let mut raw = Vec::new();
        typed.apply(&delta.iter().copied().collect(), &delta, &mut raw);
        assert_eq!(raw, [Triple::new(a, TYPE, t)], "one emission per run");
    }

    /// The built-in forward plans with a key narrower than their atom are
    /// exactly `RDFS1` {o}, `RDFS4A` {s}, `RDFS4B` {o}, `PRP-DOM` {x, p}
    /// and `PRP-RNG` {p, y}: every other plan reads all of its entry atom.
    #[test]
    fn builtin_keys() {
        let (all, none) = (u64::MAX, 0);
        let keyed = |name: &str| -> Vec<[u64; 3]> {
            let rule = rule(name);
            let spec = rule.spec().expect("built-ins are specs");
            let entries = spec.plans.iter().flat_map(|plan| &plan.forward);
            entries.filter_map(|entry| entry.key).collect()
        };
        let expected = [
            ("RDFS1", [none, none, all]),
            ("RDFS4A", [all, none, none]),
            ("RDFS4B", [none, none, all]),
            ("PRP-DOM", [all, all, none]),
            ("PRP-RNG", [none, all, all]),
        ];
        let rules = crate::Ruleset::rdfs_plus(&Arc::new(Dictionary::new()));
        for name in rules.names() {
            let want = expected.iter().filter(|(n, _)| *n == name).map(|e| e.1);
            assert_eq!(keyed(name), want.collect::<Vec<_>>(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "LIT: a kind guard needs RuleSpec::dictionary")]
    fn a_kind_guard_without_a_dictionary_panics() {
        let p = NodeId(100);
        let _ = RuleSpec::new("LIT", "(x p l), l literal ⊢ (l p x)")
            .clause([Atom::new("x", p, "l")], [Atom::new("l", p, "x")])
            .guard(Guard::Literal("l"));
    }
}
