"""The rewriting driver against the list-based one.

`normalize` takes each step's match lazily, skips rules whose edge
labels the host lacks and rewrites one mutable copy of the host in
place; `normalize_by_enumeration` lists every match of each rule and
builds each step's graph with the pure pushout constructions.  Both must
take the same steps to the same normal form.
"""
import random

import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace, interpret, normal_forms,
                    normalize, parse_rules, rename, save_graph)
from linhyp import rewrite
from linhyp.circuits import DELAY, FORK, JOIN, STUB, eval_rules
from linhyp.graphs import (IDENTITY_LABEL, LinearHypergraph, PatternTables,
                           validate)
from linhyp.laws import random_term
from linhyp.terms import signature
from oracles import embeds, normalize_by_enumeration
from test_circuits import belnap_sig, two_point_sig

RSIG = signature({"f": (1, 1), "p": (1, 1), "c": (1, 2), "d": (1, 2),
                  "s": (1, 0), "w": (1, 1), "h": (1, 1), "k": (1, 1)})
# `hh` comes first and its label is rare, so most steps skip it; `counit`
# has a bare wire on its right side and `k-drop` on both, so they are
# saturated with identity edges, and `k-drop` matches by expanding a host
# wire beside the k
RULE_TEXT = """
hh : h ; h => h
ff : f ; f => f
copy-nat : p ; c => c ; p * p
counit : d ; s * id 1 => id 1
k-drop : k * id 1 => id 2
"""
RULES = parse_rules(RULE_TEXT, RSIG)


def _chain(parts):
    t = parts[0]
    for u in parts[1:]:
        t = Seq(t, u)
    return t


def _tensor_all(parts):
    t = parts[0]
    for u in parts[1:]:
        t = Tensor(t, u)
    return t


def _word(rng, n):
    """n wire-level pieces 1 -> 1: generators and counit redexes."""
    counit = Seq(Gen("d"), Tensor(Gen("s"), Id(1)))
    return _chain([counit if x == "cu" else Gen(x) for x in
                   rng.choices(["f", "f", "f", "p", "w", "cu", "h", "k"], k=n)])


def _host(rng):
    """A tensor of f-chains, loops through w, copy fans and counits."""
    parts = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.choice(["word", "loop", "fan"])
        if kind == "word":
            parts.append(_word(rng, rng.randint(2, 10)))
        elif kind == "loop":
            # a bare f-loop needs matching up to homeomorphism, and
            # `ff` on a loop through one w needs the host expanded
            body = [Gen("f")] * rng.randint(1, 5)
            if rng.random() < 0.5:
                body = [Gen("w")] + body
            parts.append(Trace(1, _chain(body)))
        else:
            ps = _chain([Gen("p")] * rng.randint(1, 4))
            parts.append(Seq(Seq(ps, Gen("c")),
                             Tensor(_word(rng, rng.randint(1, 3)),
                                    Seq(Gen("c"), Tensor(Id(1), Gen("p"))))))
    return interpret(_tensor_all(parts), RSIG)


def _circuits(csig, rng, count):
    """Random gate, fork, join, stub and delay networks with values among
    their generators; on open inputs value rules stall and the
    structural rules fire."""
    sig = csig.signature()
    names = list(csig.lattice.values) + list(csig.gates) + [
        FORK, JOIN, STUB, DELAY]
    gen_sig = signature({nm: (len(sig.dom(nm)), len(sig.cod(nm)))
                         for nm in names})
    out = []
    while len(out) < count:
        t = random_term(rng, gen_sig, rng.randint(0, 2), rng.randint(1, 2),
                        depth=4, traces=False)
        H = interpret(t, sig)
        if 3 <= len(H.edges) <= 12:
            out.append(H)
    return out


def _positions(G, step):
    """The stored positions in G of a step's matched edges; edges that
    matching added to an expanded host follow G's, in creation order."""
    pos = {e: i for i, e in enumerate(G.edges)}
    new = sorted(e for e in step.edges if e not in pos)
    return tuple(sorted(pos[e] if e in pos else len(G.edges) + new.index(e)
                        for e in step.edges))


def _numbered(H):
    """H with every id replaced by its stored position: equal for two
    graphs exactly when they agree element by element in stored order."""
    order = H.targets + H.sources + H.edges
    return rename(H, {x: i for i, x in enumerate(order)})


def assert_same_run(G, rules, max_steps=200):
    """The driver's whole run against the list search, and each of the
    list search's steps against one driver step from the same graph: the
    same rule, the same matched positions and the same graph, element by
    element in stored order.  Fresh ids differ (the list search expands
    the host for matches it then discards), so elements are compared by
    position."""
    lazy = normalize(G, rules, max_steps)
    # the list search keeps no state but the graph, so its steps one at a
    # time are its whole run
    cur, listed = G, []
    while len(listed) < max_steps:
        a = normalize(cur, rules, 1)
        b = normalize_by_enumeration(cur, rules, 1)
        assert [s.rule for s in a.steps] == [s.rule for s in b.steps]
        if not b.steps:
            break
        assert _positions(cur, a.steps[0]) == _positions(cur, b.steps[0])
        assert _numbered(a.graph) == _numbered(b.graph)
        listed.append(b.steps[0].rule)
        cur = b.graph
    assert [s.rule for s in lazy.steps] == listed
    assert [s.index for s in lazy.steps] == list(range(1, len(listed) + 1))
    # the budget is exhausted only if the last graph still has a match
    assert lazy.exhausted == normalize_by_enumeration(cur, rules, 0).exhausted
    assert _numbered(lazy.graph) == _numbered(cur)
    assert save_graph(lazy.graph) == save_graph(cur)
    return lazy


def test_lazy_driver_agrees_on_rewrite_hosts():
    rng = random.Random(5)
    taken = set()
    for _ in range(40):
        res = assert_same_run(_host(rng), RULES)
        taken.update(s.rule for s in res.steps)
    assert taken == {"hh", "ff", "copy-nat", "counit", "k-drop"}


@pytest.mark.parametrize("n,max_steps", [(160, 200), (320, 400), (640, 64)],
                         ids=["160", "320", "640"])
def test_driver_agrees_on_long_chains(n, max_steps):
    """Each ``ff`` step appends its f to the stored order, so once the
    first half of the chain is used up, matches run over the edges that
    earlier steps made.  The list search costs O(n) per step, so the
    640-chain runs out of budget after its first 64 steps."""
    res = assert_same_run(interpret(_chain([Gen("f")] * n), RSIG), RULES,
                          max_steps)
    assert len(res.steps) == min(n - 1, max_steps)
    assert res.exhausted == (max_steps < n - 1)


def _counting_expand(monkeypatch):
    """Count the identity edges the driver inserts into its host."""
    calls = []
    real = rewrite._Host.expand

    def counting(self, w):
        calls.append(w)
        return real(self, w)

    monkeypatch.setattr(rewrite._Host, "expand", counting)
    return calls


def _loops(rng, count):
    """Loops of 1-5 f's, half of them through one w: ``ff`` on a bare
    loop of two f's splits its wire while the boundary is resolved."""
    parts = []
    for _ in range(count):
        body = [Gen("f")] * rng.randint(1, 5)
        if rng.random() < 0.5:
            body = [Gen("w")] + body
        parts.append(Trace(1, _chain(body)))
    return interpret(_tensor_all(parts), RSIG)


def test_driver_agrees_on_hosts_with_many_loops(monkeypatch):
    rng = random.Random(3)
    splits = _counting_expand(monkeypatch)
    for _ in range(8):
        res = assert_same_run(_loops(rng, rng.randint(8, 12)), RULES)
        assert {s.rule for s in res.steps} == {"ff"}
    assert splits


def test_rejected_candidates_leave_no_trace(monkeypatch):
    """The loops through w come first in stored order, and each of their
    f's is tried and rejected as the anchor of ``ff``; the bare 2-loop
    then matches by splitting its wire.  The driver inserts an identity
    edge for the match it takes only, where the list search also
    expands the host for the match it discards."""
    host = interpret(_tensor_all(
        [Trace(1, Seq(Gen("w"), Gen("f")))] * 4
        + [Trace(1, Seq(Gen("f"), Gen("f")))]), RSIG)
    expanded = []
    real = rewrite.expand
    monkeypatch.setattr(rewrite, "expand",
                        lambda H, w: expanded.append(w) or real(H, w))
    listed = normalize_by_enumeration(host, RULES)
    assert len(expanded) == 2  # both rotations of the 2-loop
    splits = _counting_expand(monkeypatch)
    res = assert_same_run(host, RULES)
    assert [s.rule for s in res.steps] == [s.rule for s in listed.steps]
    assert [(s.rule, _positions(host, s)) for s in res.steps] == [
        ("ff", (8, 9))]
    assert len(splits) == 2  # the whole run, then the step replayed
    assert save_graph(res.graph) == save_graph(interpret(_tensor_all(
        [Trace(1, Seq(Gen("w"), Gen("f")))] * 4 + [Trace(1, Gen("f"))]),
        RSIG))


def test_host_tables_stay_those_of_its_graph(monkeypatch):
    """After every in-place step the host's port tables, ``conn``
    inverse, label index and edge numbering are those of the graph it
    stands for.  ``glue`` puts an f's output beside a new p on a c that
    R lists the other way round: the glued c keeps R's port order, as in
    :func:`pushout`."""
    checked = []
    real = rewrite._Host.rewrite

    def checking(self, *args):
        real(self, *args)
        H = LinearHypergraph(
            tuple(self.targets), tuple(self.sources), tuple(self.labels),
            dict(self.left), dict(self.right), dict(self.conn),
            dict(self.labels), dict(self.vtlabels), dict(self.vslabels))
        assert validate(H) == []
        assert (self.tgts, self.srcs) == H.port_tables()
        assert self.conn_inv == H.conn_inv()
        assert {lab: list(es) for lab, es in self.by_label.items()} == (
            H.view.by_label)
        assert self.edge_seq.keys() == set(H.edges)
        assert sorted(H.edges, key=self.edge_seq.__getitem__) == list(H.edges)
        checked.append(len(H.edges))

    monkeypatch.setattr(rewrite._Host, "rewrite", checking)
    glue = parse_rules("glue : f ; c => c ; p * id 1\n", RSIG)
    rng = random.Random(9)
    for _ in range(10):
        assert_same_run(_host(rng), RULES)
    for G in _circuits(two_point_sig(), rng, 10):
        assert_same_run(G, eval_rules(two_point_sig()), max_steps=40)
    G = interpret(_chain([Gen("f"), Gen("c"), Tensor(Gen("f"), Gen("p")),
                          Tensor(Gen("c"), Gen("c"))]), RSIG)
    assert_same_run(G, glue + RULES)
    assert len(checked) > 100


def test_every_match_the_driver_applies_is_an_embedding(monkeypatch):
    """The in-place step trusts the search: every map that ``normalize``
    completes and applies is total, injective and commutes, on the
    rewrite hosts, the loop hosts (whose matches split host wires) and
    circuits under the evaluator's rules.  A map with two target images
    exchanged fails the same check."""
    applied = []
    real = rewrite._Host.rewrite

    def checking(self, rule, vmap_t, vmap_s, emap):
        assert embeds(rule.L, self, vmap_t, vmap_s, emap)
        if len(vmap_t) > 1:
            (a, x), (b, y) = list(vmap_t.items())[:2]
            assert not embeds(rule.L, self, {**vmap_t, a: y, b: x}, vmap_s,
                              emap)
        applied.append(rule.name)
        real(self, rule, vmap_t, vmap_s, emap)

    monkeypatch.setattr(rewrite._Host, "rewrite", checking)
    rng = random.Random(5)
    for _ in range(40):
        normalize(_host(rng), RULES)
    for _ in range(8):
        normalize(_loops(rng, rng.randint(8, 12)), RULES)
    for csig in (two_point_sig(), belnap_sig()):
        for G in _circuits(csig, rng, 20):
            normalize(G, eval_rules(csig), max_steps=40)
    names = {r.name for r in RULES}
    assert names <= set(applied) and len(set(applied) - names) >= 10
    assert len(applied) > 500


def test_normalize_cost_per_step_builds_no_graph(monkeypatch):
    """A step changes the host in place: a run builds port tables and
    graphs a fixed number of times, whatever the length of the chain."""
    normalize(interpret(_chain([Gen("f")] * 3), RSIG), RULES)  # warm caches
    counts = []
    real_tables = LinearHypergraph.port_tables
    real_post_init = LinearHypergraph.__post_init__

    def tables(self):
        counts[-1]["port_tables"] += 1
        return real_tables(self)

    def post_init(self):
        counts[-1]["graphs"] += 1
        real_post_init(self)

    for n in (40, 320):
        G = interpret(_chain([Gen("f")] * n), RSIG)
        counts.append({"port_tables": 0, "graphs": 0})
        monkeypatch.setattr(LinearHypergraph, "port_tables", tables)
        monkeypatch.setattr(LinearHypergraph, "__post_init__", post_init)
        res = normalize(G, RULES)
        monkeypatch.undo()
        assert len(res.steps) == n - 1 and len(res.graph.edges) == 1
    assert counts[0] == counts[1]
    assert counts[0]["graphs"] <= 1 and counts[0]["port_tables"] <= 1


def test_normal_forms_builds_each_search_pattern_once(monkeypatch):
    """Every state searches a rule with the pattern the rule keeps, also
    when its left side carries identity edges and is smoothed first."""
    built = []
    real = PatternTables.__init__

    def counting(self, L):
        built.append(L)
        real(self, L)

    monkeypatch.setattr(PatternTables, "__init__", counting)
    kf = Tensor(Gen("k"), Gen("f"))
    for rules in (parse_rules("k-drop : k * id 1 => id 2", RSIG),
                  parse_rules(RULE_TEXT, RSIG)):
        built.clear()
        G = interpret(_chain([kf, kf, kf, Tensor(Gen("p"), Gen("f")),
                              Tensor(Gen("c"), Gen("f"))]), RSIG)
        nfs, exhausted = normal_forms(G, rules)
        assert nfs and not exhausted
        assert len(built) <= len(rules)


@pytest.mark.parametrize("make_sig", [two_point_sig, belnap_sig],
                         ids=["two-point", "belnap"])
def test_lazy_driver_agrees_on_circuits(make_sig):
    csig = make_sig()
    rng = random.Random(11)
    rules = eval_rules(csig)
    taken = 0
    for H in _circuits(csig, rng, 20):
        taken += len(assert_same_run(H, rules, max_steps=40).steps)
    assert taken > 0


def test_rules_whose_labels_the_host_lacks_are_not_searched(monkeypatch):
    rng = random.Random(7)
    hosts = [_host(rng) for _ in range(10)]
    expected = [normalize_by_enumeration(G, RULES) for G in hosts]
    searched = []
    real = rewrite.embeddings

    def recording(L, G, up_to_homeo=False):
        searched.append((L, set(G.labels.values())))
        return real(L, G, up_to_homeo)

    monkeypatch.setattr(rewrite, "embeddings", recording)
    got = [normalize(G, RULES) for G in hosts]
    for lazy, listed in zip(got, expected):
        assert [s.rule for s in lazy.steps] == [s.rule for s in listed.steps]
        assert save_graph(lazy.graph) == save_graph(listed.graph)
    assert searched
    for L, present in searched:
        assert set(L.labels.values()) - {IDENTITY_LABEL} <= present
    # `hh` is tried first, so without skipping it would be searched once
    # per step and once more at each normal form
    hh = RULES[0].L
    assert sum(L is hh for L, _ in searched) < sum(
        len(r.steps) + 1 for r in got)
