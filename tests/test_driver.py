"""The rewriting driver against the list-based one.

`normalize` takes each step's match lazily, skips rules whose edge
labels the host lacks and rewrites one mutable copy of the host in
place; `normalize_by_enumeration` lists every match of each rule and
builds each step's graph with the pure pushout constructions.  Both must
take the same steps to the same normal form.  Each step the driver
makes with a rule's compiled step must also leave the host's tables as
`rewrite_by_plan`, the rule's plan interpreted, leaves them, and the
rules its label index gives must be those `normalize_by_scan` tests
one by one.
"""
import gc
import itertools
import random
import sys
import weakref
from dataclasses import replace

import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace, find_matchings, interpret,
                    normal_forms, normalize, parse_rules, rename, save_graph,
                    smooth)
from linhyp import rewrite
from linhyp.circuits import DELAY, FORK, JOIN, STUB
from linhyp.graphs import (IDENTITY_LABEL, LinearHypergraph, PatternTables,
                           expand, validate)
from linhyp.laws import random_term
from linhyp.rewrite import RuleSet
from linhyp.terms import signature, tensor_all
from oracles import (embeds, normal_forms_by_pushouts, normal_forms_by_scan,
                     normalize_by_enumeration, normalize_by_scan,
                     rewrite_by_plan, tables_in_order)
from test_circuits import belnap_sig, eval_and_cartesian_rules, two_point_sig

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
    return interpret(tensor_all(parts), RSIG)


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


def _with_identity_edges(rng, G):
    """G with one to three identity edges on wires chosen at random."""
    for _ in range(rng.randint(1, 3)):
        G = expand(G, rng.choice(G.targets))
    return G


def test_lazy_driver_agrees_on_hosts_with_identity_edges():
    """The driver and the list search both rewrite up to the host's
    identity edges: ``normalize`` and ``find_matchings`` smooth it
    before they search."""
    rng = random.Random(7)
    for _ in range(40):
        assert_same_run(_with_identity_edges(rng, _host(rng)), RULES)


def _hosts_chains_and_loops(rng):
    """Random rewrite hosts, f-chains and loop families, each with
    identity edges on random wires."""
    graphs = [_host(rng) for _ in range(30)]
    graphs += [interpret(_chain([Gen("f")] * rng.randint(2, 9)), RSIG)
               for _ in range(8)]
    graphs += [_loops(rng, rng.randint(2, 6)) for _ in range(8)]
    return [_with_identity_edges(rng, G) for G in graphs]


def test_smoothing_in_place_draws_the_ids_of_a_smoothed_copy():
    """``normalize`` smooths its one copy of the input in place, and new
    ids then start just above the largest id left, as on a copy of the
    smoothed graph: from a graph and from its smoothed copy, the runs
    take the same steps, at the same ids, to the same stored graph."""
    rng = random.Random(11)
    for G in _hosts_chains_and_loops(rng):
        a, b = normalize(G, RULES, 200), normalize(smooth(G), RULES, 200)
        assert a.steps == b.steps
        assert (save_graph(a.graph, canonicalize=False)
                == save_graph(b.graph, canonicalize=False))


def test_normalize_copies_its_input_once(monkeypatch):
    """``normalize`` makes one ``_Host`` and freezes it once when a step
    or the smoothing changed it, and else not at all, returning its
    input: with and without identity edges in the input."""
    from test_circuits import count_host_copies

    rng = random.Random(12)
    graphs = _hosts_chains_and_loops(rng)
    graphs += [smooth(G) for G in graphs]
    # the rules' searches and steps compile on first use; normal forms,
    # bare and with identity edges, take no step
    done = [normalize(G, RULES).graph for G in graphs]
    graphs += done + [_with_identity_edges(rng, G) for G in done]
    made = count_host_copies(monkeypatch)
    changed = 0
    for G in graphs:
        made.update(hosts=0, freezes=0)
        res = normalize(G, RULES, 200)
        smoothed = IDENTITY_LABEL in G.labels.values()
        assert made["hosts"] == 1
        assert made["freezes"] == (bool(res.steps) or smoothed)
        assert (res.graph is G) == (made["freezes"] == 0)
        changed += made["freezes"]
    assert changed == len(graphs) - len(done)  # all but bare normal forms


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
    """Count the identity edges the driver inserts into its host: the
    splits that the driver (``_reduce``) has ``_complete`` make.  The list search
    makes the same in-place splits through ``find_matchings``, on a
    fresh copy for each match that splits: those are not counted."""
    calls = []
    real = rewrite._Host.expand

    def counting(self, w):
        if sys._getframe(2).f_code is rewrite._reduce.__code__:
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
    return interpret(tensor_all(parts), RSIG)


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
    host = interpret(tensor_all(
        [Trace(1, Seq(Gen("w"), Gen("f")))] * 4
        + [Trace(1, Seq(Gen("f"), Gen("f")))]), RSIG)
    expanded = []
    real = rewrite._Host.expand
    with monkeypatch.context() as patch:
        patch.setattr(rewrite._Host, "expand",
                      lambda H, w: expanded.append(w) or real(H, w))
        listed = normalize_by_enumeration(host, RULES)
    assert len(expanded) == 2  # both rotations of the 2-loop
    splits = _counting_expand(monkeypatch)
    res = assert_same_run(host, RULES)
    assert [s.rule for s in res.steps] == [s.rule for s in listed.steps]
    assert [(s.rule, _positions(host, s)) for s in res.steps] == [
        ("ff", (8, 9))]
    assert len(splits) == 2  # the whole run, then the step replayed
    assert save_graph(res.graph) == save_graph(interpret(tensor_all(
        [Trace(1, Seq(Gen("w"), Gen("f")))] * 4 + [Trace(1, Gen("f"))]),
        RSIG))


def test_host_tables_stay_those_of_its_graph(monkeypatch):
    """After every in-place step the host's port tables, ``conn``
    inverse, label index and edge numbering are those of the graph it
    stands for.  ``glue`` puts an f's output beside a new p on a c that
    R lists the other way round: the glued c keeps R's port order, as in
    :func:`pushout`.  Every graph ``freeze`` makes, also in
    ``normal_forms``, hands the host's tables to the graph: the port
    tables are a fresh ``replace(H)``'s in insertion order, and ``inv``
    has its entries (steps reorder them; nothing reads the
    order)."""
    checked, frozen = [], []
    real = rewrite._Host.rewrite
    real_freeze = rewrite._Host.freeze

    def freezing(self):
        H = real_freeze(self)
        fresh = tables_in_order(replace(H))
        assert tables_in_order(H)[:2] == fresh[:2]
        assert H.inv == replace(H).inv
        assert H.tgts is self.tgts and H.inv is self.inv
        frozen.append(H)
        return H

    def checking(self, *args):
        real(self, *args)
        H = LinearHypergraph(
            tuple(self.targets), tuple(self.sources), tuple(self.labels),
            dict(self.left), dict(self.right), dict(self.conn),
            dict(self.labels), dict(self.vtlabels), dict(self.vslabels))
        assert validate(H) == []
        assert (self.tgts, self.srcs) == H.port_tables()
        assert self.inv == H.conn_inv()
        assert {lab: list(es) for lab, es in self.by_label.items()} == (
            H.by_label)
        assert self.edge_seq.keys() == set(H.edges)
        assert sorted(H.edges, key=self.edge_seq.__getitem__) == list(H.edges)
        checked.append(len(H.edges))

    monkeypatch.setattr(rewrite._Host, "rewrite", checking)
    monkeypatch.setattr(rewrite._Host, "freeze", freezing)
    glue = parse_rules("glue : f ; c => c ; p * id 1\n", RSIG)
    rng = random.Random(9)
    for _ in range(10):
        G = _host(rng)
        assert_same_run(G, RULES)
        normal_forms(G, RULES, max_states=20)
    for G in _circuits(two_point_sig(), rng, 10):
        assert_same_run(G, eval_and_cartesian_rules(two_point_sig()),
                        max_steps=40)
    G = interpret(_chain([Gen("f"), Gen("c"), Tensor(Gen("f"), Gen("p")),
                          Tensor(Gen("c"), Gen("c"))]), RSIG)
    assert_same_run(G, glue + RULES)
    assert len(checked) > 100 and len(frozen) > 200


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
            normalize(G, eval_and_cartesian_rules(csig), max_steps=40)
    names = {r.name for r in RULES}
    assert names <= set(applied) and len(set(applied) - names) >= 10
    assert len(applied) > 500


# the tables of a rewrite._Host beside ``by_label``, whose buckets are
# dicts too
HOST_TABLES = ("targets", "sources", "labels", "left", "right", "conn",
               "inv", "vtlabels", "vslabels", "tgts", "srcs", "edge_seq")


def _counters(H):
    """The next fresh id and edge number of a host, left to come."""
    n, t = next(H.new_ids), next(H.tick)
    H.new_ids, H.tick = itertools.count(n), itertools.count(t)
    return n, t


def host_tables(H):
    """Every table of a host as lists in insertion order, and its
    counters."""
    return ([list(getattr(H, name).items()) for name in HOST_TABLES]
            + [[(lab, list(es)) for lab, es in H.by_label.items()],
               _counters(H)])


def _host_copy(H):
    twin = rewrite._Host.__new__(rewrite._Host)
    for name in HOST_TABLES:
        setattr(twin, name, dict(getattr(H, name)))
    twin.by_label = {lab: dict(es) for lab, es in H.by_label.items()}
    n, t = _counters(H)
    twin.new_ids, twin.tick = itertools.count(n), itertools.count(t)
    return twin


def test_compiled_steps_agree_with_the_plan_interpreted(monkeypatch):
    """Every step of the driver's runs on the rewrite hosts, the loop
    hosts (whose matches split host wires), circuits under both lattices
    and the ``glue`` rule is replayed on a copy of its host by
    :func:`rewrite_by_plan`: every table ends the same, in insertion
    order, and so do the next fresh id and edge number."""
    replayed = []
    real = rewrite._Host.rewrite

    def both(self, rule, vmap_t, vmap_s, emap):
        twin = _host_copy(self)
        rewrite_by_plan(twin, rule, vmap_t, vmap_s, emap)
        real(self, rule, vmap_t, vmap_s, emap)
        assert host_tables(self) == host_tables(twin)
        replayed.append(rule.name)

    splits = _counting_expand(monkeypatch)
    monkeypatch.setattr(rewrite._Host, "rewrite", both)
    rng = random.Random(5)
    for _ in range(40):
        normalize(_host(rng), RULES)
    for _ in range(8):
        normalize(_loops(rng, rng.randint(8, 12)), RULES)
    for csig in (two_point_sig(), belnap_sig()):
        for G in _circuits(csig, rng, 20):
            normalize(G, eval_and_cartesian_rules(csig), max_steps=40)
    glue = parse_rules("glue : f ; c => c ; p * id 1\n", RSIG)
    G = interpret(_chain([Gen("f"), Gen("c"), Tensor(Gen("f"), Gen("p")),
                          Tensor(Gen("c"), Gen("c"))]), RSIG)
    normalize(G, glue + RULES)
    names = {r.name for r in RULES}
    assert names | {"glue"} <= set(replayed)
    assert len(set(replayed) - names) >= 10 and len(replayed) > 500
    assert splits


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


def test_normal_forms_finds_each_left_sides_chains_once(monkeypatch):
    """A left side's identity chains are found once per rule, with its
    search pattern (``RewriteRule._search``), not once per state."""
    calls = []
    real = rewrite._identity_chains
    monkeypatch.setattr(rewrite, "_identity_chains",
                        lambda L: calls.append(L) or real(L))
    rules = parse_rules("k-drop : k * id 1 => id 2", RSIG)
    kf = Tensor(Gen("k"), Gen("f"))
    G = interpret(_chain([kf, kf, kf]), RSIG)
    nfs, exhausted = normal_forms(G, rules)
    assert len(nfs) == 1 and not exhausted
    assert len(calls) <= len(rules)


def test_normal_forms_builds_one_host_per_successor(monkeypatch):
    """Each successor is rewritten on one fresh ``_Host``: a match that
    splits host wires, as ``ff`` does on a loop of two f, is rewritten
    on the copy it was completed on, and any other on a copy of the
    state."""
    built, rewritten, splits = [], [], []
    real_init, real_rewrite = rewrite._Host.__init__, rewrite._Host.rewrite
    real_expand = rewrite._Host.expand
    monkeypatch.setattr(rewrite._Host, "__init__",
                        lambda self, G: built.append(G) or real_init(self, G))
    monkeypatch.setattr(rewrite._Host, "rewrite", lambda self, *args:
                        rewritten.append(self) or real_rewrite(self, *args))
    monkeypatch.setattr(rewrite._Host, "expand", lambda self, w:
                        splits.append(w) or real_expand(self, w))
    loop = [Trace(1, _chain([Gen("f")] * n)) for n in (2, 3, 4)]
    for t in loop + [Tensor(loop[0], loop[1])]:
        G = interpret(t, RSIG)
        for seen in (built, rewritten, splits):
            seen.clear()
        nfs, exhausted = normal_forms(G, RULES)
        assert nfs and not exhausted and splits
        assert len(built) == len(rewritten) == len(set(map(id, rewritten)))


def test_find_matchings_lists_what_one_expansion_rewrites(monkeypatch):
    """``find_matchings`` matches up to homeomorphism, as both drivers
    do: it finds the one match of ``k`` through the loop of ``tr 1 (k)``,
    and on loop hosts it lists, in order, the matches that one
    ``normal_forms`` expansion rewrites, one ``_Host.rewrite`` call
    each."""
    rewritten = []
    real = rewrite._Host.rewrite

    def recording(self, rule, vmap_t, vmap_s, emap):
        rewritten.append((rule.name, dict(vmap_t), dict(vmap_s), dict(emap)))
        real(self, rule, vmap_t, vmap_s, emap)

    monkeypatch.setattr(rewrite._Host, "rewrite", recording)
    loop = [Trace(1, _chain([Gen("f")] * n)) for n in (2, 3, 4)]
    hosts = [interpret(t, RSIG) for t in loop + [Tensor(loop[0], loop[1]),
                                                  Trace(1, Gen("k"))]]
    hosts.append(_loops(random.Random(3), 6))
    rules = RULES + parse_rules("kk : k => k", RSIG)
    (m,) = find_matchings(rules[-1].L, hosts[-2])
    assert m.dst is not hosts[-2] and m.is_embedding()
    for G in hosts:
        rewritten.clear()
        nfs, exhausted = normal_forms(G, rules, max_steps=0)
        assert exhausted and rewritten
        listed = [(r.name, m.vmap_t, m.vmap_s, m.emap)
                  for r in rules for m in find_matchings(r.L, G)]
        assert listed == rewritten


@pytest.mark.parametrize("make_sig", [two_point_sig, belnap_sig],
                         ids=["two-point", "belnap"])
def test_lazy_driver_agrees_on_circuits(make_sig):
    csig = make_sig()
    rng = random.Random(11)
    rules = eval_and_cartesian_rules(csig)
    taken = 0
    for H in _circuits(csig, rng, 20):
        taken += len(assert_same_run(H, rules, max_steps=40).steps)
    assert taken > 0


def test_rules_whose_labels_the_host_lacks_are_not_searched(monkeypatch):
    rng = random.Random(7)
    hosts = [_host(rng) for _ in range(10)]
    expected = [normalize_by_enumeration(G, RULES) for G in hosts]
    expected_nfs = []
    for G in hosts:
        nfs, exhausted = normal_forms_by_pushouts(G, RULES, max_states=50)
        expected_nfs.append((list(map(save_graph, nfs)), exhausted))
    searched, seen = [], []
    real = rewrite.embeddings

    def recording(L, G):
        searched.append((L, set(G.labels.values())))
        seen.append(G)
        return real(L, G)

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

    # `normal_forms` skips them too, in every state, and finds what
    # listing every rule's matches finds
    searched.clear()
    seen.clear()
    for G, want in zip(hosts, expected_nfs):
        nfs, exhausted = normal_forms(G, RULES, max_states=50)
        assert (list(map(save_graph, nfs)), exhausted) == want
    for L, present in searched:
        assert set(L.labels.values()) - {IDENTITY_LABEL} <= present
    states = len({id(G) for G in seen})  # seen keeps each one alive
    assert 0 < sum(L is hh for L, _ in searched) < states


# ``idw`` has only an identity edge on its left side, so no labels: every
# host with a wire matches it, after the rules before it; ``unit`` has an
# empty left side and is never tried
EDGE_CASES = parse_rules("unit : id 0 => id 0\n", RSIG) + RULES + parse_rules(
    "idw : id 1 => id 1\n", RSIG)


def _index_runs():
    """Hosts and rule sets for the label index: the driver's hosts and
    loops under its rules (with and without ``unit`` and ``idw``), and
    random two-point and Belnap circuits under the evaluator's and the
    Cartesian rules."""
    rng = random.Random(13)
    for i in range(30):
        G = _host(rng) if i % 3 else _loops(rng, rng.randint(2, 6))
        yield G, RULES, 200
        yield G, EDGE_CASES, 30
    for csig in (two_point_sig(), belnap_sig()):
        for G in _circuits(csig, rng, 25):
            yield G, eval_and_cartesian_rules(csig), 60


def test_the_label_index_picks_what_the_scan_picks():
    """Each step draws only the rules the rule set's index gives for the
    host's labels, and takes what testing every rule's labels in order
    takes: the same steps, the same graph (saved bytes and every table
    in stored order) and the same ``exhausted`` flag; ``normal_forms``
    finds the same normal forms, in order, and flag.  A plain list and
    its rule set give the same runs, and each rule set keeps one entry
    of its index per set of host labels."""
    runs, outcomes, cut_short = 0, set(), set()
    for G, rules, max_steps in _index_runs():
        want = normalize_by_scan(G, rules, max_steps)
        for given in (rules, RuleSet(rules)):
            got = normalize(G, given, max_steps)
            assert got.steps == want.steps
            assert got.exhausted == want.exhausted
            assert _numbered(got.graph) == _numbered(want.graph)
            assert save_graph(got.graph) == save_graph(want.graph)
        nfs, exhausted = normal_forms(G, rules, max_steps, max_states=10)
        want_nfs, want_exhausted = normal_forms_by_scan(G, rules, max_steps,
                                                        max_states=10)
        assert exhausted == want_exhausted
        assert list(map(save_graph, nfs)) == list(map(save_graph, want_nfs))
        runs += 1
        outcomes.add((bool(want.steps), want.exhausted))
        cut_short.add(exhausted)
    # runs with no step, to a normal form, and out of budget
    assert runs == 110 and outcomes == {(False, False), (True, False),
                                        (True, True)}
    assert cut_short == {False, True}
    assert "idw" in {s.rule for s in normalize(_host(random.Random(1)),
                                               EDGE_CASES, 30).steps}
    rules = eval_and_cartesian_rules(belnap_sig())
    for G in _circuits(belnap_sig(), random.Random(2), 10):
        normalize(G, rules, 60)
    assert len(rules._by_labels) > 1
    for key, chosen in rules._by_labels.items():
        assert list(chosen) == [r for r in rules if r.labels <= key
                                and (r.L.targets or r.L.edges)]


def test_graphs_and_rule_sets_are_freed_without_the_collector():
    """A graph ``freeze`` makes and a rule set with its filled index hold
    no cycle: once dropped, with the cyclic collector off, they go."""
    gc.disable()
    try:
        rules = RuleSet(parse_rules(RULE_TEXT, RSIG))
        res = normalize(interpret(_chain([Gen("f")] * 4), RSIG), rules)
        assert [s.rule for s in res.steps] == ["ff"] * 3
        assert "tgts" in vars(res.graph) and rules._by_labels
        graph, rule = weakref.ref(res.graph), weakref.ref(rules[1])
        del res, rules
        assert graph() is None and rule() is None
    finally:
        gc.enable()
