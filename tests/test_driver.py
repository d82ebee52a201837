"""The lazy rewriting driver against the list-based one.

`normalize` takes each step's match lazily and skips rules whose edge
labels the host lacks; `normalize_by_enumeration` lists every match of
each rule.  Both must take the same steps to the same normal form.
"""
import random

import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace, interpret, normalize,
                    parse_rules, save_graph)
from linhyp import rewrite
from linhyp.circuits import DELAY, FORK, JOIN, STUB, eval_rules
from linhyp.graphs import IDENTITY_LABEL
from linhyp.laws import random_term
from linhyp.terms import signature
from oracles import normalize_by_enumeration
from test_circuits import belnap_sig, two_point_sig

RSIG = signature({"f": (1, 1), "p": (1, 1), "c": (1, 2), "d": (1, 2),
                  "s": (1, 0), "w": (1, 1), "h": (1, 1), "k": (1, 1)})
# `hh` comes first and its label is rare, so most steps skip it; `counit`
# has a bare wire on its right side and `k-drop` on both, so they are
# saturated with identity edges, and `k-drop` matches by expanding a host
# wire beside the k
RULES = parse_rules("""
hh : h ; h => h
ff : f ; f => f
copy-nat : p ; c => c ; p * p
counit : d ; s * id 1 => id 1
k-drop : k * id 1 => id 2
""", RSIG)


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


def assert_same_run(G, rules, max_steps=200):
    lazy = normalize(G, rules, max_steps)
    listed = normalize_by_enumeration(G, rules, max_steps)
    assert ([(s.index, s.rule) for s in lazy.steps]
            == [(s.index, s.rule) for s in listed.steps])
    assert lazy.exhausted == listed.exhausted
    assert save_graph(lazy.graph) == save_graph(listed.graph)
    # step by step from the same graph: the same match and the same file.
    # Fresh ids differ (the list search expands the host for matches it
    # then discards), so expansion edges are compared by position.
    cur = G
    for _ in lazy.steps:
        a = normalize(cur, rules, 1)
        b = normalize_by_enumeration(cur, rules, 1)
        assert a.steps[0].rule == b.steps[0].rule
        assert _positions(cur, a.steps[0]) == _positions(cur, b.steps[0])
        assert save_graph(a.graph) == save_graph(b.graph)
        cur = a.graph
    return lazy


def test_lazy_driver_agrees_on_rewrite_hosts():
    rng = random.Random(5)
    taken = set()
    for _ in range(40):
        res = assert_same_run(_host(rng), RULES)
        taken.update(s.rule for s in res.steps)
    assert taken == {"hh", "ff", "copy-nat", "counit", "k-drop"}


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
