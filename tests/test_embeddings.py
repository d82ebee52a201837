"""The embedding search against ``embeddings_from_first_edge``, the
oracle that pins each component of the pattern at its first stored edge
and tries every host edge of that label: the same maps in the same
order, read from a graph's view and from a host that ``normalize`` is
rewriting.  And the search's cost per rewriting step, which must not
grow with the host when the pattern's first edge has a common label.
"""
import random

from linhyp import (Gen, Seq, interpret, normalize, parse_rules,
                    rule_from_terms, signature, tensor, trace)
from linhyp import rewrite
from linhyp.graphs import embeddings
from linhyp.laws import law_signature, random_term
from linhyp.terms import type_of
from oracles import embeddings_from_first_edge, random_graph

# f : 1 -> 1, g : 1 -> 2, h : 2 -> 2, k : 2 -> 1, u : 0 -> 1, z : 1 -> 0
SIG = law_signature()


def _rule_sides(rng):
    """What the search matches for both sides of a rule made from random
    loop-free terms: sides with a straight wire are saturated with
    identity edges, which the search pattern smooths into bare wires."""
    lhs = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2),
                      depth=2, traces=False)
    dom, cod = type_of(lhs, SIG)
    rhs = random_term(rng, SIG, len(dom), len(cod), depth=2, traces=False)
    rule = rule_from_terms(lhs, rhs, SIG)
    return [rewrite._pattern(rule.L)[0], rewrite._pattern(rule.R)[0]]


def _patterns(rng, count):
    """Patterns of one to three components: random wirings of up to
    three edges, which give loops and bare wires, and rule sides."""
    out = []
    while len(out) < count:
        for P in [random_graph(rng, SIG, 3, 2), *_rule_sides(rng)]:
            if 1 <= len(P.pattern.components) <= 3:
                out.append(P)
    return out


def _host(rng, P):
    """One or two copies of P among random edges, most of which carry
    the label of one of P's components' first edges, so that the search
    for that component starts elsewhere; some outputs are then traced
    back to inputs."""
    common = P.labels[rng.choice(P.pattern.components)[0]]
    one_label = signature({common: (len(SIG.dom(common)),
                                    len(SIG.cod(common)))})
    common_edges = random_graph(rng, one_label, 8, 1)
    while len(common_edges.edges) < 4:
        common_edges = random_graph(rng, one_label, 8, 1)
    parts = [P] * rng.randint(1, 2) + [random_graph(rng, SIG, 4, 2),
                                       common_edges]
    rng.shuffle(parts)
    H = parts[0]
    for X in parts[1:]:
        H = tensor(H, X)
    return trace(rng.randint(0, min(len(H.inputs()), len(H.outputs()))), H)


def _starts_elsewhere(P, G):
    """Whether some component of P has an edge whose label is rarer in G
    than its first edge's."""
    def count(e):
        return len(G.by_label.get(P.labels[e], ()))
    return any(count(min(comp, key=count)) < count(comp[0])
               for comp in P.pattern.components)


def _assert_same_maps(P, G):
    for homeo in (False, True):
        assert (list(embeddings(P, G, homeo))
                == list(embeddings_from_first_edge(P, G, homeo)))


def test_same_maps_in_the_same_order_as_the_oracle():
    rng = random.Random(4)
    components, elsewhere, found = set(), 0, 0
    for P in _patterns(rng, 60):
        G = _host(rng, P).view
        _assert_same_maps(P, G)
        components.add(len(P.pattern.components))
        elsewhere += _starts_elsewhere(P, G)
        found += next(embeddings(P, G), None) is not None
    assert components == {1, 2, 3}
    assert elsewhere >= 15 and found >= 40


RULES = parse_rules("""
ff : f ; f => f
gk : g ; k => f
counit : g ; z * id 1 => id 1
hk : h ; k => k
uf : u ; f => u
""", SIG)


def test_same_maps_on_a_host_being_rewritten(monkeypatch):
    """After each in-place step, the host's edges by label and their
    stored positions (``edge_seq``) list the edges that earlier steps
    made as well."""
    rng = random.Random(8)
    patterns = _patterns(rng, 12) + [r._search[0] for r in RULES]
    checked, elsewhere = [], 0
    real = rewrite._Host.rewrite

    def checking(self, *args):
        nonlocal elsewhere
        real(self, *args)
        for P in rng.sample(patterns, 3):
            _assert_same_maps(P, self)
            elsewhere += _starts_elsewhere(P, self)
        checked.append(self)

    monkeypatch.setattr(rewrite._Host, "rewrite", checking)
    for P in _patterns(rng, 60):
        normalize(_host(rng, P), RULES, max_steps=6)
    assert len(checked) >= 30 and elsewhere >= 15


class _CountingIndex(dict):
    """A host's edges by label that counts the edges a search draws."""

    drawn = 0

    def get(self, label, default=None):
        edges = dict.get(self, label, default)
        index = self

        class Drawn:
            def __len__(self):
                return len(edges)

            def __iter__(self):
                for e in edges:
                    index.drawn += 1
                    yield e

        return Drawn()


def test_search_cost_per_step_does_not_grow_with_the_host(monkeypatch):
    """``copy-nat`` moves the c of ``p^n ; c`` left past one p per step.
    Its left side's first edge is a p, and each step's match is the p
    beside the c, so trying every p in stored order would draw O(n)
    edges per step; starting at the c draws a fixed number."""
    sig = signature({"p": (1, 1), "c": (1, 2)})
    rules = parse_rules("copy-nat : p ; c => c ; p * p\n", sig)
    indexes = []
    real_init = rewrite._Host.__init__

    def init(self, G):
        real_init(self, G)
        self.by_label = _CountingIndex(self.by_label)
        indexes.append(self.by_label)

    monkeypatch.setattr(rewrite._Host, "__init__", init)
    per_step = []
    for n in (40, 160):
        chain = Gen("p")
        for _ in range(n - 1):
            chain = Seq(chain, Gen("p"))
        res = normalize(interpret(Seq(chain, Gen("c")), sig), rules)
        assert len(res.steps) == n and not res.exhausted
        per_step.append(indexes[-1].drawn / n)
    assert per_step[1] <= per_step[0] <= 2
