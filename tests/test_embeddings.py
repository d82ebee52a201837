"""The embedding search against ``embeddings_from_first_edge``, the
oracle that pins each component of the pattern at its first stored edge
and tries every host edge of that label: the same maps in the same
order, read from a graph's tables and from a host that ``normalize`` is
rewriting.  And the search's cost per rewriting step, which must not
grow with the host when the pattern's first edge has a common label.
"""
import gc
import io
import itertools
import random
import re
import tokenize
import weakref

from linhyp import (Gen, RewriteRule, Seq, Swap, Tensor, find_matchings,
                    interpret, load_graph, normalize, parse_rules, parse_term,
                    rule_from_terms, save_graph, signature, tensor,
                    tensor_all, trace)
from linhyp import graphs, rewrite
from linhyp.graphs import LinearHypergraph, embeddings
from linhyp.laws import law_signature, random_term
from linhyp.terms import type_of
from oracles import (brute_force_matchings, embeddings_from_first_edge,
                     random_graph)

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


def _with_decoys(rng, P, H):
    """H beside edges with P's labels and one more target each, some of
    them wired into H: a host and a pattern need not agree on a label's
    arity."""
    sig = signature({lab: (len(SIG.dom(lab)), len(SIG.cod(lab)) + 1)
                     for lab in set(P.labels.values())})
    H = tensor(random_graph(rng, sig, 4, 1), H)
    return trace(rng.randint(0, min(len(H.inputs()), len(H.outputs()))), H)


def _starts_elsewhere(P, G):
    """Whether some component of P has an edge whose label is rarer in G
    than its first edge's."""
    def count(e):
        return len(G.by_label.get(P.labels[e], ()))
    return any(count(min(comp, key=count)) < count(comp[0])
               for comp in P.pattern.components)


def _assert_same_maps(P, G):
    assert list(embeddings(P, G)) == list(embeddings_from_first_edge(P, G))


def _component(P, comp):
    """P's component of edges ``comp`` with its boundary wires, as a
    pattern of its own."""
    es = set(comp)
    conn_inv = P.inv
    ts = [t for t in P.targets
          if P.left[t] in es or P.right[P.conn[t]] in es]
    ss = [s for s in P.sources
          if P.right[s] in es or P.left[conn_inv[s]] in es]
    return LinearHypergraph(
        targets=tuple(ts), sources=tuple(ss),
        edges=tuple(e for e in P.edges if e in es),
        left={t: P.left[t] for t in ts}, right={s: P.right[s] for s in ss},
        conn={t: P.conn[t] for t in ts},
        labels={e: P.labels[e] for e in es},
        vtlabels={t: P.vtlabels[t] for t in ts},
        vslabels={s: P.vslabels[s] for s in ss})


def _images_collide(P, G):
    """Whether two components of P that share a label each map onto one
    host edge in some maps of their own, so that the search rejects a
    candidate only because an enclosing loop holds that image."""
    comps = P.pattern.components
    labels = [{P.labels[e] for e in comp} for comp in comps]
    images = [{d for _, _, emap, _ in embeddings_from_first_edge(
        _component(P, comp), G) for d in emap.values()} for comp in comps]
    return any(labels[i] & labels[j] and images[i] & images[j]
               for i, j in itertools.combinations(range(len(comps)), 2))


def test_same_maps_in_the_same_order_as_the_oracle():
    """Each case the compiled search handles in code of its own is met:
    a component searched from a rarer edge, components that share a
    label where only the check against an enclosing loop's images
    rejects, a bare wire beside a component, and maps up to
    homeomorphism that split a host wire.  Host edges whose label has
    another arity there are rejected by their port counts."""
    rng = random.Random(4)
    components, elsewhere, found = set(), 0, 0
    collide = bare = split = 0
    for P in _patterns(rng, 60):
        G = _with_decoys(rng, P, _host(rng, P))
        _assert_same_maps(P, G)
        components.add(len(P.pattern.components))
        elsewhere += _starts_elsewhere(P, G)
        first = next(embeddings(P, G), None)
        found += first is not None
        collide += _images_collide(P, G)
        bare += bool(first and P.pattern.bare_wires and P.pattern.components)
        split += any(s for *_, s in embeddings(P, G))
    assert components == {1, 2, 3}
    assert elsewhere >= 15 and found >= 40
    assert collide >= 6 and bare >= 5 and split >= 10


def test_port_less_edges_of_one_label_take_distinct_host_edges():
    """``tick * tick`` is two components of one port-less label: only the
    check of the second edge's image against the edge bound by the
    enclosing loop keeps both from landing on one host tick.  Each host
    holds its ticks among other edges, and the maps are the brute-force
    oracle's, in its order: 0, 2 and 6 of them."""
    sig = signature({"tick": (0, 0), "f": (1, 1), "g": (1, 2)})
    P = interpret(parse_term("tick * tick", sig), sig)
    hosts = ["f * tick ; g", "tick * f ; g * tick",
             "tick * g ; tick * f * f * tick"]
    for text, count in zip(hosts, (0, 2, 6)):
        G = interpret(parse_term(text, sig), sig)
        assert len(G.by_label["tick"]) == text.count("tick")
        want = [(h.vmap_t, h.vmap_s, h.emap)
                for h in brute_force_matchings(P, G)]
        got = [(t, s, e) for t, s, e, _ in embeddings(P, G)]
        assert got == want and len(got) == count, text


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


# Labels that must never reach a compiled search's source: a quote, a
# backslash, a newline, a brace, non-ASCII text, and the names of the
# search's own locals and bound constants.
ODD = '"k0\\\n'
ODD_SIG = signature({
    'a"b': ((ODD,), ("splits",)),
    "\\": (("splits",), ("G",)),
    "}\n{": (("G",), ("x0", "x0")),
    "ünï€ß": (("x0", "x0"), ("x0",)),
    "x0": (("x0",), ("x0",)),
    "splits": ((ODD,), ("x0",)),
    "G": (("x0",), ("x0",)),
}, objects={ODD, "splits", "G", "x0"})

# the only names a compiled search's source may hold: its keywords and
# builtins, its locals, the host tables it reads and its constants
TABLES = (r"(targets|left|right|conn|inv|labels|vtlabels|vslabels"
          r"|tgts|srcs|by_label|edge_seq)")
SEARCH_NAMES = re.compile(
    r"(def|for|in|if|elif|else|is|not|and|None|continue|return|yield"
    r"|len|get|sort|append|_bind|search|G|x\d+|k\d+|_|tmap|smap|splits"
    rf"|{TABLES}|G_{TABLES})")


def _odd_chain(*labels):
    t = Gen(labels[0])
    for lab in labels[1:]:
        t = Seq(t, Gen(lab))
    return t


def test_compiled_plans_hold_no_label_text(monkeypatch):
    """Pattern and host files whose labels would break generated source
    if pasted into it: the search finds the oracle's maps in its order,
    ``normalize`` takes the steps it took before searches were
    compiled, and each search's source, its boundary code included,
    holds no string and no name but its own, its labels being bound."""
    sources = []
    real = compile

    def keeping(source, *args):
        sources.append(source)
        return real(source, *args)

    monkeypatch.setattr(graphs, "compile", keeping, raising=False)
    side = Tensor(_odd_chain('a"b', "\\", "}\n{", "ünï€ß"),
                  _odd_chain("x0", "x0"))
    # the decoy crosses the wires between "}\n{" and "ünï€ß"
    crossed = Seq(_odd_chain('a"b', "\\", "}\n{"),
                  Seq(Swap(("x0",), ("x0",)), Gen("ünï€ß")))
    host = trace(("x0",), interpret(tensor_all(
        [_odd_chain("x0", "x0", "x0"), side, crossed,
         _odd_chain("x0", "G", "x0"), side]), ODD_SIG))
    files = [save_graph(interpret(side, ODD_SIG)),
             save_graph(interpret(Tensor(Gen("splits"), Gen("G")), ODD_SIG)),
             save_graph(host)]
    assert all('a\\"b' in text for text in files[::2])
    L, R, G = map(load_graph, files)

    found = [(m.vmap_t, m.vmap_s, m.emap) for m in find_matchings(L, G)]
    assert found == [(t, s, e) for t, s, e, _ in
                     embeddings_from_first_edge(L, G)]
    assert len(found) == 10
    _assert_same_maps(L, G)

    rule = RewriteRule("odd", L, R)
    res = normalize(G, [rule])
    assert [str(s) for s in res.steps] == [
        "step 1: rule odd at edges [62, 63, 68, 69, 74, 78]",
        "step 2: rule odd at edges [66, 67, 72, 73, 77, 80]"]

    searches = L.pattern.searches
    assert all(len(key) == len(L.pattern.components) for key in searches)
    assert len(sources) >= len(searches)
    # up to homeomorphism, L's boundary wires are bound in code of their own
    assert any("splits.append" in source for source in sources)
    for source in sources:
        tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
        assert not [t for t in tokens if t.type == tokenize.STRING]
        assert all(SEARCH_NAMES.fullmatch(t.string)
                   for t in tokens if t.type == tokenize.NAME)
        assert source.isascii()
    labels = set(L.labels.values())
    objects = set(L.vtlabels.values()) | set(L.vslabels.values())
    for search in searches.values():
        assert not [c for c in search.__code__.co_consts
                    if isinstance(c, str)]
        bound = {cell.cell_contents for cell in search.__closure__}
        assert bound & labels
        # the boundary code checks the wires' object labels
        assert bound >= objects


def test_plans_compile_once_per_pattern_start_and_flag(monkeypatch):
    """Over ``normalize`` runs, no search is compiled twice for one
    pattern and one choice of start edges."""
    compiled, patterns = [], []
    real = graphs._compile_search

    def counting(L, starts):
        patterns.append(L)  # keeps each id(L) unique
        compiled.append((id(L), starts))
        return real(L, starts)

    monkeypatch.setattr(graphs, "_compile_search", counting)
    rules = parse_rules("""
ff : f ; f => f
gk : g ; k => f
counit : g ; z * id 1 => id 1
hk : h ; k => k
""", SIG)
    rng = random.Random(3)
    for P in _patterns(rng, 6):
        normalize(_host(rng, P), rules, max_steps=6)
        normalize(_host(rng, P), rules, max_steps=6)
    assert compiled
    assert len(set(compiled)) == len(compiled)


def test_a_pattern_with_compiled_plans_is_freed_without_the_collector():
    """The searches a pattern caches hold no reference back to it."""
    rng = random.Random(5)
    P = _patterns(rng, 1)[0]
    G = _host(rng, P)
    gc.disable()
    try:
        list(embeddings(P, G))
        assert P.pattern.searches
        ref = weakref.ref(P)
        del P
        assert ref() is None
    finally:
        gc.enable()
