import gc
import math
import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (IDENTITY_LABEL, Gen, TypeMismatch, compose,
                    find_isomorphism, generator, identity, interpret,
                    isomorphic, smooth, swap, tensor, trace, validate)
from linhyp.graphs import INTERFACE, GraphView, LinearHypergraph, _Host, expand
from linhyp.laws import law_signature, random_term
from linhyp.serialize import save_graph
from linhyp.terms import Swap, Tensor, signature, tensor_all
from oracles import (compose_by_rewiring, log_log_slope, random_graph,
                     smooth_by_splicing, swap_recursive, tables_in_order,
                     trace_by_single_wires, trace_mono)

SIG = law_signature()

graphs_11 = st.builds(
    lambda seed: random_graph(random.Random(seed), SIG, max_edges=3,
                              max_extra_wires=2),
    st.integers(0, 10**9))


def test_identity_zero_is_empty():
    H = identity(0)
    assert H.targets == () and H.sources == () and H.edges == ()
    assert validate(H) == []


def test_identity_wires_straight_through():
    for n in (1, 2, 5):
        H = identity(n)
        assert validate(H) == []
        assert H.inputs() == H.targets and H.outputs() == H.sources
        for i in range(n):
            assert H.conn[H.targets[i]] == H.sources[i]


def test_generator_square():
    H = generator("h", SIG)  # 2 -> 2
    assert validate(H, SIG) == []
    assert H.arity() == (2, 2)
    assert len(H.edges) == 1
    e = H.edges[0]
    tgts, srcs = H.port_tables()
    assert srcs[e] == H.sources[:2]
    assert tgts[e] == H.targets[2:]


def test_generator_value_and_sink():
    v = generator("u", SIG)  # 0 -> 1
    assert v.arity() == (0, 1)
    v_tgts, v_srcs = v.port_tables()
    assert v_srcs[v.edges[0]] == ()
    assert len(v_tgts[v.edges[0]]) == 1
    s = generator("z", SIG)  # 1 -> 0
    assert s.arity() == (1, 0)
    s_tgts, s_srcs = s.port_tables()
    assert len(s_srcs[s.edges[0]]) == 1
    assert s_tgts[s.edges[0]] == ()
    assert validate(v, SIG) == [] and validate(s, SIG) == []


def test_generator_unknown_name():
    with pytest.raises(TypeMismatch):
        generator("nosuch", SIG)


def test_swap_crossing():
    H = swap(1, 1)
    a, b = H.targets
    c, d = H.sources
    assert H.conn[a] == d and H.conn[b] == c


def test_swap_degenerate_blocks():
    assert isomorphic(swap(0, 3), identity(3))
    assert isomorphic(swap(3, 0), identity(3))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (1, 3), (3, 2), (2, 3)])
def test_swap_recursive_matches_direct(m, n):
    assert isomorphic(swap_recursive(m, n), swap(m, n))


def test_compose_chains_an_edge():
    H = compose(interpret(Gen("f"), SIG), interpret(Gen("g"), SIG))
    assert H.arity() == (1, 2)
    assert len(H.edges) == 2
    assert validate(H, SIG) == []
    # f's target port feeds g's source port
    f_edge = next(e for e in H.edges if H.labels[e] == "f")
    g_edge = next(e for e in H.edges if H.labels[e] == "g")
    (t,) = H.port_tables()[0][f_edge]
    assert H.right[H.conn[t]] == g_edge


def test_compose_identity_is_neutral():
    F = interpret(Gen("g"), SIG)
    assert isomorphic(compose(identity(1), F), F)
    assert isomorphic(compose(F, identity(2)), F)


def test_swap_self_inverse():
    assert isomorphic(compose(swap(1, 1), swap(1, 1)), identity(2))
    assert isomorphic(compose(swap(2, 1), swap(1, 2)), identity(3))


def test_compose_type_error():
    with pytest.raises(TypeMismatch):
        compose(interpret(Gen("g"), SIG), interpret(Gen("g"), SIG))


def test_tensor_types_add():
    H = tensor(interpret(Gen("f"), SIG), interpret(Gen("g"), SIG))
    assert H.arity() == (2, 3)
    assert validate(H, SIG) == []


def test_tensor_empty_is_neutral():
    F = interpret(Gen("h"), SIG)
    assert isomorphic(tensor(F, identity(0)), F)
    assert isomorphic(tensor(identity(0), F), F)


def _adapt_dom(H, m):
    """Pad or feed H so its input arity becomes m (test helper)."""
    k = len(H.dom())
    if k == m:
        return H
    if k < m:
        return tensor(H, identity(m - k))
    sources = interpret(Gen("u"), SIG)
    for _ in range(k - m - 1):
        sources = tensor(sources, interpret(Gen("u"), SIG))
    return compose(tensor(identity(m), sources), H)


def test_bifunctoriality_on_graphs(rng):
    for _ in range(10):
        F = random_graph(rng, SIG, max_edges=2)
        G = random_graph(rng, SIG, max_edges=2)
        H = _adapt_dom(random_graph(rng, SIG, max_edges=2), len(F.cod()))
        K = _adapt_dom(random_graph(rng, SIG, max_edges=2), len(G.cod()))
        lhs = compose(tensor(F, G), tensor(H, K))
        rhs = tensor(compose(F, H), compose(G, K))
        assert find_isomorphism(lhs, rhs) is not None


def test_trace_of_swap_is_wire():
    assert isomorphic(trace(1, swap(1, 1)), identity(1))


def test_trace_zero_is_noop():
    F = interpret(Gen("h"), SIG)
    assert isomorphic(trace(0, F), F)


def test_trace_loops_through_edge():
    H = trace(1, interpret(Gen("h"), SIG))
    assert H.arity() == (1, 1)
    assert validate(H, SIG) == []
    e = H.edges[0]
    # the loop: h's first target wires back into h's first source
    t0 = H.port_tables()[0][e][0]
    assert H.right[H.conn[t0]] == e


def _bulk_splice_trace(x: int, F: LinearHypergraph) -> LinearHypergraph:
    """Oracle: delete all x loop vertices at once and compose the
    wiring permutations directly."""
    ins, outs = F.inputs(), F.outputs()
    loop_in, loop_out = ins[:x], outs[:x]
    conn = {}
    for t in F.targets:
        if t in loop_in:
            continue
        s = F.conn[t]
        while s in loop_out:
            s = F.conn[loop_in[loop_out.index(s)]]
        conn[t] = s
    keep_t = tuple(v for v in F.targets if v not in loop_in)
    keep_s = tuple(v for v in F.sources if v not in loop_out)
    return LinearHypergraph(
        targets=keep_t, sources=keep_s, edges=F.edges,
        left={v: F.left[v] for v in keep_t},
        right={v: F.right[v] for v in keep_s},
        conn=conn, labels=dict(F.labels),
        vtlabels={v: F.vtlabels[v] for v in keep_t},
        vslabels={v: F.vslabels[v] for v in keep_s},
    )


def test_trace_matches_bulk_splice_oracle(rng):
    for _ in range(40):
        F = random_graph(rng, SIG, max_edges=3, max_extra_wires=3)
        m, n = F.arity()
        x = rng.randint(0, min(m, n))
        got = trace(x, F)
        want = _bulk_splice_trace(x, F)
        assert validate(got) == []
        assert find_isomorphism(got, want) is not None


def test_trace_type_error():
    with pytest.raises(TypeMismatch):
        trace(1, interpret(Gen("u"), SIG))


def test_trace_mono_zero_is_identity_embedding():
    F = interpret(Gen("h"), SIG)
    H, emb = trace_mono(0, F)
    assert emb.is_isomorphism()
    assert isomorphic(H, F)


def test_trace_mono_keeps_loop_vertices():
    F = interpret(Gen("h"), SIG)
    H, emb = trace_mono(1, F)
    assert emb.is_embedding()
    real = [e for e in H.edges if H.labels[e] != IDENTITY_LABEL]
    assert len(real) == 1 and len(H.edges) == 2
    assert isomorphic(smooth(H), trace(1, F))


def test_trace_mono_multiwire():
    F = interpret(Gen("h"), SIG)
    H, emb = trace_mono(2, F)
    assert emb.is_embedding()
    assert isomorphic(smooth(H), trace(2, F))


@given(graphs_11)
@settings(max_examples=40, deadline=None)
def test_constructor_outputs_validate(H):
    m, n = H.arity()
    assert validate(tensor(H, H), SIG) == []
    assert validate(compose(H, identity(n)), SIG) == []
    assert validate(trace(1, tensor(identity(1), H))) == []


LSIG = signature({"p": (("A",), ("A", "B")), "q": (("B", "A"), ("A",)),
                  "r": ((), ("B",))})


def _tables(H: LinearHypergraph) -> tuple:
    """Every table of ``H`` as a list, in stored order, with its ids."""
    return (H.targets, H.sources, H.edges,
            *(list(t.items()) for t in (H.left, H.right, H.conn, H.labels,
                                        H.vtlabels, H.vslabels)))


def test_identity_and_swap_are_pinned_table_for_table():
    """The wiring leaves, labelled, against tables written out by hand:
    ids from 0, inputs then outputs, ``conn`` in target order."""
    assert _tables(identity(("A", "B"))) == (
        (0, 1), (2, 3), (), [(0, None), (1, None)], [(2, None), (3, None)],
        [(0, 2), (1, 3)], [], [(0, "A"), (1, "B")], [(2, "A"), (3, "B")])
    assert _tables(swap(("A",), ("B", "C"))) == (
        (0, 1, 2), (3, 4, 5), (), [(0, None), (1, None), (2, None)],
        [(3, None), (4, None), (5, None)], [(0, 5), (1, 3), (2, 4)], [],
        [(0, "A"), (1, "B"), (2, "C")], [(3, "B"), (4, "C"), (5, "A")])


@pytest.mark.parametrize("name,tables,ports", [
    ("h", ((0, 1, 2, 3), (4, 5, 6, 7), (8,),
           [(0, None), (1, None), (2, 8), (3, 8)],
           [(4, 8), (5, 8), (6, None), (7, None)],
           [(0, 4), (1, 5), (2, 6), (3, 7)], [(8, "h")],
           [(v, "_") for v in range(4)], [(s, "_") for s in range(4, 8)]),
     ({8: (2, 3)}, {8: (4, 5)})),
    ("u", ((0,), (1,), (2,), [(0, 2)], [(1, None)], [(0, 1)], [(2, "u")],
           [(0, "_")], [(1, "_")]), ({2: (0,)}, {2: ()})),
    ("z", ((0,), (1,), (2,), [(0, None)], [(1, 2)], [(0, 1)], [(2, "z")],
           [(0, "_")], [(1, "_")]), ({2: ()}, {2: (1,)})),
], ids=["2-2", "0-1", "1-0"])
def test_generator_is_pinned_table_for_table(name, tables, ports):
    """A generator's graph: its inputs and the edge's targets, then the
    edge's sources and the outputs, then the edge."""
    H = generator(name, SIG)
    assert _tables(H) == tables
    assert (H.view.tgts, H.view.srcs) == ports == H.port_tables()


def test_interpret_lists_conn_in_target_order(rng):
    """Every graph ``interpret`` builds lists ``conn`` in its stored
    target order, on random terms with swaps, alone and composed."""
    for _ in range(300):
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        t = random_term(rng, SIG, m, n, depth=rng.randint(1, 4))
        H = interpret(Tensor(Swap(rng.randint(0, 2), rng.randint(1, 2)), t),
                      SIG)
        assert list(H.conn) == list(H.targets)


def _outcome(fn, *args) -> tuple:
    try:
        return _tables(fn(*args))
    except TypeMismatch as exc:
        return type(exc), str(exc)


def _labelled_graph(rng: random.Random) -> LinearHypergraph:
    """A tensor of labelled generators, identities and swaps, traced
    where its first input and output agree."""
    parts = [rng.choice([lambda: generator(rng.choice("pqr"), LSIG),
                         lambda: identity(rng.choice([("A",), ("B", "A")])),
                         lambda: swap(("A",), ("B",))])()
             for _ in range(rng.randint(1, 4))]
    H = parts[0]
    for P in parts[1:]:
        H = tensor(H, P)
    if H.dom()[:1] and H.dom()[:1] == H.cod()[:1] and rng.random() < 0.5:
        H = trace(H.dom()[:1], H)
    return H


def _expanded(rng: random.Random, H: LinearHypergraph) -> LinearHypergraph:
    """``H`` with chains of identity edges on random wires, and loops of
    identity edges where a traced wire is kept (``trace_mono``)."""
    dom, cod = H.dom(), H.cod()
    k = next((i for i, (a, b) in enumerate(zip(dom, cod)) if a != b),
             min(len(dom), len(cod)))
    if k and rng.random() < 0.5:
        H, _ = trace_mono(dom[:rng.randint(1, k)], H)
    for _ in range(rng.randint(0, 4)):
        if H.targets:
            H = expand(H, rng.choice(H.targets))
    return H


def _draw(rng: random.Random) -> LinearHypergraph:
    kind = rng.randrange(4)
    if kind == 0:
        m, n = rng.randint(0, 3), rng.randint(0, 3)
        return interpret(random_term(rng, SIG, m, n, depth=rng.randint(1, 3)),
                         SIG)
    if kind == 1:
        return random_graph(rng, SIG, max_edges=4, max_extra_wires=3)
    if kind == 2:
        return _labelled_graph(rng)
    return _expanded(rng, rng.choice([random_graph(rng, SIG),
                                      identity(rng.randint(1, 3)),
                                      _labelled_graph(rng)]))


def test_one_splice_gives_the_parents_compose_trace_and_smooth(rng):
    """``compose``, ``trace`` and ``smooth`` share one in-place splice
    (``graphs._Host.plug``); on random terms, random graphs, labelled graphs
    and graphs with chains and loops of identity edges they give the
    tables, stored order, dict order and ids of the three splices each
    written out on its own, and the same error on a mistyped call."""
    calls = errors = 0
    for _ in range(150):
        F = _draw(rng)
        dom, cod = F.dom(), F.cod()
        for x in range(min(len(dom), len(cod)) + 2):
            for w in dict.fromkeys([x, dom[:x], cod[:x]]):
                assert (_outcome(trace, w, F)
                        == _outcome(trace_by_single_wires, w, F))
                calls += 1
        G = _draw(rng)
        for A, B in ((F, G), (G, F), (F, F), (F, identity(cod)),
                     (identity(dom), F)):
            got = _outcome(compose, A, B)
            assert got == _outcome(compose_by_rewiring, A, B)
            errors += got[0] is TypeMismatch
            calls += 1
        for H in (F, _expanded(rng, F)):
            assert _tables(smooth(H)) == _tables(smooth_by_splicing(H))
            calls += 1
    assert calls >= 1000 and errors >= 100


def test_a_cut_host_freezes_to_the_port_tables_of_its_graph(rng):
    """``_Host.cut``, the one split, on random graphs, some cuts on wires
    already cut: each adds one output and one edge with a target port
    and no source port, and the frozen graph is well formed, its view
    holding the port tables ``GraphView`` derives, entry for entry and
    in insertion order, and its ``conn`` inverse."""
    cuts = 0
    for _ in range(200):
        F = _draw(rng)
        h = _Host(F)
        made = []
        for _ in range(rng.randint(1, 4) if F.targets else 0):
            w = rng.choice(list(h.targets))
            made.append(h.cut(w, "v" + h.vtlabels[w]))
        H = h.freeze()
        assert validate(H) == []
        assert H.arity() == (len(F.inputs()), len(F.outputs()) + len(made))
        for s, e in made:
            assert H.right[s] is INTERFACE
            assert H.view.srcs[e] == () and len(H.view.tgts[e]) == 1
        fresh = GraphView(H)
        assert tables_in_order(H.view)[:2] == tables_in_order(fresh)[:2]
        assert H.view.conn_inv == fresh.conn_inv
        cuts += len(made)
    assert cuts > 300


def test_tracing_half_the_wires_of_a_wide_tensor_is_linear():
    """``trace(n // 2, f^{⊗n})`` for n = 2000 to 16000: tracing one wire
    at a time copied the graph once per wire, a log-log slope near 2
    (16 s for n = 8000); one splice keeps it at most 1.2.  Each rung is
    the best of five runs without the cyclic collector."""
    points = []
    for n in (2000, 4000, 8000, 16000):
        F = interpret(tensor_all([Gen("f")] * n), SIG)
        best = math.inf
        gc.disable()
        try:
            for _ in range(5):
                start = time.perf_counter()
                H = trace(n // 2, F)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        assert H.arity() == (n - n // 2, n - n // 2) and len(H.edges) == n
        points.append((n, best))
    assert log_log_slope(points) <= 1.2, points


def _best_of_five_ladder(build, op) -> list[tuple[int, float]]:
    """``op(build(n))`` for n = 2000 to 16000, each rung the best of
    five runs without the cyclic collector."""
    points = []
    for n in (2000, 4000, 8000, 16000):
        G = build(n)
        best = math.inf
        gc.disable()
        try:
            for _ in range(5):
                start = time.perf_counter()
                op(G)
                best = min(best, time.perf_counter() - start)
        finally:
            gc.enable()
        points.append((n, best))
    return points


def _wide_tensor(n: int) -> LinearHypergraph:
    return interpret(tensor_all([Gen("f")] * n), SIG)


def test_composing_a_wide_tensor_with_itself_is_linear():
    """``compose(F, F)`` for F = f^{⊗n}: one splice of all n wires in
    their tensor keeps the log-log slope at most 1.2."""
    H = compose(_wide_tensor(4), _wide_tensor(4))
    assert H.arity() == (4, 4) and len(H.edges) == 8
    points = _best_of_five_ladder(_wide_tensor, lambda F: compose(F, F))
    assert log_log_slope(points) <= 1.2, points


def _every_wire_split(n: int) -> LinearHypergraph:
    """f^{⊗n} with an identity edge on each of its 2n wires."""
    F = _wide_tensor(n)
    h = _Host(F)
    for t in F.targets:
        h.expand(t)
    return h.freeze()


def test_smoothing_every_wire_of_a_wide_tensor_is_linear():
    """``smooth`` of f^{⊗n} with an identity edge on every wire: 2n
    plugs in place keep the log-log slope at most 1.2."""
    H = smooth(_every_wire_split(4))
    assert save_graph(H) == save_graph(_wide_tensor(4))
    points = _best_of_five_ladder(_every_wire_split, smooth)
    assert log_log_slope(points) <= 1.2, points
