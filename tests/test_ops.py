import random

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (IDENTITY_LABEL, Gen, TypeMismatch, compose,
                    find_isomorphism, generator, identity, interpret,
                    isomorphic, smooth, swap, tensor, trace, validate)
from linhyp.graphs import LinearHypergraph
from linhyp.laws import law_signature
from oracles import random_graph, swap_recursive, trace_mono

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
