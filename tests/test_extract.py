import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (Gen, Id, Seq, Swap, Tensor, Trace, compose,
                    equal_mod_stmc, expand, extract_term, find_isomorphism,
                    identity, interpret, parse_term, render_term, shuffle,
                    stack, tensor, trace, type_of, untangle, validate)
from linhyp.extract import canonical_edge_order
from linhyp.graphs import _SUPPLY, INTERFACE, LinearHypergraph, fresh_ids
from linhyp.laws import law_signature, random_term
from oracles import check_coherence, random_graph, shuffle_by_insertion


SIG = law_signature()

graphs = st.builds(
    lambda seed: random_graph(random.Random(seed), SIG),
    st.integers(0, 10**9))


def wiring_only(t):
    if isinstance(t, (Id, Swap)):
        return True
    if isinstance(t, Seq):
        return wiring_only(t.left) and wiring_only(t.right)
    if isinstance(t, Tensor):
        return wiring_only(t.top) and wiring_only(t.bottom)
    return False


def permutation_graph(perm, labels=None):
    """Edge-free graph whose i-th target wires to the perm(i)-th source;
    wire i carries the object ``labels[i]``, unlabelled by default."""
    n = len(perm)
    ts, ss = fresh_ids(n), fresh_ids(n)
    return LinearHypergraph(
        targets=tuple(ts), sources=tuple(ss), edges=(),
        left={v: INTERFACE for v in ts},
        right={v: INTERFACE for v in ss},
        conn={ts[i]: ss[perm[i]] for i in range(n)},
        labels={},
        vtlabels=dict(zip(ts, labels)) if labels else {},
        vslabels={ss[perm[i]]: labels[i] for i in range(n)} if labels else {},
    )


def word_length_and_depth(t):
    """Total length of the Id and Swap words of ``t``, and its nesting
    depth (a leaf has depth 1)."""
    words = depth = 0
    todo = [(t, 1)]
    while todo:
        u, d = todo.pop()
        depth = max(depth, d)
        if isinstance(u, Id):
            words += len(u.word)
        elif isinstance(u, Swap):
            words += len(u.upper) + len(u.lower)
        elif isinstance(u, Seq):
            todo += [(u.left, d + 1), (u.right, d + 1)]
        elif isinstance(u, Tensor):
            todo += [(u.top, d + 1), (u.bottom, d + 1)]
        elif isinstance(u, Trace):
            todo.append((u.body, d + 1))
    return words, depth


def test_untangle_sorts_a_tangled_graph():
    H = interpret(parse_term("tr 1 (join * f ; swap 1 1 ; copy * id 1)",
                             _circ_sig()), _circ_sig())
    ord_ = canonical_edge_order(H)
    U = untangle(H, ord_)
    assert validate(U) == []
    assert find_isomorphism(U, H) is not None
    # inputs first, then the target block of each edge in order
    tgts, srcs_of = U.port_tables()
    expect_targets = list(U.inputs())
    for e in ord_:
        expect_targets.extend(tgts[e])
    assert list(U.targets) == expect_targets
    srcs = []
    for e in ord_:
        srcs.extend(srcs_of[e])
    assert list(U.sources) == srcs + list(U.outputs())


def _circ_sig():
    from linhyp import signature
    return signature({"join": (2, 1), "f": (1, 1), "copy": (1, 2)})


def test_untangle_is_idempotent():
    H = random_graph(random.Random(7), SIG)
    ord_ = canonical_edge_order(H)
    U = untangle(H, ord_)
    assert untangle(U, ord_) == U


def test_untangle_rejects_bad_order():
    H = random_graph(random.Random(8), SIG, max_edges=3)
    with pytest.raises(ValueError):
        untangle(H, H.edges + (10**9,))


@given(graphs)
@settings(max_examples=50, deadline=None)
def test_untangle_preserves_iso(H):
    assert find_isomorphism(H, untangle(H, canonical_edge_order(H)))


def test_stack_tensors_labels():
    F = tensor(interpret(Gen("f"), SIG), interpret(Gen("g"), SIG))
    e_f = next(e for e in F.edges if F.labels[e] == "f")
    e_g = next(e for e in F.edges if F.labels[e] == "g")
    assert stack(F, (e_f, e_g)) == Tensor(Gen("f"), Gen("g"))
    assert stack(F, (e_g, e_f)) == Tensor(Gen("g"), Gen("f"))
    # three edges fold to the left; an identity edge stacks as its wire
    H = expand(F, F.inputs()[0])
    e_id = next(e for e in H.edges if H.labels[e] == "@id")
    assert stack(H, (e_g, e_id, e_f)) == Tensor(Tensor(Gen("g"), Id(1)),
                                                Gen("f"))


def test_stack_of_edgeless_graph():
    assert stack(identity(3), ()) == Id(0)


def test_shuffle_identity_permutation():
    t = shuffle(identity(4))
    assert wiring_only(t)
    assert equal_mod_stmc(t, Id(4), SIG)


def _permutations(rng):
    """Seeded permutations of up to 300 wires: uniform ones, and near
    identities with a few long jumps, the shape extracted composites
    give (neighbouring edges' wires cross, a few wires run far)."""
    for n in (0, 1, 2, 3, 5, 8, 9, 16, 17, 40, 64, 129, 300):
        yield rng.sample(range(n), n)
        perm = list(range(n))
        for _ in range(n // 3):
            i = rng.randrange(n - 1)
            perm[i], perm[i + 1] = perm[i + 1], perm[i]
        for _ in range(min(n, 3)):
            perm.insert(rng.randrange(n), perm.pop(rng.randrange(n)))
        yield perm
        yield perm[::-1]


def test_shuffle_realizes_connection_permutation(rng, gsig):
    for perm in _permutations(rng):
        n = len(perm)
        labels = [rng.choice("ABCD") for _ in range(n)]
        H = permutation_graph(perm, labels)
        t, oracle = shuffle(H), shuffle_by_insertion(H)
        assert wiring_only(t)
        assert type_of(t, gsig) == type_of(oracle, gsig) == (H.dom(), H.cod())
        G, O = interpret(t, gsig), interpret(oracle, gsig)
        # both must wire target i to source perm(i), keeping its label
        for i in range(n):
            assert G.conn[G.targets[i]] == G.sources[perm[i]]
            assert O.conn[O.targets[i]] == O.sources[perm[i]]
            assert (G.vtlabels[G.targets[i]] == O.vtlabels[O.targets[i]]
                    == labels[i])


def test_shuffle_of_sixteen_thousand_wires_is_n_log_squared():
    n = 16000
    H = permutation_graph(random.Random(n).sample(range(n), n))
    words, depth = word_length_and_depth(shuffle(H))
    log_n = math.ceil(math.log2(n))
    # about 0.44 n log² n words and depth 39 here; one wire per step
    # would take n²/2 words and depth 2n
    assert words <= n * log_n ** 2
    assert depth <= log_n ** 2


def test_extract_sixteen_thousand_wires_round_trip():
    n = 16000
    H = permutation_graph(random.Random(n + 1).sample(range(n), n))
    assert find_isomorphism(interpret(extract_term(H), SIG), H) is not None


@pytest.mark.parametrize("join, gens", [(Seq, 5000), (Tensor, 10_000)],
                         ids=["chain", "tensor"])
def test_ten_thousand_round_trip_in_bounded_memory(join, gens):
    # a chain of 10^4 nodes and a tensor 10^4 generators wide, through
    # render -> parse -> type -> interpret -> extract -> interpret -> iso
    # as the CLI's interpret, extract and iso commands run them
    t = Gen("f")
    for _ in range(gens - 1):
        t = join(t, Gen("f"))
    tracemalloc.start()
    try:
        parsed = parse_term(render_term(t), SIG)
        assert type_of(parsed, SIG) == type_of(t, SIG)
        H = interpret(parsed, SIG)
        assert find_isomorphism(H, interpret(extract_term(H), SIG))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 200 * 2**20


def test_extract_identity():
    t = extract_term(identity(3))
    assert equal_mod_stmc(t, Id(3), SIG)


def test_extract_worked_example_shape():
    sig = _circ_sig()
    H = interpret(parse_term("tr 1 (join * f ; swap 1 1 ; copy * id 1)", sig),
                  sig)
    t = extract_term(H)
    assert isinstance(t, Trace)
    body = t.body
    assert isinstance(body, Seq) and isinstance(body.left, Seq)
    swap_part = body.left.left
    assert isinstance(swap_part, Swap)
    stack_part = body.right
    assert isinstance(stack_part, Tensor)
    assert find_isomorphism(interpret(t, sig), H) is not None


@given(graphs)
@settings(max_examples=60, deadline=None)
def test_definability_round_trip(H):
    t = extract_term(H)
    assert find_isomorphism(interpret(t, SIG), H) is not None


terms = st.builds(
    lambda seed, m, n: random_term(random.Random(seed), SIG, m, n),
    st.integers(0, 10**9), st.integers(0, 2), st.integers(0, 2))


@given(terms)
@settings(max_examples=50, deadline=None)
def test_inverse_round_trip(t):
    H = interpret(t, SIG)
    back = extract_term(H)
    assert equal_mod_stmc(back, t, SIG)


def test_extract_generalised_example(gsig):
    t = parse_term("f * g ; h", gsig)
    H = interpret(t, gsig)
    back = extract_term(H)
    assert equal_mod_stmc(back, t, gsig)


def test_extract_respects_explicit_order():
    F = tensor(interpret(Gen("f"), SIG), interpret(Gen("f"), SIG))
    orders = list(itertools.permutations(F.edges))
    results = [extract_term(F, o) for o in orders]
    for r in results:
        assert find_isomorphism(interpret(r, SIG), F) is not None


def test_coherence_two_edges():
    H = compose(interpret(Gen("f"), SIG), interpret(Gen("f"), SIG))
    assert check_coherence(H, SIG)


def test_coherence_single_edge():
    assert check_coherence(interpret(Gen("h"), SIG), SIG)


def test_coherence_random_four_edges(rng):
    for _ in range(3):
        H = random_graph(rng, SIG, max_edges=4, max_extra_wires=1)
        assert check_coherence(H, SIG, max_orders=24)


def test_composite_definability(rng):
    for _ in range(8):
        F = random_graph(rng, SIG, max_edges=2, max_extra_wires=2)
        G2 = random_graph(rng, SIG, max_edges=2, max_extra_wires=2)
        n = len(F.cod())
        G2 = tensor(G2, identity(0))
        # force a composable pair by padding G2's inputs
        k = len(G2.dom())
        if k < n:
            G2 = tensor(G2, identity(n - k))
        elif k > n:
            F = tensor(F, identity(k - n))
        seq_graph = compose(F, G2)
        lhs = extract_term(seq_graph)
        rhs = Seq(extract_term(F), extract_term(G2))
        assert equal_mod_stmc(lhs, rhs, SIG)
        ten_graph = tensor(F, G2)
        assert equal_mod_stmc(extract_term(ten_graph),
                              Tensor(extract_term(F), extract_term(G2)), SIG)
    X = random_graph(rng, SIG, max_edges=2, max_extra_wires=2)
    X = tensor(identity(1), X)
    assert equal_mod_stmc(extract_term(trace(1, X)),
                          Trace(1, extract_term(X)), SIG)


def _interpret_counting_ids(t, sig):
    before = _SUPPLY.next
    G = interpret(t, sig)
    return G, _SUPPLY.next - before


def test_extract_wide_identity_needs_no_recursion():
    perm = random.Random(1500).sample(range(1500), 1500)
    for H in (identity(1500), permutation_graph(perm)):
        t = extract_term(H)
        assert isinstance(t, Trace)
        G, drawn = _interpret_counting_ids(t, SIG)
        assert drawn == 2 * 1500
        assert find_isomorphism(G, H) is not None


@pytest.mark.parametrize("n", [0, 1, 40, 300])
def test_interpreting_extracted_wiring_draws_two_ids_per_wire(n):
    # the whole extracted term is identities and swaps: one permutation
    perm = random.Random(n).sample(range(n), n)
    for H in (identity(n), permutation_graph(perm)):
        assert _interpret_counting_ids(extract_term(H), SIG)[1] == 2 * n


def test_interpreting_extracted_composite_draws_linear_ids():
    # two ids per wire of the permutation in front of the generators and
    # of the output identity behind them, and 2 * ports + 1 per generator
    for seed in range(5):
        H = random_graph(random.Random(seed), SIG, max_edges=300,
                         max_extra_wires=10)
        tgts, srcs = H.port_tables()
        ports = sum(len(tgts[e]) + len(srcs[e]) for e in H.edges)
        expected = (2 * len(H.targets) + 2 * ports + len(H.edges)
                    + 2 * len(H.outputs()))
        assert _interpret_counting_ids(extract_term(H), SIG)[1] == expected


@pytest.mark.parametrize("H", [
    identity(60),
    permutation_graph(random.Random(60).sample(range(60), 60)),
])
def test_extract_sixty_wires_round_trip(H):
    assert find_isomorphism(interpret(extract_term(H), SIG), H) is not None
