import hashlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (Gen, Homomorphism, Seq, Tensor, Trace, canonical, compose,
                    equal_mod_stmc, expand, find_isomorphism, freshen,
                    identity, interpret, is_homomorphism, isomorphic,
                    parse_term, rename, signature, smooth, validate)
from linhyp.graphs import (IDENTITY_LABEL, INTERFACE, LinearHypergraph,
                           canonical_labelling, fresh_ids)
from linhyp.laws import law_signature
from linhyp.serialize import save_graph
from oracles import (brute_force_isomorphism,
                     canonical_labelling_by_port_search, random_graph,
                     tables_from_scratch, to_simple, view_tables)

SIG = law_signature()

graphs = st.builds(
    lambda seed: random_graph(random.Random(seed), SIG),
    st.integers(0, 10**9))


def fork_join_example():
    """The running two-edge example: fork and join wired through a crossing."""
    v = fresh_ids(10)
    e0, e1 = fresh_ids(2)
    return LinearHypergraph(
        targets=(v[0], v[1], v[2], v[3], v[4]),
        sources=(v[5], v[6], v[7], v[8], v[9]),
        edges=(e0, e1),
        left={v[0]: INTERFACE, v[1]: INTERFACE, v[2]: e0, v[3]: e0, v[4]: e1},
        right={v[5]: e0, v[6]: e1, v[7]: e1, v[8]: INTERFACE, v[9]: INTERFACE},
        conn={v[0]: v[7], v[1]: v[5], v[2]: v[8], v[3]: v[6], v[4]: v[9]},
        labels={e0: "fork", e1: "join"},
    )


FJ_SIG = signature({"fork": (1, 2), "join": (2, 1)})


def test_example_graph_is_valid():
    assert validate(fork_join_example(), FJ_SIG) == []


def test_empty_graph_is_valid():
    assert validate(identity(0)) == []


def test_validate_names_missing_source():
    H = fork_join_example()
    broken_conn = dict(H.conn)
    missed = broken_conn[H.targets[4]]
    broken_conn[H.targets[4]] = broken_conn[H.targets[0]]
    broken = LinearHypergraph(H.targets, H.sources, H.edges, H.left, H.right,
                              broken_conn, H.labels, H.vtlabels, H.vslabels)
    report = validate(broken)
    assert any(str(missed) in line and "surjective" in line for line in report)
    assert any("injective" in line for line in report)


def test_validate_arity_disagreement():
    H = fork_join_example()
    bad_labels = dict(H.labels)
    bad_labels[H.edges[1]] = "fork"  # join edge claims to be a fork
    broken = LinearHypergraph(H.targets, H.sources, H.edges, H.left, H.right,
                              H.conn, bad_labels, H.vtlabels, H.vslabels)
    assert any("disagree" in line for line in validate(broken))
    assert any("declared" in line for line in validate(broken, FJ_SIG))


def test_rename_identity_is_noop():
    H = fork_join_example()
    assert rename(H, {}) == H


def test_rename_swap_two_targets_is_isomorphic():
    H = fork_join_example()
    a, b = H.targets[2], H.targets[3]
    renamed = rename(H, {a: b, b: a})
    assert validate(renamed) == []
    assert find_isomorphism(H, renamed) is not None


def test_rename_inverse_round_trip():
    H = fork_join_example()
    fresh = {old: new for old, new in
             zip(H.targets + H.sources + H.edges, range(1000, 1012))}
    inverse = {v: k for k, v in fresh.items()}
    assert rename(rename(H, fresh), inverse) == H


def test_wire_label_mismatch_reported(gsig):
    H = interpret(parse_term("f * g ; h", gsig), gsig)
    bad = dict(H.vslabels)
    first_out = H.outputs()[0]
    bad[first_out] = "A"  # the wire into it carries a C
    broken = LinearHypergraph(H.targets, H.sources, H.edges, H.left, H.right,
                              H.conn, H.labels, H.vtlabels, bad)
    assert any("changes object label" in line for line in validate(broken))


def test_rename_rejects_collisions():
    H = fork_join_example()
    a, b = H.targets[0], H.targets[1]
    with pytest.raises(ValueError):
        rename(H, {a: b})


def test_freshen_supports_self_composition():
    H = interpret(Gen("f"), SIG)
    square = compose(H, H)
    assert validate(square) == []
    assert isomorphic(freshen(H), H)
    assert freshen(identity(0)) == identity(0)
    F = fork_join_example()
    assert isomorphic(freshen(freshen(F)), F)


def test_homomorphism_identity_maps(sig):
    H = fork_join_example()
    h = Homomorphism(H, H, {v: v for v in H.targets},
                     {v: v for v in H.sources}, {e: e for e in H.edges})
    assert is_homomorphism(h)
    assert h.is_isomorphism()


def test_left_identity_equivalence_maps():
    """The explicit witness between id;F and F, built positionally: the
    fresh input wires map onto F's inputs, everything else is fixed."""
    F = interpret(Seq(Gen("f"), Gen("g")), SIG)
    m = len(F.dom())
    A = compose(identity(m), F)
    vmap_t = {}
    f_inputs = F.inputs()
    non_inputs = [v for v in F.targets if v not in f_inputs]
    for i in range(m):
        vmap_t[A.targets[i]] = f_inputs[i]
    for pos, v in enumerate(non_inputs):
        vmap_t[A.targets[m + pos]] = v
    vmap_s = dict(zip(A.sources, F.sources))
    emap = dict(zip(A.edges, F.edges))
    h = Homomorphism(A, F, vmap_t, vmap_s, emap)
    assert is_homomorphism(h)
    assert h.is_isomorphism()


def test_broken_conn_map_is_not_homomorphism():
    F = fork_join_example()
    G = freshen(F)
    h = find_isomorphism(F, G)
    assert h is not None
    bad_s = dict(h.vmap_s)
    a, b = F.sources[0], F.sources[1]
    bad_s[a], bad_s[b] = bad_s[b], bad_s[a]
    assert not is_homomorphism(Homomorphism(F, G, h.vmap_t, bad_s, h.emap))


def test_iso_detects_freshened_copy():
    H = fork_join_example()
    w = find_isomorphism(H, freshen(H))
    assert w is not None and w.is_isomorphism()


def test_iso_distinguishes_labels():
    a = interpret(Gen("f"), SIG)
    b = interpret(Gen("z"), SIG)
    c = interpret(Seq(Gen("f"), Gen("f")), SIG)
    one_f = interpret(Gen("f"), SIG)
    assert find_isomorphism(a, b) is None
    assert find_isomorphism(a, c) is None
    assert find_isomorphism(a, one_f) is not None


def test_iso_respects_interface_order():
    f_then_g = interpret(Tensor(Gen("f"), Gen("g")), SIG)
    g_then_f = interpret(Tensor(Gen("g"), Gen("f")), SIG)
    assert find_isomorphism(f_then_g, g_then_f) is None


@given(graphs)
@settings(max_examples=50, deadline=None)
def test_iso_reflexive_symmetric(H):
    w = find_isomorphism(H, H)
    assert w is not None
    G = freshen(H)
    fw = find_isomorphism(H, G)
    assert fw is not None
    back = find_isomorphism(G, H)
    assert back is not None


@given(graphs, st.integers(0, 10**9))
@settings(max_examples=30, deadline=None)
def test_iso_transitive_via_witness_composition(H, seed):
    G1 = freshen(H)
    G2 = freshen(G1)
    h1 = find_isomorphism(H, G1)
    h2 = find_isomorphism(G1, G2)
    composed = h1.then(h2)
    assert is_homomorphism(composed)
    assert composed.is_isomorphism()


@given(graphs, graphs)
@settings(max_examples=40, deadline=None)
def test_iso_agrees_with_brute_force_on_small(F, G):
    if len(F.targets) > 3 or len(G.targets) > 3:
        return
    fast = find_isomorphism(F, G)
    slow = brute_force_isomorphism(F, G)
    assert (fast is None) == (slow is None)


@given(graphs)
@settings(max_examples=30, deadline=None)
def test_iso_witness_lists_ids_in_stored_order(H):
    w = find_isomorphism(H, freshen(H))
    assert list(w.vmap_t) == list(H.targets)
    assert list(w.vmap_s) == list(H.sources)
    assert list(w.emap) == list(H.edges)


def test_closed_loops_need_edge_backtracking():
    """Two disjoint closed loops, each through one edge: no interface to
    anchor the search."""
    from linhyp import trace
    loop = trace(1, interpret(Gen("f"), SIG))
    two = Tensor(Gen("f"), Gen("f"))
    loops2 = trace(2, interpret(two, SIG))
    assert find_isomorphism(loops2, freshen(loops2)) is not None
    single = trace(1, interpret(Seq(Gen("f"), Gen("f")), SIG))
    assert find_isomorphism(loops2, single) is None
    assert validate(loop) == []


def test_iso_distinguishes_loop_partitions():
    """Two 3-cycles of f against one 6-cycle: all counting invariants
    coincide, only the backtracking over loops can tell them apart."""
    from linhyp import tensor, trace
    f = Gen("f")

    def chain(n):
        t = f
        for _ in range(n - 1):
            t = Seq(t, f)
        return trace(1, interpret(t, SIG))

    two3 = tensor(chain(3), chain(3))
    one6 = chain(6)
    assert len(two3.edges) == len(one6.edges) == 6
    assert find_isomorphism(two3, one6) is None
    assert find_isomorphism(two3, freshen(two3)) is not None


LOOP_SIG = signature({"f": (1, 1), "p": (1, 1)})


def _loop_family(cycles, through=()):
    """Closed loops, one per label cycle, below an optional chain of
    edges from the input to the output."""
    def chain(labels):
        t = Gen(labels[0])
        for lab in labels[1:]:
            t = Seq(t, Gen(lab))
        return t

    parts = ([chain(through)] if through else []) + [
        Trace(1, chain(c)) for c in cycles]
    t = parts[0]
    for part in parts[1:]:
        t = Tensor(t, part)
    return interpret(t, LOOP_SIG)


def _cycle_key(c):
    return min(c[i:] + c[:i] for i in range(len(c)))


def _families(max_edges):
    """Every family of 2-4 labelled loops with at most ``max_edges``
    edges, one cycle order per family."""
    import itertools
    cycles = sorted({_cycle_key(c) for n in range(1, max_edges + 1)
                     for c in itertools.product("fp", repeat=n)})
    out = []
    for k in (2, 3, 4):
        for fam in itertools.combinations_with_replacement(cycles, k):
            if sum(map(len, fam)) <= max_edges:
                out.append(fam)
    return out


def test_iso_on_loop_families_agrees_with_brute_force():
    """Interface-free loop families, isomorphic and not, in other stored
    orders and rotations; and the same families beside a through-wire,
    which the walk from the interfaces numbers before any loop."""
    f, p = ("f",), ("p",)
    fams = _families(3) + [(f, f, f, f), (f, f, f, p)]
    for a in fams:
        F = _loop_family(a)
        for b in fams:
            if sum(map(len, a)) != sum(map(len, b)):
                continue
            # the other family with its loops reversed and rotated by one
            G = _loop_family([c[1:] + c[:1] for c in reversed(b)])
            fast = find_isomorphism(F, G)
            slow = brute_force_isomorphism(F, G)
            assert (fast is None) == (slow is None), (a, b)
            assert (canonical(F) == canonical(G)) == (slow is not None)
            assert (fast is not None) == (sorted(a) == sorted(b)), (a, b)
            if fast is not None:
                assert fast.is_isomorphism()
    for a in _families(2):
        for b in _families(2):
            F = _loop_family(a, through="p")
            G = _loop_family(b[::-1], through="p")
            fast = find_isomorphism(F, G)
            assert (fast is None) == (brute_force_isomorphism(F, G) is None)
            assert (fast is not None) == (a == b), (a, b)
            assert (canonical(F) == canonical(G)) == (a == b), (a, b)


@pytest.mark.parametrize("loops", [8, 64])
def test_iso_on_many_loops(loops):
    """All 2-cycles against a 1-cycle, a 3-cycle and 2-cycles: every
    counting invariant agrees; so do the permuted and rotated copies."""
    f = ("f",)
    pairs = [f * 2] * loops
    mixed = [f, f * 3] + [f * 2] * (loops - 2)
    A, B = _loop_family(pairs), _loop_family(mixed)
    assert len(A.edges) == len(B.edges) == 2 * loops
    assert find_isomorphism(A, B) is None
    assert find_isomorphism(B, A) is None
    assert canonical(A) != canonical(B)
    rotated = _loop_family([c[1:] + c[:1] for c in reversed(mixed)])
    w = find_isomorphism(B, rotated)
    assert w is not None and w.is_isomorphism()
    assert canonical(B) == canonical(rotated)


def _rings():
    """Interface-free rings: of f, of mixed labels, and through the
    two-port edges of the law signature, whose far ports have index 1."""
    rings = [_loop_family([c]) for c in ("f", "ff", "f" * 7, "f" * 40,
                                         "fp" * 10, "ffp" * 5)]
    for text in ("tr 1 (h ; h)", "tr 2 (h ; h)", "tr 1 (h ; swap 1 1 ; h)",
                 "tr 2 (h ; swap 1 1 ; h)", "tr 1 (k ; g)", "tr 2 (k ; g)",
                 "tr 1 (g ; h ; k)"):
        rings.append(interpret(parse_term(text, SIG), SIG))
    return rings


def _fibonacci_word(n):
    """The first n letters of the Fibonacci word over f and p, which is
    aperiodic."""
    a, b = "f", "fp"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def _symmetric_graphs():
    """Rings of f, (f ; p)^k, (f ; f ; p)^k and the Fibonacci word, and
    families of up to 7 loops: components with many anchors per orbit,
    and families of identical components."""
    sizes = (1, 2, 3, 4, 6, 9, 12, 20, 35, 60)
    words = [w for n in sizes for w in (
        "f" * n, "fp" * (n // 2 or 1), "ffp" * (n // 3 or 1),
        _fibonacci_word(n))]
    families = [[c] * k for c in ("f", "fff", "ffp", "fpfp") for k in
                range(2, 8)]
    families += [["fff"] * 5 + ["ff", "f"], ["fp", "pf", "ffp", "pff"],
                 ["fpp", "fp"] * 3 + ["ppf"]]
    return ([_loop_family([w]) for w in words]
            + [_loop_family(fam) for fam in families])


def _shuffled_ids(H, rng):
    """H with its ids permuted at random and its stored order kept."""
    ids = list(H.targets) + list(H.sources) + list(H.edges)
    return rename(H, dict(zip(ids, rng.sample(ids, len(ids)))))


def test_labelling_keeps_the_port_search_codes():
    rng = random.Random(11)
    law = [random_graph(rng, SIG, max_edges=m, max_extra_wires=w)
           for m in (2, 5, 12, 30) for w in (0, 2) for _ in range(15)]
    loops = [_loop_family(fam) for fam in _families(4)]
    symmetric = _symmetric_graphs()
    # the least anchor id among equal codes decides the walk; shuffled
    # ids put it on an anchor that automorphisms settle without a walk
    shuffled = [_shuffled_ids(H, rng) for H in symmetric + loops + _rings()
                for _ in range(3)]
    for H in law + loops + _rings() + symmetric + shuffled:
        want = canonical_labelling_by_port_search(H)
        assert canonical_labelling(H) == tuple(map(tuple, want))


def test_ten_thousand_edge_ring_is_walked_at_most_three_times(monkeypatch):
    """An interface-free ring of 10^4 f: the walk from its first edge
    and the walk from the next anchor give the rotation that puts every
    anchor in one orbit, and at most one more walk starts from the least
    anchor id."""
    from linhyp import graphs
    walks = []
    coded_walk = graphs._coded_walk

    def counted(*args):
        walks.append(args[1])
        return coded_walk(*args)

    monkeypatch.setattr(graphs, "_coded_walk", counted)
    H = _loop_family(["f" * 10_000])
    _, _, edges = canonical_labelling(H)
    assert len(edges) == 10_000
    assert len(walks) <= 3


@pytest.mark.parametrize("word", [
    "f" * 10_000, "fp" * 5000,
    "".join(random.Random(4).choice("fp") for _ in range(10_000))],
    ids=["f", "fp", "random"])
def test_ten_thousand_edge_ring_equals_its_rotation(word):
    def ring(w):
        t = Gen(w[0])
        for lab in w[1:]:
            t = Seq(t, Gen(lab))
        return Trace(1, t)

    turned = word[4321:] + word[:4321]
    assert equal_mod_stmc(ring(word), ring(turned), LOOP_SIG)
    assert (save_graph(interpret(ring(word), LOOP_SIG))
            == save_graph(interpret(ring(turned), LOOP_SIG)))


def test_labelling_is_computed_once_per_graph():
    H = random_graph(random.Random(3), SIG, max_edges=8)
    first = canonical_labelling(H)
    assert canonical_labelling(H) is first
    assert all(type(part) is tuple for part in first)
    # the file written from the cached labelling is the one written
    # from a fresh computation on an equal graph
    assert save_graph(H) == save_graph(freshen(H)) == save_graph(
        LinearHypergraph(**{k: getattr(H, k) for k in (
            "targets", "sources", "edges", "left", "right", "conn",
            "labels", "vtlabels", "vslabels")}))


@pytest.mark.parametrize("text, digest", [
    ("tr 1 (h ; k * u) ; g",
     "861aa22741dc9fe21287c991dff0a09a5880f55485133bad53fe25865a787974"),
    ("tr 1 (h ; swap 1 1) * tr 1 (f ; f) ; g ; z * f",
     "3c02d40cb3d2c04188bc5f1ec161df0e3c9ff0a47d16431a8e2a690e51bfa221"),
])
def test_saved_file_bytes_are_pinned(text, digest):
    # the SHA-256 of each saved file, which changes with any change to
    # the canonical labelling or the file layout
    text = save_graph(interpret(parse_term(text, SIG), SIG))
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def test_fresh_ids_stay_unique_across_threads():
    """Threads drawing fresh ids while others reserve ids above them
    never get the same id twice."""
    import sys
    import threading
    from linhyp.graphs import reserve_ids
    drawn = []

    def draw():
        drawn.append([i for _ in range(2000) for i in fresh_ids(3)])

    def reserve():
        for _ in range(2000):
            reserve_ids([fresh_ids(1)[0] + 5])

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=f) for f in (draw, reserve) * 2]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(w.is_alive() for w in workers)
    ids = [i for block in drawn for i in block]
    assert len(ids) == len(set(ids)) == 2 * 2000 * 3


def test_zero_arity_edges_everywhere():
    """0 -> 0 edges have no ports; matching, isomorphism and extraction
    still see them."""
    from linhyp import extract_term, find_matchings, tensor
    tsig = signature({"tick": (0, 0)})
    tick = interpret(Gen("tick"), tsig)
    two = tensor(tick, interpret(Gen("tick"), tsig))
    assert validate(two, tsig) == []
    assert len(find_matchings(tick, two)) == 2
    assert find_isomorphism(two, freshen(two)) is not None
    assert find_isomorphism(two, tick) is None
    back = extract_term(two)
    assert find_isomorphism(interpret(back, tsig), two) is not None


def test_smooth_identity_edge_wire():
    wire = identity(1)
    grown = expand(wire, wire.targets[0])
    assert len(grown.edges) == 1
    assert smooth(grown) == wire
    assert smooth(wire) == wire


def test_smooth_is_idempotent_and_counts_real_edges():
    H = fork_join_example()
    grown = expand(expand(H, H.targets[0]), H.targets[3])
    assert len(grown.edges) == 4
    assert sum(grown.labels[e] != IDENTITY_LABEL for e in grown.edges) == 2
    assert smooth(grown) == H
    assert smooth(smooth(grown)) == smooth(grown)


def test_expand_then_smooth_round_trip_is_iso():
    H = fork_join_example()
    for w in H.targets:
        assert isomorphic(smooth(expand(H, w)), H)


def test_to_simple_of_example():
    H = fork_join_example()
    S = to_simple(H)
    assert set(S.vertices) == set(H.sources)
    assert sorted(S.labels.values()) == ["fork", "join"]
    fork_edge = next(e for e in S.edges if S.labels[e] == "fork")
    join_edge = next(e for e in S.edges if S.labels[e] == "join")
    v = H.sources
    assert S.src[fork_edge] == (v[0],)
    assert S.tgt[fork_edge] == (v[3], v[1])
    assert S.src[join_edge] == (v[1], v[2])
    assert S.tgt[join_edge] == (v[4],)
    assert S.is_linear_shape()


def test_to_simple_empty_and_identity():
    assert to_simple(identity(0)).vertices == ()
    S = to_simple(identity(2))
    assert len(S.vertices) == 2 and S.edges == ()


def test_canonical_is_renaming_invariant():
    H = fork_join_example()
    assert canonical(H) == canonical(freshen(H))
    assert canonical(H) == canonical(canonical(H))


@given(graphs)
@settings(max_examples=40, deadline=None)
def test_random_graphs_validate(H):
    assert validate(H, SIG) == []


def test_view_tables_equal_a_derivation_from_scratch():
    """Each graph's view holds its port tables, port index and ``conn``
    inverse as an edge-by-edge derivation gives them, on random graphs
    and on graphs of terms, expanded and smoothed."""
    rng = random.Random(12)
    graphs = [random_graph(rng, SIG, max_edges=6, max_extra_wires=3)
              for _ in range(60)]
    graphs += [interpret(parse_term(t, SIG), SIG) for t in (
        "id 0", "id 2", "swap 1 2", "tr 1 (h) ; g", "g ; h ; k ; f * u")]
    graphs += [expand(H, H.targets[0]) for H in graphs if H.targets]
    graphs += [smooth(H) for H in graphs]
    for H in graphs:
        assert view_tables(H) == tables_from_scratch(H)
