import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (Gen, Homomorphism, Seq, Tensor, Trace, canonical, compose,
                    equal_mod_stmc, expand, find_isomorphism, freshen,
                    identity, interpret, is_homomorphism, isomorphic,
                    parse_term, rename, signature, smooth, tensor, validate)
from linhyp.graphs import (IDENTITY_LABEL, INTERFACE, LinearHypergraph,
                           canonical_labelling, next_id)
from linhyp.laws import law_signature
from linhyp.serialize import load_graph, save_graph
from oracles import (brute_force_isomorphism,
                     canonical_labelling_by_port_search, graph_tables,
                     id_source, is_isomorphism_by_embedding, random_graph,
                     tables_from_scratch, to_simple)

SIG = law_signature()

graphs = st.builds(
    lambda seed: random_graph(random.Random(seed), SIG),
    st.integers(0, 10**9))


def fork_join_example():
    """The running two-edge example: fork and join wired through a crossing."""
    take = id_source()
    v = take(10)
    e0, e1 = take(2)
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


def test_validate_names_an_edge_with_no_label():
    H = fork_join_example()
    e0, e1 = H.edges
    assert validate(replace(H, labels={e0: "fork"})) == [
        f"edge {e1} has no label"]


def test_validate_names_an_edge_labelled_outside_the_signature():
    H = fork_join_example()
    only_fork = signature({"fork": (1, 2)})
    assert validate(H) == [] and validate(H, FJ_SIG) == []
    assert validate(H, only_fork) == [
        f"edge {H.edges[1]} labelled with unknown generator 'join'"]


def test_expand_refuses_a_vertex_that_is_not_a_target():
    H = fork_join_example()
    for w in (H.sources[0], H.edges[0], 999):
        with pytest.raises(ValueError) as info:
            expand(H, w)
        assert str(info.value) == f"{w} is not a target vertex"


def _identity_map(H):
    return Homomorphism(H, H, {v: v for v in H.targets},
                        {v: v for v in H.sources}, {e: e for e in H.edges})


def test_homomorphisms_compose_only_where_one_ends_and_the_next_starts():
    H = fork_join_example()
    h = _identity_map(H)
    assert h.then(h) == h
    # an equal graph that is another object composes too
    assert h.then(_identity_map(replace(H))).dst == H
    with pytest.raises(ValueError) as info:
        h.then(_identity_map(identity(1)))
    assert str(info.value) == "homomorphisms do not compose"


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


def _reordered(H, rng):
    """H with its ids renamed at random and its stored orders shuffled,
    its inputs and its outputs each kept in order."""
    H = _shuffled_ids(H, rng)

    def shuffle(vs, ends):
        kept = iter([v for v in vs if v in ends])
        return tuple(next(kept) if v in ends else v
                     for v in rng.sample(vs, len(vs)))

    return replace(H, targets=shuffle(H.targets, set(H.inputs())),
                   sources=shuffle(H.sources, set(H.outputs())),
                   edges=tuple(rng.sample(H.edges, len(H.edges))))


def _paired(F, G):
    """The one candidate ``find_isomorphism`` checks: the canonical
    labellings of F and G paired position by position."""
    vmap_t, vmap_s, emap = (dict(zip(f, g)) for f, g in zip(
        canonical_labelling(F), canonical_labelling(G)))
    return Homomorphism(F, G, {v: vmap_t[v] for v in F.targets},
                        {v: vmap_s[v] for v in F.sources},
                        {e: emap[e] for e in F.edges})


def _iso_check_pairs(seed, gsig):
    """Graph pairs of equal sizes, half of them isomorphic: random graphs
    and loop families against a reordered copy, or against a reordered
    copy of themselves with two wires' far ends exchanged."""
    rng = random.Random(seed)
    graphs = [random_graph(rng, SIG, max_edges=m, max_extra_wires=w)
              for m in (1, 3, 6, 12) for w in (0, 1, 3) for _ in range(8)]
    graphs += [_loop_family(fam) for fam in _families(4)[::3]]
    graphs += [interpret(parse_term(text, gsig), gsig) for text in (
        "f * g ; h", "tr [B] (g ; f) * h", "g * f ; swap [A] [B] ; h")]
    pairs = []
    for i, H in enumerate(graphs):
        G = H
        if i % 2 and len(H.targets) >= 2:
            a, b = rng.sample(H.targets, 2)
            G = replace(H, conn={**H.conn, a: H.conn[b], b: H.conn[a]})
        pairs.append((H, _reordered(G, rng)))
    return pairs


def _moved(vs, a, b):
    """``vs`` with the entries ``a`` and ``b`` in each other's place."""
    return tuple(b if v == a else a if v == b else v for v in vs)


def _corrupted(h, rng):
    """Copies of the witness ``h``, each wrong in exactly one way: in one
    map, two images swapped, one image repeated, a key missing, a key
    added or replaced by one of neither graph, an image of neither
    graph, an edge sent to an edge of another label; or, in G, two
    ports of an edge or two inputs or outputs in each other's place, or
    one wire's object label changed; or F doubled, each element of its
    second copy sent where the first copy's is."""
    F, G = h.src, h.dst
    foreign = next_id(F) + next_id(G)
    maps = {"vmap_t": h.vmap_t, "vmap_s": h.vmap_s, "emap": h.emap}
    out = []
    for name, m in maps.items():
        keys = list(m)
        if len(keys) >= 2:
            a, b = rng.sample(keys, 2)
            out.append(replace(h, **{name: {**m, a: m[b], b: m[a]}}))
            out.append(replace(h, **{name: {**m, a: m[b]}}))
        if keys:
            a = rng.choice(keys)
            out.append(replace(h, **{name: {k: v for k, v in m.items()
                                            if k != a}}))
            out.append(replace(h, **{name: {
                foreign if k == a else k: v for k, v in m.items()}}))
            out.append(replace(h, **{name: {**m, a: foreign}}))
            out.append(replace(h, **{name: {**m, foreign: m[a]}}))
        out.append(replace(h, **{name: {**m, foreign: foreign + 1}}))
    unlike = [(e, d) for e in F.edges for d in F.edges
              if F.labels[e] != F.labels[d]]
    if unlike:
        e, d = rng.choice(unlike)
        out.append(replace(h, emap={**h.emap, e: h.emap[d], d: h.emap[e]}))
    tgts, srcs = G.tgts, G.srcs
    for e in G.edges:
        for ports, field in ((tgts[e], "targets"), (srcs[e], "sources")):
            if len(ports) >= 2:
                a, b = rng.sample(ports, 2)
                out.append(replace(h, dst=replace(
                    G, **{field: _moved(getattr(G, field), a, b)})))
    for ends, field in ((G.inputs(), "targets"), (G.outputs(), "sources")):
        if len(ends) >= 2:
            a, b = rng.sample(ends, 2)
            out.append(replace(h, dst=replace(
                G, **{field: _moved(getattr(G, field), a, b)})))
    if G.targets:
        v = rng.choice(G.targets)
        out.append(replace(h, dst=replace(
            G, vtlabels={**G.vtlabels, v: "Z"},
            vslabels={**G.vslabels, G.conn[v]: "Z"})))
    twice = tensor(F, F)
    out.append(Homomorphism(twice, G, *(
        {**m, **dict(zip(both[len(one):], map(m.__getitem__, one)))}
        for m, one, both in ((h.vmap_t, F.targets, twice.targets),
                             (h.vmap_s, F.sources, twice.sources),
                             (h.emap, F.edges, twice.edges)))))
    return out


def test_one_pass_iso_check_agrees_with_the_embedding_check(gsig):
    """The witness check against its reference on the maps that pair two
    canonical labellings, and on witnesses spoilt in one way each."""
    rng = random.Random(5)
    paired, spoilt = {True: 0, False: 0}, 0
    for F, G in _iso_check_pairs(23, gsig):
        h = _paired(F, G)
        want = is_isomorphism_by_embedding(h)
        assert h.is_isomorphism() is want
        paired[want] += 1
        for bad in _corrupted(h, rng) if want else ():
            assert bad.is_isomorphism() is is_isomorphism_by_embedding(bad)
            spoilt += 1
    assert paired[True] >= 40 and paired[False] >= 40 and spoilt >= 700


def test_iso_witnesses_are_those_of_the_embedding_check(gsig):
    """``find_isomorphism`` answers as the paired labellings checked by
    the reference do, with the same maps in the same key order."""
    found = 0
    for F, G in _iso_check_pairs(29, gsig):
        w, h = find_isomorphism(F, G), _paired(F, G)
        if not is_isomorphism_by_embedding(h):
            assert w is None
            continue
        found += 1
        for got, want in ((w.vmap_t, h.vmap_t), (w.vmap_s, h.vmap_s),
                          (w.emap, h.emap)):
            assert list(got.items()) == list(want.items())
    assert found >= 40


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
    """Each graph holds its port tables, port index and ``conn``
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
        assert graph_tables(H) == tables_from_scratch(H)


TABLE_NAMES = ("tgts", "srcs", "inv", "port_index", "by_label", "edge_seq")


def test_replace_derives_the_tables_anew():
    """A graph frozen from a host holds the host's port tables and
    ``inv``; ``dataclasses.replace`` makes a graph that holds none of
    them and derives its own, for its own ``conn`` and vertex order."""
    H = interpret(parse_term("g ; h ; k ; f * u", SIG), SIG)
    assert {"tgts", "srcs", "inv"} <= vars(H).keys()
    a, b = H.targets[:2]
    conn = {**H.conn, a: H.conn[b], b: H.conn[a]}
    G = replace(H, conn=conn)
    assert not vars(G).keys() & set(TABLE_NAMES)
    assert G.inv == {s: t for t, s in conn.items()} != H.inv
    assert (G.tgts, G.srcs) == G.port_tables() and G.tgts is not H.tgts
    F = replace(H, targets=H.targets[::-1])
    assert F.tgts == {e: ts[::-1] for e, ts in H.tgts.items()} != H.tgts
    assert graph_tables(F) == tables_from_scratch(F)


def test_a_graph_built_directly_derives_no_table(monkeypatch):
    """Building a graph, directly, by ``replace`` or by ``rename``,
    derives nothing: its tables are built on first use."""
    calls = []
    real = LinearHypergraph.port_tables
    monkeypatch.setattr(LinearHypergraph, "port_tables",
                        lambda H: calls.append(H) or real(H))
    H = fork_join_example()
    built = [H, replace(H), rename(H, {H.edges[0]: 99})]
    assert calls == []
    assert all(not vars(G).keys() & set(TABLE_NAMES) for G in built)
    assert built[1].srcs == real(H)[1] and len(calls) == 1


def test_a_left_that_names_a_missing_edge_is_reported():
    """Validation derives no table before the shape checks pass, so a
    graph whose ``left`` names an edge it does not have gets its report,
    not a ``KeyError``."""
    H = LinearHypergraph((0,), (1,), (), {0: 5}, {1: INTERFACE}, {0: 1}, {})
    assert validate(H) == ["left(0) is not an edge of the graph"]
    with pytest.raises(ValueError, match=r"left\(0\) is not an edge"):
        load_graph(save_graph(H, canonicalize=False))
