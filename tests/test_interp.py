import gc
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (Gen, Id, Seq, Swap, Tensor, Trace, TypeMismatch,
                    equal_mod_stmc, extract_term, find_isomorphism, identity,
                    interpret, parse_term, rename, signature, type_of,
                    validate)
from linhyp import graphs
from linhyp.graphs import LinearHypergraph
from linhyp.laws import axiom_schemes, law_signature, random_term
from linhyp.terms import tensor_all
from oracles import (equal_mod_stmc_typed_first, interpret_by_combinators,
                     ladder_times, log_log_slope, random_graph,
                     tables_in_order)

SIG = law_signature()

terms = st.builds(
    lambda seed, m, n: random_term(random.Random(seed), SIG, m, n),
    st.integers(0, 10**9), st.integers(0, 2), st.integers(0, 2))


def test_generator_shape():
    H = interpret(Gen("h"), SIG)
    assert H.arity() == (2, 2) and len(H.edges) == 1


def test_identity_clause():
    for n in (0, 1, 3):
        assert find_isomorphism(interpret(Id(n), SIG), identity(n))


def test_generalised_example(gsig):
    t = parse_term("f * g ; h", gsig)
    H = interpret(t, gsig)
    assert validate(H, gsig) == []
    assert H.dom() == ("A", "B") and H.cod() == ("C", "D")
    assert sorted(H.labels.values()) == ["f", "g", "h"]
    # f's output wire carries a B into h's first input
    f_edge = next(e for e in H.edges if H.labels[e] == "f")
    tgts, srcs = H.port_tables()
    (t_out,) = tgts[f_edge]
    assert H.vtlabels[t_out] == "B"
    h_edge = next(e for e in H.edges if H.labels[e] == "h")
    assert H.conn[t_out] == srcs[h_edge][0]


@given(terms)
@settings(max_examples=60, deadline=None)
def test_interpret_type_and_validity(t):
    H = interpret(t, SIG)
    assert validate(H, SIG) == []
    dom, cod = type_of(t, SIG)
    assert H.dom() == dom and H.cod() == cod


def test_equal_mod_stmc_bifunctoriality():
    lhs = Seq(Tensor(Gen("f"), Gen("g")), Tensor(Gen("f"), Gen("h")))
    rhs = Tensor(Seq(Gen("f"), Gen("f")), Seq(Gen("g"), Gen("h")))
    assert equal_mod_stmc(lhs, rhs, SIG)


def test_equal_mod_stmc_syntactic():
    t = Trace(1, Seq(Gen("h"), Gen("h")))
    assert equal_mod_stmc(t, t, SIG)


def test_equal_mod_stmc_distinguishes_tensor_order():
    f, g = Gen("f"), Gen("g")
    fg = Tensor(f, Seq(g, Gen("k")))
    gf = Tensor(Seq(g, Gen("k")), f)
    assert not equal_mod_stmc(fg, gf, SIG)


def test_equal_mod_stmc_type_mismatch():
    with pytest.raises(TypeMismatch):
        equal_mod_stmc(Gen("f"), Gen("g"), SIG)


def test_axiom_schemes_hold(rng):
    for _ in range(20):
        for name, lhs, rhs in axiom_schemes(rng, SIG):
            assert equal_mod_stmc(lhs, rhs, SIG), name


def test_generalised_ops_reject_label_mismatch(gsig):
    from linhyp import compose, trace
    from linhyp.terms import TypeMismatch as TM
    f = interpret(Gen("f"), gsig)  # A -> B
    with pytest.raises(TM):
        compose(f, f)  # B does not match A
    with pytest.raises(TM):
        trace("A", f)  # cod starts with B, not A
    loop = interpret(parse_term("f ; g", gsig), gsig)  # A -> A
    assert trace("A", loop).arity() == (0, 0)


# -- the single-pass builder against the combinator fold ----------------------

LSIG = signature({"f": ("A", "B"), "g": ("B", "A"),
                  "h": (("A", "B"), ("B", "A")), "k": (("A", "A"), "B"),
                  "c": ("B", ("A", "A")), "uA": ((), "A"), "uB": ((), "B"),
                  "zA": ("A", ()), "zB": ("B", ())})


def random_labelled_term(rng, m, n, depth):
    """A random well-typed term of type ``m -> n`` over ``LSIG``."""
    def word():
        return tuple(rng.choice("AB") for _ in range(rng.randint(0, 2)))

    named = [g for g, ty in LSIG.generators.items() if ty == (m, n)]
    cuts = [i for i in range(len(m) + 1) if m[i:] + m[:i] == n]
    choices = ["gen"] * 3 * bool(named) + ["cross"] * bool(cuts)
    if m == n:
        choices += ["id", "swap"]
    if depth > 0:
        choices += ["seq", "ten", "seq", "ten", "tr"]
    pick = rng.choice(choices or ["plumb"])
    if pick == "gen":
        return Gen(rng.choice(named))
    if pick == "id":
        return Id(m)
    if pick == "cross":
        a = rng.choice(cuts)
        return Swap(m[:a], m[a:])
    if pick == "swap":
        a = rng.randint(0, len(m))
        return Seq(Swap(m[:a], m[a:]), Swap(m[a:], m[:a]))
    if pick == "seq":
        k = word()
        return Seq(random_labelled_term(rng, m, k, depth - 1),
                   random_labelled_term(rng, k, n, depth - 1))
    if pick == "ten":
        i, j = rng.randint(0, len(m)), rng.randint(0, len(n))
        return Tensor(random_labelled_term(rng, m[:i], n[:j], depth - 1),
                      random_labelled_term(rng, m[i:], n[j:], depth - 1))
    if pick == "tr":
        x = word()
        return Trace(x, random_labelled_term(rng, x + m, x + n, depth - 1))
    # sink every input, then source every output
    t = Id(())
    for lab in m:
        t = Tensor(t, Gen("z" + lab))
    s = Id(())
    for lab in n:
        s = Tensor(s, Gen("u" + lab))
    return Seq(t, s)


def assert_same_stored_order(t, sig):
    old = interpret_by_combinators(t, sig)
    new = interpret(t, sig)
    assert (len(old.targets), len(old.sources), len(old.edges)) == \
        (len(new.targets), len(new.sources), len(new.edges))
    perm = dict(zip(old.targets + old.sources + old.edges,
                    new.targets + new.sources + new.edges))
    assert rename(old, perm) == new


def test_builder_matches_combinator_fold_position_for_position():
    for seed in range(1000):
        rng = random.Random(seed)
        depth = 1 + seed % 7
        if seed % 4 == 3:
            m, n = (tuple(rng.choice("AB") for _ in range(rng.randint(0, 2)))
                    for _ in range(2))
            t, sig = random_labelled_term(rng, m, n, depth), LSIG
        else:
            m, n = rng.randint(0, 2), rng.randint(0, 2)
            t, sig = random_term(rng, SIG, m, n, depth, traces=True), SIG
        assert_same_stored_order(t, sig)


@pytest.mark.parametrize("t, sig", [
    (Swap(1, 2), SIG),
    (Trace(1, Swap(1, 1)), SIG),
    (Trace(1, Swap(1, 2)), SIG),
    (Trace(2, Swap(1, 2)), SIG),
    (Seq(Swap(2, 1), Tensor(Gen("h"), Gen("f"))), SIG),
    (Swap(("A", "B"), "A"), LSIG),
    (Trace(("A", "A"), Swap("A", "A")), LSIG),
    (Trace(("B",), Seq(Swap("B", "A"), Tensor(Gen("f"), Gen("g")))), LSIG),
])
def test_builder_matches_combinator_fold_on_crossings(t, sig):
    assert_same_stored_order(t, sig)


@pytest.mark.parametrize("t, sig", [
    # identity/swap blocks left and right of Seq and Tensor, by generators
    (Seq(Id(1), Gen("f")), SIG),
    (Seq(Gen("f"), Id(1)), SIG),
    (Seq(Seq(Swap(1, 1), Tensor(Id(1), Id(1))), Gen("h")), SIG),
    (Seq(Gen("h"), Seq(Swap(1, 1), Tensor(Id(1), Id(1)))), SIG),
    (Tensor(Swap(1, 1), Gen("f")), SIG),
    (Tensor(Gen("f"), Seq(Swap(1, 2), Swap(2, 1))), SIG),
    (Tensor(Id(1), Tensor(Gen("f"), Id(2))), SIG),
    (Seq(Tensor(Id(1), Gen("g")), Seq(Swap(1, 2), Tensor(Gen("k"), Id(1)))),
     SIG),
    (Seq(Tensor(Id("A"), Gen("f")),
         Seq(Seq(Swap("A", "B"), Swap("B", "A")), Gen("h"))), LSIG),
    (Tensor(Id(()), Gen("f")), SIG),
    (Seq(Gen("z"), Id(())), SIG),
    # under a trace, bare or beside generators and pending blocks
    (Trace(2, Swap(2, 2)), SIG),
    (Trace(("A", "B"), Swap(("A", "B"), ("A", "B"))), LSIG),
    (Trace(1, Seq(Tensor(Id(1), Id(1)), Swap(1, 1))), SIG),
    (Trace(1, Seq(Swap(1, 1), Tensor(Gen("f"), Id(1)))), SIG),
    (Tensor(Gen("u"), Trace(1, Swap(1, 1))), SIG),
    (Seq(Tensor(Id(1), Trace(1, Seq(Swap(1, 1), Id(2)))), Gen("h")), SIG),
    # the whole term
    (Id(()), SIG),
    (Id(3), SIG),
    (Swap(2, 1), SIG),
    (Seq(Swap(1, 2), Swap(2, 1)), SIG),
    (Tensor(Swap(1, 1), Seq(Id(2), Swap(1, 1))), SIG),
    (Seq(Tensor(Id("A"), Swap("B", "A")), Swap(("A", "A"), "B")), LSIG),
])
def test_builder_matches_combinator_fold_on_wiring(t, sig):
    assert_same_stored_order(t, sig)


def test_builder_matches_combinator_fold_on_extracted_terms():
    for seed in range(200):
        H = random_graph(random.Random(seed), SIG)
        assert_same_stored_order(extract_term(H), SIG)


#: ill-typed terms, the message ``interpret`` raises, and the path of
#: attribute names from the term to the node it names
TYPE_ERRORS = [
    (Seq(Gen("f"), Gen("h")), SIG, "cannot compose: 1 does not match 2", ()),
    (Tensor(Gen("f"), Seq(Gen("k"), Gen("h"))), SIG,
     "cannot compose: 1 does not match 2", ("bottom",)),
    (Trace(2, Gen("g")), SIG,
     "cannot trace 2 out of a graph whose interface starts 1 -> 2", ()),
    (Trace("A", Gen("f")), LSIG, "cannot trace [A] out of a graph whose"
     " interface starts [A] -> [B]", ()),
    (Trace(("B",), Seq(Gen("f"), Gen("c"))), LSIG, "cannot trace [B] out of"
     " a graph whose interface starts [A] -> [A]", ()),
    (Seq(Gen("f"), Gen("f")), LSIG,
     "cannot compose: [B] does not match [A]", ()),
    (Seq(Gen("f"), Gen("nope")), SIG, "unknown generator 'nope'",
     ("right",)),
    (Tensor(Gen("nope"), Seq(Gen("f"), Gen("h"))), SIG,
     "unknown generator 'nope'", ("top",)),
    (Seq(Swap(1, 1), Id(3)), SIG, "cannot compose: 2 does not match 3", ()),
    (Tensor(Gen("f"), Seq(Id(1), Seq(Swap(1, 1), Id(2)))), SIG,
     "cannot compose: 1 does not match 2", ("bottom",)),
    (Seq(Swap("A", "B"), Id(("A", "B"))), LSIG,
     "cannot compose: [B,A] does not match [A,B]", ()),
]


@pytest.mark.parametrize("t, sig", [(t, sig) for t, sig, *_ in TYPE_ERRORS])
def test_builder_type_errors_match_combinator_fold(t, sig):
    with pytest.raises(TypeMismatch):
        interpret_by_combinators(t, sig)
    with pytest.raises(TypeMismatch):
        interpret(t, sig)


def _node_at(t, path):
    for name in path:
        t = getattr(t, name)
    return t


@pytest.mark.parametrize("t, sig, message, path", TYPE_ERRORS + [
    # the first of two unknown generators in leaf order is the one named,
    # however the term nests
    (Seq(Tensor(Gen("f"), Gen("nope")), Gen("nix")), SIG,
     "unknown generator 'nope'", ("left", "bottom")),
    (Tensor(Gen("nix"), Seq(Gen("f"), Gen("nope"))), SIG,
     "unknown generator 'nix'", ("top",)),
    (Seq(Gen("f"), Trace(1, Seq(Gen("nope"), Gen("nope")))), SIG,
     "unknown generator 'nope'", ("right", "body", "left")),
])
def test_builder_type_errors_keep_their_message_and_node(t, sig, message,
                                                          path):
    with pytest.raises(TypeMismatch) as exc:
        interpret(t, sig)
    assert str(exc.value) == message
    assert exc.value.subterm is _node_at(t, path)


def test_wiring_type_error_names_both_words():
    with pytest.raises(TypeMismatch,
                       match=r"^cannot compose: 2 does not match 3$"):
        interpret(Seq(Swap(1, 1), Id(3)), SIG)
    with pytest.raises(TypeMismatch, match=r"^cannot compose: \[B,A\] does"
                                           r" not match \[A,B\]$"):
        interpret(Seq(Swap("A", "B"), Id(("A", "B"))), LSIG)


# -- typing each side once in equal_mod_stmc ----------------------------------

def _outcome(fn, *args):
    """What ``fn(*args)`` returns, or the exception it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # any exception: the two sides are compared
        return exc


def assert_same_verdict_or_error(s, t, sig):
    """``equal_mod_stmc`` answers as the version that types both sides
    first, or raises its error: class, message and node, unchained."""
    got = _outcome(equal_mod_stmc, s, t, sig)
    want = _outcome(equal_mod_stmc_typed_first, s, t, sig)
    assert type(got) is type(want)
    if isinstance(want, Exception):
        assert str(got) == str(want) and got.subterm is want.subterm
        assert got.__cause__ is None and got.__context__ is None
    else:
        assert got is want


@pytest.mark.parametrize("side", ["left", "right", "both"])
@pytest.mark.parametrize("t, sig", [(t, sig) for t, sig, *_ in TYPE_ERRORS])
def test_equal_mod_stmc_raises_the_error_type_of_words(t, sig, side):
    """An ill-typed side, or two, raises the error ``type_of`` raises
    for the first of them, though only ``interpret`` types the sides."""
    other = next(u for u, usig, *_ in TYPE_ERRORS if usig is sig
                 and u is not t)
    s, u = {"left": (t, Gen("f")), "right": (Gen("f"), t),
            "both": (t, other)}[side]
    with pytest.raises(TypeMismatch):
        equal_mod_stmc(s, u, sig)
    assert_same_verdict_or_error(s, u, sig)


@pytest.mark.parametrize("s, t, sig", [
    (Gen("f"), Gen("g"), SIG), (Gen("g"), Gen("k"), SIG),
    (Id(1), Id(2), SIG), (Trace(1, Gen("h")), Gen("g"), SIG),
    (Gen("f"), Gen("g"), LSIG), (Id("A"), Id("B"), LSIG),
    (Gen("f"), Id("A"), LSIG), (Gen("g"), Id("A"), LSIG),
    (Swap("A", "B"), Swap("B", "A"), LSIG),
])
def test_equal_mod_stmc_refuses_sides_of_other_types(s, t, sig):
    with pytest.raises(TypeMismatch,
                       match="^terms to compare must share a type$"):
        equal_mod_stmc(s, t, sig)
    assert_same_verdict_or_error(s, t, sig)


def _mutated(t, rng, names, word):
    """``t`` with one generator name, identity or swap word, or trace
    word, drawn at random, replaced by a random one."""
    fields = {Seq: ("left", "right"), Tensor: ("top", "bottom"),
              Trace: ("body",)}
    spots, todo = [], [(t, ())]
    while todo:
        u, path = todo.pop()
        if type(u) in (Gen, Id, Swap, Trace):
            spots.append(path)
        todo += [(getattr(u, f), path + (f,)) for f in fields.get(type(u), ())]

    def rebuild(u, path):
        if path:
            return replace(u, **{path[0]: rebuild(getattr(u, path[0]),
                                                  path[1:])})
        if type(u) is Gen:
            return Gen(rng.choice(names))
        if type(u) is Id:
            return Id(word())
        if type(u) is Swap:
            return replace(u, **{rng.choice(["upper", "lower"]): word()})
        return replace(u, loop=word())

    return rebuild(t, rng.choice(spots))


def test_interpret_raises_exactly_where_type_of_does():
    """The premise of typing once: over mutated terms of both
    signatures, ``interpret`` raises ``TypeMismatch`` exactly when
    ``type_of`` does, and otherwise builds a graph of that type; and
    ``equal_mod_stmc`` answers, or raises, as the version that types
    both sides first."""
    rng = random.Random(23)

    def word(sig):
        if sig is SIG:
            return rng.randint(0, 3)
        return tuple(rng.choice("AB") for _ in range(rng.randint(0, 3)))

    typed = 0
    for i in range(600):
        sig = SIG if i % 2 else LSIG
        if sig is SIG:
            t = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2))
        else:
            t = random_labelled_term(rng, word(LSIG), word(LSIG), 3)
        bad = _mutated(t, rng, [*sig.generators, "nope"], lambda: word(sig))
        ty, H = _outcome(type_of, bad, sig), _outcome(interpret, bad, sig)
        if isinstance(ty, Exception):
            assert type(ty) is type(H) is TypeMismatch
        else:
            typed += 1
            assert (H.dom(), H.cod()) == ty
        for s, u in ((bad, t), (t, bad), (bad, bad)):
            assert_same_verdict_or_error(s, u, sig)
    assert 150 <= typed <= 450


@pytest.mark.parametrize("nested", ["left", "right"])
def test_interpret_deep_seq_chain(nested):
    t = Gen("f")
    for _ in range(5000):
        t = Seq(t, Gen("f")) if nested == "left" else Seq(Gen("f"), t)
    H = interpret(t, SIG)
    assert len(H.edges) == 5001 and H.arity() == (1, 1)
    assert validate(H, SIG) == []


def test_right_and_left_nested_tensors_give_one_stored_order():
    # tensor joins the interface lists at either end in place, so neither
    # nesting shifts a long list once per node
    left = right = Gen("f")
    for _ in range(19_999):
        left, right = Tensor(left, Gen("f")), Tensor(Gen("f"), right)
    for t, u in ((left, right), (Trace(1, left), Trace(1, right))):
        L, R = interpret(t, SIG), interpret(u, SIG)
        assert L.arity() == R.arity() and len(L.edges) == 20_000
        perm = dict(zip(R.targets + R.sources + R.edges,
                        L.targets + L.sources + L.edges))
        assert rename(R, perm) == L


# -- nested tensors of wiring, and the tables handed to the graph ------------

def _wiring(rng, w, depth):
    """A random term ``w -> w`` of identities and swaps only."""
    pick = rng.choice(["id", "swap"] + ["ten", "ten", "seq"] * (depth > 0))
    if pick == "id":
        return Id(w)
    a = rng.randint(0, w)
    if pick == "swap":
        return Swap(a, w - a)
    if pick == "ten":
        return Tensor(_wiring(rng, a, depth - 1), _wiring(rng, w - a, depth - 1))
    return Seq(_wiring(rng, w, depth - 1), _wiring(rng, w, depth - 1))


def _nested(n, leaf, right):
    """``n`` copies of ``leaf`` tensored, nested to the right or left."""
    t = leaf
    for _ in range(n - 1):
        t = Tensor(leaf, t) if right else Tensor(t, leaf)
    return t


def test_builder_matches_combinator_fold_on_nested_wiring():
    """Tensoring two pending permutations copies both under 64 wires,
    and else joins the shorter into the longer and shifts only the
    shorter one's entries: random trees of identities and swaps, narrow
    and wide, bare and then fed into generators, keep the fold's stored
    order."""
    for seed in range(300):
        rng = random.Random(seed)
        w = rng.randint(0, 12) if seed % 2 else rng.randint(40, 160)
        t = _wiring(rng, w, rng.randint(1, 8))
        assert_same_stored_order(t, SIG)
        assert_same_stored_order(Seq(t, tensor_all([Gen("f")] * w)), SIG)
    for leaf in (Id(1), Swap(1, 1), Swap(2, 1)):
        for right in (True, False):
            assert_same_stored_order(_nested(9, leaf, right), SIG)
    # right-nested, each side holds an offset: the shorter one's entries
    # are shifted by it, in front of the longer or behind it
    for a, b in ((35, 50), (80, 25)):
        t = Tensor(_nested(a, Swap(1, 1), True), _nested(b, Swap(2, 1), True))
        assert_same_stored_order(t, SIG)
        u = Tensor(_nested(a, Swap(1, 1), False), _nested(b, Swap(1, 2), True))
        assert_same_stored_order(Seq(t, u), SIG)


@pytest.mark.parametrize("leaf,right", [(Id(1), True), (Swap(1, 1), False)],
                         ids=["right-nested-ids", "left-nested-swaps"])
def test_nested_tensors_of_wiring_interpret_in_linear_time(leaf, right):
    """``id 1 * (id 1 * ...)`` and ``(... * swap 1 1) * swap 1 1`` up to
    16000 leaf wires: copying both permutations at every level was
    quadratic (a log-log slope near 2; 0.8 s for 8000 right-nested
    identities); joining the shorter into the longer keeps the slope at
    most 1.2.  Each rung is the best of five runs without the cyclic
    collector (:func:`ladder_times`); each rung's graph is checked once
    more outside the timed runs."""
    per_leaf = len(type_of(leaf, SIG)[0])
    rungs = [(wires, _nested(wires // per_leaf, leaf, right))
             for wires in (2000, 4000, 8000, 16000)]
    points = ladder_times(rungs, lambda t: interpret(t, SIG))
    for wires, t in rungs:
        H = interpret(t, SIG)
        assert H.arity() == (wires, wires) and not H.edges
    assert log_log_slope(points) <= 1.2, points


OSIG = signature({"f": (1, 1), "g": (1, 2), "h": (2, 2), "k": (2, 1),
                  "u": (0, 1), "z": (1, 0), "o": (0, 0)})


def test_interpret_hands_its_tables_to_the_view(monkeypatch):
    """The port tables and ``conn`` inverse that ``interpret`` records
    as it draws ids are those a fresh ``replace(H)`` derives, the port
    tables entry for entry and in insertion order, on random terms with
    traces and ``0 -> 0`` generators, labelled terms and nested wiring;
    no port table is derived."""
    terms = [(_nested(40, Id(1), True), SIG), (_nested(40, Swap(1, 1), False),
                                             SIG),
             (Gen("o"), OSIG), (Tensor(Gen("o"), Trace(1, Gen("f"))), OSIG)]
    for seed in range(400):
        rng = random.Random(seed)
        if seed % 4 == 3:
            m, n = (tuple(rng.choice("AB") for _ in range(rng.randint(0, 2)))
                    for _ in range(2))
            terms.append((random_labelled_term(rng, m, n, 1 + seed % 6), LSIG))
        elif seed % 4 == 2:
            terms.append((_wiring(rng, rng.randint(0, 100), 6), SIG))
        else:
            terms.append((random_term(rng, OSIG, rng.randint(0, 2),
                                      rng.randint(0, 2), 1 + seed % 6), OSIG))
    derived = []
    real = LinearHypergraph.port_tables
    monkeypatch.setattr(LinearHypergraph, "port_tables",
                        lambda H: derived.append(H) or real(H))
    graphs = [interpret(t, sig) for t, sig in terms]
    for H in graphs:
        fresh = replace(H)
        assert tables_in_order(H)[:2] == tables_in_order(fresh)[:2]
        assert H.inv == fresh.inv
    assert len(derived) == len(graphs)  # one per replace(H) above
    assert any(H.labels and not H.targets for H in graphs)


def test_interpret_splices_through_the_hosts_plug(monkeypatch):
    """Composition and trace splice their wires with ``_Host.plug``, the
    splice of every graph operation: here each output of the first h is
    plugged into the input of the second beside it, and the second's
    first output into the first's first input.  Ids count from 0 in the
    order drawn: h's inputs, its edge's targets and sources, its outputs
    and then the edge."""
    plugged = []
    real = graphs._Host.plug

    def recording(self, outs, ins):
        outs, ins = list(outs), list(ins)
        plugged.extend(zip(outs, ins))
        real(self, outs, ins)

    monkeypatch.setattr(graphs._Host, "plug", recording)
    H = interpret(Trace(1, Seq(Gen("h"), Gen("h"))), SIG)
    assert plugged == [(6, 9), (7, 10), (15, 0)]
    assert validate(H, SIG) == [] and H.arity() == (1, 1)
    assert find_isomorphism(H, interpret_by_combinators(
        Trace(1, Seq(Gen("h"), Gen("h"))), SIG))


def test_an_interpreted_graph_is_freed_without_the_collector():
    """The tables ``interpret`` hands to its graph hold no reference back
    to it."""
    gc.disable()
    try:
        H = interpret(parse_term("tr 1 (g ; h) ; f ; z", SIG), SIG)
        assert "tgts" in vars(H) and H.by_label
        ref = weakref.ref(H)
        del H
        assert ref() is None
    finally:
        gc.enable()
