import random

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (Gen, Id, Seq, Swap, Tensor, Trace, TypeMismatch,
                    equal_mod_stmc, extract_term, find_isomorphism, identity,
                    interpret, parse_term, rename, signature, type_of,
                    validate)
from linhyp.laws import axiom_schemes, law_signature, random_term
from oracles import interpret_by_combinators, random_graph

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
