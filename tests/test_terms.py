import random

import pytest
from hypothesis import given, settings, strategies as st

from linhyp import (Gen, Id, ParseError, Seq, Swap, Tensor, Trace,
                    TypeMismatch, parse_signature, parse_term, render_term,
                    signature, tensor_all, type_of, word)
from linhyp.interp import equal_mod_stmc, interpret
from linhyp.graphs import find_isomorphism
from linhyp.laws import law_signature, random_term
from linhyp.terms import SignatureError
from oracles import global_trace_form, is_trace_free, stage

SIG = law_signature()

terms = st.builds(
    lambda seed, m, n: random_term(random.Random(seed), SIG, m, n),
    st.integers(0, 10**9), st.integers(0, 2), st.integers(0, 2))


def test_parse_tensor_binds_tighter(gsig):
    t = parse_term("f * g ; h", gsig)
    assert t == Seq(Tensor(Gen("f"), Gen("g")), Gen("h"))


def test_parse_identity_literal(sig):
    assert parse_term("id 3", sig) == Id(word(3))


def test_parse_traced_example():
    sig = signature({"join": (2, 1), "f": (1, 1), "copy": (1, 2)})
    t = parse_term("tr 1 (join * f ; swap 1 1 ; copy * id 1)", sig)
    assert t == Trace(word(1), Seq(
        Seq(Tensor(Gen("join"), Gen("f")), Swap(word(1), word(1))),
        Tensor(Gen("copy"), Id(word(1)))))
    assert type_of(t, sig) == (word(2), word(2))


def test_parse_reports_position(sig):
    with pytest.raises(ParseError) as err:
        parse_term("f ; ; g", sig)
    assert "position 4" in str(err.value)


def test_parse_reads_only_decimal_digits_as_numbers(sig):
    """``²`` is a digit to ``str.isdigit`` but no number to ``int``: the
    parser reports it as a character it cannot read, where it stands."""
    with pytest.raises(ParseError) as err:
        parse_term("id ²", sig)
    assert str(err.value) == "unexpected character '²' (at position 3)"
    assert parse_term("id ٣", sig) == Id(word(3))  # a decimal digit


def test_parse_unknown_generator(sig):
    with pytest.raises(TypeMismatch):
        parse_term("nosuch", sig)


def test_parse_type_mismatch_at_seq(sig):
    with pytest.raises(TypeMismatch):
        parse_term("g ; g", sig)  # 1->2 then 1->2


def test_parse_type_mismatch_at_trace(sig):
    with pytest.raises(TypeMismatch):
        parse_term("tr 1 (u)", sig)  # body 0->1 has no first input to loop


@given(terms)
@settings(max_examples=80, deadline=None)
def test_render_parse_round_trip(t):
    assert parse_term(render_term(t), SIG) == t


@given(terms)
@settings(max_examples=60, deadline=None)
def test_type_stable_under_render(t):
    again = parse_term(render_term(t), SIG)
    assert type_of(again, SIG) == type_of(t, SIG)


def test_type_of_tensor(sig):
    t = Tensor(Gen("f"), Gen("g"))
    assert type_of(t, sig) == (word(2), word(3))


def test_type_of_unit(sig):
    assert type_of(Id(0), sig) == ((), ())


def test_type_of_traced_swap(sig):
    assert type_of(Trace(1, Swap(1, 1)), sig) == (word(1), word(1))


def test_generalised_words(gsig):
    t = parse_term("f * g ; h", gsig)
    assert type_of(t, gsig) == (("A", "B"), ("C", "D"))
    t2 = parse_term("id [A,B]", gsig)
    assert type_of(t2, gsig) == (("A", "B"), ("A", "B"))


def test_signature_rejects_undeclared_object():
    with pytest.raises(SignatureError):
        from linhyp.terms import Signature
        Signature({"f": (("A",), ("B",))}, frozenset({"A"}))


def test_signature_rejects_reserved_names():
    with pytest.raises(SignatureError):
        signature({"tr": (1, 1)})
    with pytest.raises(SignatureError):
        signature({"@id": (1, 1)})


def test_parse_signature_file():
    text = """
    # circuit generators
    f : 1 -> 1
    h : [B,A] -> [C,D]
    """
    sig = parse_signature(text)
    assert sig.dom("f") == word(1)
    assert sig.cod("h") == ("C", "D")


@pytest.mark.parametrize("name", ["f g", "1x", "f-g", "f.g", "", "x'", "²x"])
def test_parse_signature_rejects_names_the_grammar_cannot_spell(name):
    with pytest.raises(SignatureError) as info:
        parse_signature(f"f : 1 -> 1\n{name} : 1 -> 1\n")
    assert str(info.value).startswith(f"line 2: {name!r} is not a")


@pytest.mark.parametrize("text", ["²", "1²"])
def test_parse_signature_reads_only_decimal_digits_as_numbers(text):
    with pytest.raises(SignatureError) as info:
        parse_signature(f"f : {text} -> 1\n")
    assert str(info.value) == f"line 1: bad word {text!r}"


@pytest.mark.parametrize("text", ["[A B]", "[,]", "[A,]", "[1x]", "[A;B]",
                                  "[A,,B]", "[f-g]"])
def test_parse_signature_refuses_labels_no_term_can_write(text):
    """A bracketed label must be one name token: ``[A B]``, ``[,]`` and
    the rest were read as the labels ``'A B'``, ``''`` and so on, and
    every ``id [...]`` over them was then refused."""
    with pytest.raises(SignatureError) as info:
        parse_signature(f"f : {text} -> 1\n")
    assert str(info.value) == f"line 1: bad word {text!r}"


@pytest.mark.parametrize("text,want", [
    ("[a,]", None), ("[a b]", None), ("3 4", None), ("[ ]", ()),
    ("٣", ("_",) * 3), ("²", None)])
def test_a_signature_word_is_read_as_a_term_reads_it(text, want):
    """A signature file's WORD is the term grammar's WORD: what ``id``
    takes in a term, and nothing else."""
    sig = parse_signature("f : 1 -> 1\n")
    try:
        in_term = type_of(parse_term(f"id {text}", sig), sig)[0]
    except ParseError:
        in_term = None
    assert in_term == want
    if want is None:
        with pytest.raises(SignatureError) as info:
            parse_signature(f"f : {text} -> 1\n")
        assert str(info.value) == f"line 1: bad word {text!r}"
    else:
        assert parse_signature(f"f : {text} -> 1\n").dom("f") == want


@pytest.mark.parametrize("name", ["id", "swap", "tr"])
def test_parse_signature_names_the_line_of_a_reserved_name(name):
    with pytest.raises(SignatureError) as info:
        parse_signature(f"f : 1 -> 1\n{name} : 1 -> 1\n")
    assert str(info.value) == f"line 2: generator name {name!r} is reserved"


def test_every_signature_label_can_be_written_in_a_term():
    sig = parse_signature("f : [A, b_2 ,é, tr] -> [_]\n")
    assert sig.dom("f") == ("A", "b_2", "é", "tr")
    t = parse_term("id [A,b_2, é,tr] ; f", sig)
    assert type_of(t, sig) == (("A", "b_2", "é", "tr"), ("_",))


def test_parse_signature_takes_every_name_token():
    sig = parse_signature("_ : 1 -> 1\nf_1 : 1 -> 2\n  Gx2 : 0 -> 1\n"
                          "é² : 1 -> 1\n")
    assert set(sig.generators) == {"_", "f_1", "Gx2", "é²"}
    assert parse_term("é² ; _", sig) == Seq(Gen("é²"), Gen("_"))
    assert type_of(parse_term("_ ; f_1", sig), sig) == (word(1), word(2))
    # programmatic signatures keep their own rules
    assert "f g" in signature({"f g": (1, 1)})


def test_stage_single_generator(sig):
    assert stage(Gen("f"), sig) == Gen("f")


def test_stage_tensor_shape(sig):
    st_ = stage(Tensor(Gen("f"), Gen("g")), sig)
    assert st_ == Seq(Tensor(Gen("f"), Id(word(1))),
                      Tensor(Id(word(1)), Gen("g")))


def test_stage_bifunctorial_four_slices(sig):
    t = Seq(Tensor(Gen("f"), Gen("g")), Tensor(Gen("f"), Gen("h")))
    staged = stage(t, sig)
    # a chain of four one-box slices
    slices = []
    cur = staged
    while isinstance(cur, Seq):
        slices.append(cur.right)
        cur = cur.left
    slices.append(cur)
    assert len(slices) == 4
    assert find_isomorphism(interpret(staged, sig), interpret(t, sig))


def test_stage_rejects_traces(sig):
    with pytest.raises(TypeMismatch):
        stage(Trace(1, Gen("h")), sig)


@given(st.builds(
    lambda seed, m, n: random_term(random.Random(seed), SIG, m, n,
                                   traces=False),
    st.integers(0, 10**9), st.integers(0, 2), st.integers(0, 2)))
@settings(max_examples=40, deadline=None)
def test_stage_preserves_meaning(t):
    staged = stage(t, SIG)
    assert find_isomorphism(interpret(staged, SIG), interpret(t, SIG))


def test_global_trace_form_nested(sig):
    t = Trace(1, Trace(1, Gen("h")))
    x, body = global_trace_form(t, sig)
    assert len(x) == 2 and is_trace_free(body)
    assert find_isomorphism(interpret(Trace(x, body), sig),
                            interpret(t, sig))


def test_global_trace_form_trace_free(sig):
    t = Tensor(Gen("f"), Gen("g"))
    assert global_trace_form(t, sig) == ((), t)


def test_global_trace_form_sandwich(sig):
    t = Seq(Seq(Gen("f"), Trace(1, Gen("h"))), Gen("f"))
    x, body = global_trace_form(t, sig)
    assert len(x) == 1 and is_trace_free(body)
    assert find_isomorphism(interpret(Trace(x, body), sig),
                            interpret(t, sig))


@given(terms)
@settings(max_examples=60, deadline=None)
def test_global_trace_form_meaning(t):
    x, body = global_trace_form(t, SIG)
    assert is_trace_free(body)
    assert find_isomorphism(interpret(Trace(x, body), SIG),
                            interpret(t, SIG))


def _chain(n, nested, deepest="f"):
    t = Gen(deepest)
    for _ in range(n):
        t = Seq(t, Gen("f")) if nested == "left" else Seq(Gen("f"), t)
    return t


@pytest.mark.parametrize("nested", ["left", "right"])
def test_deep_chains_type_render_and_compare(nested):
    t = _chain(5000, nested)
    assert type_of(t, SIG) == (word(1), word(1))
    assert equal_mod_stmc(t, t, SIG)
    text = render_term(t)
    if nested == "left":
        assert text == " ; ".join(["f"] * 5001)
    else:
        assert text == "f ; (" * 4999 + "f ; f" + ")" * 4999
    parsed = parse_term(text, SIG)
    assert parsed == t and hash(parsed) == hash(t)
    # differs from t only at its deepest leaf
    odd = _chain(5000, nested, deepest="g")
    assert odd != t and not odd == t
    assert len({t, parsed, odd}) == 2 and {t: 1}.get(odd) is None


def test_parser_takes_deep_traces_and_parentheses():
    t = Gen("f")
    for i in range(3000):
        t = Trace(word(0), t) if i % 2 else Tensor(Gen("f"), t)
    text = render_term(t)
    assert text.count("tr 0 (") == 1500
    assert render_term(parse_term(text, SIG)) == text
    deep = "(" * 5000 + "f" + ")" * 5000
    assert render_term(parse_term(deep, SIG)) == "f"
    with pytest.raises(ParseError) as err:
        parse_term("(" * 5000 + "f" + ")" * 4999, SIG)
    assert str(err.value) == (
        f"unexpected end of input (at position {len(deep) - 1})")


def test_deep_type_errors_keep_their_messages():
    bad = Seq(_chain(3000, "left"), Gen("g"))
    assert type_of(bad.left, SIG) == (word(1), word(1))
    bad = Seq(bad, Gen("f"))
    with pytest.raises(TypeMismatch, match=r"^cannot compose 2 with 1 in f ; f"):
        type_of(bad, SIG)
    loop = Trace(2, _chain(3000, "right"))
    with pytest.raises(TypeMismatch,
                       match=r"^trace over 2 needs a body typed 2\+m -> 2\+n,"
                             r" got 1 -> 1$"):
        type_of(loop, SIG)


def test_tensor_all_folds_left():
    a, b, c = Gen("a"), Gen("b"), Gen("c")
    assert tensor_all([]) == Id(0)
    assert tensor_all((a,)) is a
    assert tensor_all([a, b, c]) == Tensor(Tensor(a, b), c)
    assert tensor_all([a, b, c]) != Tensor(a, Tensor(b, c))


def test_words_that_are_tuples_are_kept_not_copied():
    w, u, v = ("A", "B"), ("A",), ("B", "C")
    assert Id(w).word is w
    s = Swap(u, v)
    assert s.upper is u and s.lower is v
    assert Trace(w, Id(w + w)).loop is w
    # anything else is still coerced to a fresh tuple
    listed = ["A", "B"]
    assert Id(listed).word == w and type(Id(listed).word) is tuple
    assert Id(2).word == word(2) and Swap("A", 1).upper == ("A",)
