"""Golden `normalize` runs: each step's rule and where its match lands.

A step's matched edges are pinned by their stored positions in the graph
the step rewrites.  Edges that matching adds to an expanded host come
after the host's own edges, in the order they were created.  Any change
to the match order of the rewriting driver shows up here.
"""
import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace, interpret, normalize,
                    parse_term, rule_from_terms, value_row)
from linhyp.circuits import FORK, eval_rules
from linhyp.laws import law_signature
from linhyp.terms import signature
from test_circuits import belnap_sig, two_point_sig

CSIG = signature({"join": (2, 1), "f": (1, 1), "copy": (1, 2)})


def step_positions(G, rules, max_steps):
    """Replay ``normalize`` one step at a time; one (rule, positions)
    pair per step."""
    cur, out = G, []
    for _ in range(max_steps):
        res = normalize(cur, rules, max_steps=1)
        if not res.steps:
            break
        (step,) = res.steps
        pos = {e: i for i, e in enumerate(cur.edges)}
        new = sorted(e for e in step.edges if e not in pos)
        out.append((step.rule, tuple(sorted(
            pos[e] if e in pos else len(cur.edges) + new.index(e)
            for e in step.edges))))
        cur = res.graph
    full = normalize(G, rules, max_steps=max_steps)
    assert [s.rule for s in full.steps] == [rule for rule, _ in out]
    return out


def _rewrite_cases():
    squash = rule_from_terms(parse_term("f ; f", CSIG), Gen("f"), CSIG,
                             "squash")
    copy_nat = rule_from_terms(parse_term("f ; copy", CSIG),
                               parse_term("copy ; f * f", CSIG), CSIG,
                               "copy-nat-f")
    # the left side has a straight wire, so matching expands the host
    slide = rule_from_terms(parse_term("swap 1 1 ; f * id 1", CSIG),
                            parse_term("id 1 * f ; swap 1 1", CSIG), CSIG,
                            "slide")
    sig = law_signature()
    noop = rule_from_terms(Gen("k"), Gen("k"), sig, "noop")
    yield ("squash", interpret(parse_term("f ; f ; f ; f", CSIG), CSIG),
           [squash], 10,
           [("squash", (0, 1))] * 3)
    yield ("copy-nat",
           interpret(parse_term("f ; f ; copy ; copy * f", CSIG), CSIG),
           [copy_nat], 10,
           [("copy-nat-f", (1, 2)), ("copy-nat-f", (0, 3)),
            ("copy-nat-f", (0, 2)), ("copy-nat-f", (3, 5))])
    yield ("slide",
           interpret(parse_term(
               "swap 1 1 ; f * f ; swap 1 1 ; f * id 1 ; join ; copy", CSIG),
               CSIG),
           [squash, slide], 10,
           [("squash", (1, 2)), ("slide", (0, 4))] + [("slide", (2, 4))] * 8)
    yield ("loop-noop", interpret(Trace(1, Gen("k")), sig), [noop], 3,
           [("noop", (0,))] * 3)


def _circuit_cases():
    two = two_point_sig()
    s2 = two.signature()
    yield ("two-point",
           interpret(Seq(Seq(Tensor(Gen("top"), Gen("bot")), Gen("org")),
                         Gen(FORK)), s2),
           eval_rules(two), 200,
           [("org-top-bot", (0, 1, 2)), ("fork-top", (0, 1))])
    yield ("two-point-unfolding",
           interpret(Seq(value_row(("bot", "top")),
                         Seq(Seq(Gen("org"), Gen(FORK)), Id(2))), s2),
           eval_rules(two), 200,
           [("org-bot-top", (0, 1, 2)), ("fork-top", (0, 1))])
    yield ("two-point-amp",
           interpret(Seq(value_row(("bot", "top", "bot")),
                         Seq(Tensor(Gen("amp"), Gen("org")),
                             Seq(Gen("org"), Seq(Gen("amp"), Gen(FORK))))),
                     s2),
           eval_rules(two), 200,
           [("org-top-bot", (1, 2, 4)), ("amp-bot", (0, 1)),
            ("org-bot-top", (0, 3, 4)), ("amp-top", (0, 2)),
            ("fork-top", (0, 1))])
    bel = belnap_sig()
    sb = bel.signature()
    yield ("belnap",
           interpret(Seq(value_row(("tt", "ff", "top")),
                         Seq(Tensor(Gen("andg"), Gen("notg")),
                             Seq(Gen("org"), Gen(FORK)))), sb),
           eval_rules(bel), 200,
           [("andg-tt-ff", (0, 1, 3)), ("notg-top", (0, 1)),
            ("org-ff-top", (0, 2, 3)), ("fork-top", (0, 1))])


@pytest.mark.parametrize("case", [*_rewrite_cases(), *_circuit_cases()],
                         ids=lambda case: case[0])
def test_normalize_steps_are_pinned(case):
    _, G, rules, max_steps, expected = case
    assert step_positions(G, rules, max_steps) == expected
