"""Ids belong to each graph.

An id need only be distinct within its own graph, so a graph may come
with any ids: built by hand, renamed or loaded.  Every operation that
adds elements to a graph numbers them above the graph's own ids, so its
result is well formed whatever those ids are, and does not depend on
what ran earlier in the process.

CI runs these tests first, in a process of their own (``pytest -k
ids``): a design that draws ids from anything shared shows its
collisions most readily there.
"""
import random

import pytest

from linhyp import (INTERFACE, LinearHypergraph, apply_rewrite, evaluate,
                    expand, find_matchings, identity, interpret, isomorphic,
                    normal_forms, normalize, parse_rules, parse_term, rename,
                    save_graph, signature, smooth, validate)
from linhyp.circuits import parse_circuit_signature
from linhyp.cli import main
from oracles import apply_by_pushouts, id_source

SIG = signature({"f": (1, 1), "g": (1, 1)})

LATTICE = """\
values: bot top
bottom: bot
join: bot bot -> bot
join: bot top -> top
join: top bot -> top
join: top top -> top
gate buf arity 1: bot -> bot
gate buf arity 1: top -> top
"""


def _constructor_ids_end() -> int:
    """One more than the largest id of a graph the constructors build
    now: a graph on ids from here on sits right where ids drawn without
    looking at it would land."""
    I = identity(1)
    return max(I.targets + I.sources) + 1


def _one_edge(label: str, at: int) -> LinearHypergraph:
    """A single ``label : 1 -> 1`` edge, written out on ids ``at`` to
    ``at + 4``."""
    take = id_source(at)
    t_in, t_out, s_in, s_out, e = take(5)
    return LinearHypergraph(
        targets=(t_in, t_out), sources=(s_in, s_out), edges=(e,),
        left={t_in: INTERFACE, t_out: e}, right={s_in: e, s_out: INTERFACE},
        conn={t_in: s_in, t_out: s_out}, labels={e: label})


def test_renamed_hosts_normalize_alike_whatever_their_ids():
    rules = parse_rules("sq : f ; f => g", SIG)
    H = interpret(parse_term("f ; f ; f ; f", SIG), SIG)
    want = save_graph(normalize(H, rules).graph)
    ids = H.targets + H.sources + H.edges
    for seed in range(200):
        start = _constructor_ids_end()
        new = random.Random(seed).sample(range(start, start + len(ids)),
                                         len(ids))
        got = normalize(rename(H, dict(zip(ids, new))), rules)
        assert validate(got.graph, SIG) == [], seed
        assert len(got.steps) == 2, seed
        assert save_graph(got.graph) == want, seed


@pytest.mark.parametrize("low", [True, False], ids=["ids_0_to_4",
                                                    "ids_above_constructors"])
def test_literal_graph_gets_valid_results_from_every_operation(low):
    def literal(label: str = "f") -> LinearHypergraph:
        # made anew for each operation, so that "above the constructors"
        # is where the operation's own new ids would land
        return _one_edge(label, 0 if low else _constructor_ids_end())

    f = save_graph(interpret(parse_term("f", SIG), SIG))
    assert validate(literal(), SIG) == []
    assert save_graph(literal()) == f  # the literal graph is the generator

    for i in range(2):
        G = literal()
        grown = expand(G, G.targets[i])
        assert validate(grown, SIG) == []
        twice = expand(grown, grown.targets[-1])
        assert validate(twice, SIG) == []
        assert save_graph(smooth(twice)) == f

    # ``wrap`` needs no identity edge in the host; ``ins`` has one in its
    # left side, so each match expands the host
    rules = parse_rules("wrap : f => g ; f ; g\nins : id 1 => g", SIG)
    for rule in rules:
        G = literal()
        matches = find_matchings(rule.L, G)
        assert matches
        for m in matches:
            assert validate(m.dst, SIG) == []
            assert m.is_embedding()
            assert validate(apply_rewrite(rule, m), SIG) == []
            assert validate(apply_by_pushouts(rule, m), SIG) == []
            assert isomorphic(apply_rewrite(rule, m),
                              apply_by_pushouts(rule, m))

    # ``wrap`` never stops: each step matches the f the last one made
    result = normalize(literal(), rules[:1], max_steps=3)
    assert result.exhausted and len(result.steps) == 3
    assert validate(result.graph, SIG) == []
    assert save_graph(result.graph) == save_graph(
        interpret(parse_term("g ; g ; g ; f ; g ; g ; g", SIG), SIG))

    nfs, exhausted = normal_forms(
        literal(), parse_rules("a : f => g ; g\nb : g => id 1", SIG))
    assert not exhausted and len(nfs) == 1
    assert validate(nfs[0], SIG) == []
    assert save_graph(nfs[0]) == save_graph(identity(1))

    csig = parse_circuit_signature(LATTICE)
    for v in ("bot", "top"):
        buf = literal("buf")
        assert validate(buf, csig.signature()) == []
        assert evaluate(buf, (v,), csig) == (v,)


def _rewrite(capsys, tmp_path):
    """The step lines and the ``--raw-ids`` file of one CLI rewrite."""
    sig = tmp_path / "fg.sig"
    sig.write_text("f : 1 -> 1\ng : 1 -> 1\n")
    rules = tmp_path / "rules.txt"
    rules.write_text("sq : f ; f => g\nwrap : g => f ; g\n")
    host = tmp_path / "host.json"
    H = interpret(parse_term("f ; f ; f ; f", SIG), SIG)
    host.write_text(save_graph(H, canonicalize=False))
    code = main(["rewrite", str(host), "--rules", str(rules), "--sig",
                 str(sig), "--steps", "5", "--raw-ids"])
    out, err = capsys.readouterr()
    return code, err, out


def test_rewrite_step_ids_and_raw_ids_do_not_depend_on_earlier_work(
        capsys, tmp_path):
    first = _rewrite(capsys, tmp_path)
    code, err, out = first
    assert code == 4
    # the host's ids run to 19, so the steps' edges are numbered from 20
    assert err.splitlines() == ["step 1: rule sq at edges [4, 9]",
                                "step 2: rule sq at edges [14, 19]",
                                "step 3: rule wrap at edges [20]",
                                "step 4: rule wrap at edges [21]",
                                "step 5: rule wrap at edges [25]",
                                "step budget (5) exhausted"]
    # work that builds, loads and rewrites other graphs
    big = interpret(parse_term(" ; ".join(["f"] * 300), SIG), SIG)
    normalize(big, parse_rules("sq : f ; f => g", SIG))
    normal_forms(_one_edge("f", 40), parse_rules("a : f => g ; g", SIG))
    assert _rewrite(capsys, tmp_path) == first
