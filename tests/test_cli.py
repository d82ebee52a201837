import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import linhyp
from linhyp import (ParseError, RewriteError, TypeMismatch, extract_term,
                    interpret, isomorphic, load_graph,
                    parse_circuit_signature, parse_rules, parse_signature,
                    parse_term, render_term, save_graph, signature, to_dot)
from linhyp.circuits import LatticeError
from linhyp.cli import main
from linhyp.graphs import expand
from linhyp.terms import Gen, SignatureError
from oracles import feedback_ladder

SIG_TEXT = """\
f : 1 -> 1
g : 1 -> 2
join : 2 -> 1
copy : 1 -> 2
"""

LATTICE_TEXT = """\
values: bot top
bottom: bot
join: bot bot -> bot
join: bot top -> top
join: top bot -> top
join: top top -> top
gate org arity 2: bot bot -> bot
gate org arity 2: bot top -> top
gate org arity 2: top bot -> top
gate org arity 2: top top -> top
"""


@pytest.fixture
def files(tmp_path):
    sig = tmp_path / "circuit.sig"
    sig.write_text(SIG_TEXT)
    term = tmp_path / "example.term"
    term.write_text("tr 1 (join * f ; swap 1 1 ; copy * id 1)\n")
    lattice = tmp_path / "two.lattice"
    lattice.write_text(LATTICE_TEXT)
    return tmp_path


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_interpret_emits_canonical_json(files, capsys):
    term = files / "example.term"
    sig = files / "circuit.sig"
    code, out, _ = run(capsys, "interpret", str(term), "--sig", str(sig))
    assert code == 0
    H = load_graph(out)
    full_sig = signature({"f": (1, 1), "g": (1, 2), "join": (2, 1),
                          "copy": (1, 2)})
    expect = interpret(parse_term(term.read_text().strip(), full_sig),
                       full_sig)
    assert isomorphic(H, expect)
    # canonical renumbering makes the output stable
    code2, out2, _ = run(capsys, "interpret", str(term), "--sig", str(sig))
    assert out2 == out


def test_interpret_identity_zero(files, capsys, tmp_path):
    t = tmp_path / "empty.term"
    t.write_text("id 0")
    code, out, _ = run(capsys, "interpret", str(t), "--sig",
                       str(files / "circuit.sig"))
    assert code == 0
    data = json.loads(out)
    assert data["targets"] == [] and data["edges"] == []


def test_interpret_parse_error_exit_code(files, capsys, tmp_path):
    t = tmp_path / "bad.term"
    t.write_text("f ; ; g")
    code, _, err = run(capsys, "interpret", str(t), "--sig",
                       str(files / "circuit.sig"))
    assert code == 2
    assert "parse error" in err


def test_interpret_type_error_exit_code(files, capsys, tmp_path):
    t = tmp_path / "bad.term"
    t.write_text("g ; g")
    code, _, err = run(capsys, "interpret", str(t), "--sig",
                       str(files / "circuit.sig"))
    assert code == 3
    assert "type error" in err


def test_dot_export(files, capsys, tmp_path):
    dot = tmp_path / "out.dot"
    code, _, _ = run(capsys, "interpret", str(files / "example.term"),
                     "--sig", str(files / "circuit.sig"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert text.startswith("digraph")
    assert "shape=box" in text and "join" in text
    # regenerating is byte-stable
    first = text
    run(capsys, "interpret", str(files / "example.term"),
        "--sig", str(files / "circuit.sig"), "--dot", str(dot))
    assert dot.read_text() == first


def test_dot_export_escapes_quotes_and_backslashes(files, capsys, tmp_path):
    """A graph file may carry any string label; ``--dot`` escapes a quote
    or backslash in it, so the file stays valid DOT."""
    g = tmp_path / "odd.json"
    g.write_text(json.dumps({**_GOOD_GRAPH,
                             "edges": [{"id": 4, "label": 'a"b'}],
                             "vtlabels": {"0": "c\\d", "1": "c\\d"},
                             "vslabels": {"2": "c\\d", "3": "c\\d"}}))
    rules = tmp_path / "rules.txt"
    rules.write_text("squash : f ; f => f\n")
    dot = tmp_path / "odd.dot"
    code, out, _ = run(capsys, "rewrite", str(g), "--rules", str(rules),
                       "--sig", str(files / "circuit.sig"), "--dot", str(dot))
    assert code == 0
    text = dot.read_text()
    assert '[label="a\\"b", shape=box]' in text
    assert '[label="c\\\\d", shape=point]' in text
    assert text == to_dot(load_graph(out))


def test_extract_round_trip(files, capsys, tmp_path):
    term = files / "example.term"
    sig = files / "circuit.sig"
    code, out, _ = run(capsys, "interpret", str(term), "--sig", str(sig))
    gfile = tmp_path / "g.json"
    gfile.write_text(out)
    code, text, _ = run(capsys, "extract", str(gfile))
    assert code == 0
    full_sig = signature({"f": (1, 1), "g": (1, 2), "join": (2, 1),
                          "copy": (1, 2)})
    back = interpret(parse_term(text.strip(), full_sig), full_sig)
    assert isomorphic(back, load_graph(out))


def test_extract_with_explicit_order(files, capsys, tmp_path):
    sig = files / "circuit.sig"
    t = tmp_path / "pair.term"
    t.write_text("f * g")
    _, out, _ = run(capsys, "interpret", str(t), "--sig", str(sig))
    gfile = tmp_path / "g.json"
    gfile.write_text(out)
    H = load_graph(out)
    order = ",".join(str(e) for e in reversed(H.edges))
    code, text, _ = run(capsys, "extract", str(gfile), "--order", order)
    assert code == 0
    full_sig = signature({"f": (1, 1), "g": (1, 2)})
    assert isomorphic(interpret(parse_term(text.strip(), full_sig), full_sig),
                      H)


def test_extract_identity_graph(files, capsys, tmp_path):
    t = tmp_path / "wires.term"
    t.write_text("id 2")
    code, out, _ = run(capsys, "interpret", str(t), "--sig",
                       str(files / "circuit.sig"))
    gfile = tmp_path / "g.json"
    gfile.write_text(out)
    code, text, _ = run(capsys, "extract", str(gfile))
    full_sig = signature({"f": (1, 1)})
    assert isomorphic(interpret(parse_term(text.strip(), full_sig), full_sig),
                      interpret(parse_term("id 2", full_sig), full_sig))


def test_extract_malformed_graph_exit_code(capsys, tmp_path):
    # conn sends both targets to source 2 and never reaches source 3
    gfile = tmp_path / "bad.json"
    gfile.write_text(
        '{"targets":[0,1],"sources":[2,3],"edges":[],'
        '"left":{"0":"interface","1":"interface"},'
        '"right":{"2":"interface","3":"interface"},"conn":{"0":2,"1":2}}')
    code, out, err = run(capsys, "extract", str(gfile))
    assert code == 1 and out == ""
    assert err.startswith("error: malformed hypergraph: ")
    assert "not injective" in err and "Traceback" not in err


def test_extract_stray_key_exit_code(capsys, tmp_path):
    # "9" is not a target: left would name an edge the graph does not have
    gfile = tmp_path / "stray.json"
    gfile.write_text(
        '{"targets":[0,1],"sources":[2,3],"edges":[],'
        '"left":{"0":"interface","1":"interface","9":5},'
        '"right":{"2":"interface","3":"interface"},"conn":{"0":2,"1":3}}')
    code, out, err = run(capsys, "extract", str(gfile))
    assert code == 1 and out == ""
    assert err == ("error: malformed hypergraph: left has an entry for 9,"
                   " which is not a target of the graph\n")


_GOOD_GRAPH = {"targets": [0, 1], "sources": [2, 3],
               "edges": [{"id": 4, "label": "f"}],
               "left": {"0": "interface", "1": 4},
               "right": {"2": 4, "3": "interface"},
               "conn": {"0": 2, "1": 3}}


@pytest.mark.parametrize("key,value", [
    ("left", []), ("conn", [1]), ("vtlabels", [1]),
    ("edges", [{"id": 4, "label": [1]}]), ("edges", [{"id": 4, "label": 7}]),
    ("conn", {"0": 2.7, "1": 3}), ("targets", ["0", 1]),
    ("targets", [True, 1]), ("edges", [4]),
    ("left", {"00": "interface", "1": 4}),
])
def test_wrongly_typed_graph_file_is_malformed(capsys, tmp_path, key, value):
    text = json.dumps(dict(_GOOD_GRAPH, **{key: value}))
    load_graph(json.dumps(_GOOD_GRAPH))
    with pytest.raises(ValueError, match="not a graph file: "):
        load_graph(text)
    gfile = tmp_path / "bad.json"
    gfile.write_text(text)
    code, out, err = run(capsys, "extract", str(gfile))
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_null_wire_labels_are_not_a_graph_file(capsys, tmp_path):
    """null is no object label, even where every wire end agrees on it:
    such a file once loaded, and ``extract`` then failed in rendering."""
    text = json.dumps(dict(_GOOD_GRAPH, vtlabels={"0": None, "1": None},
                           vslabels={"2": None, "3": None}))
    gfile = tmp_path / "null.json"
    gfile.write_text(text)
    code, out, err = run(capsys, "extract", str(gfile))
    assert code == 1 and out == ""
    assert err == "error: not a graph file: vtlabels: None is not a string\n"


@pytest.mark.parametrize("command", ["extract", "iso"])
def test_deeply_nested_graph_file_is_malformed(capsys, tmp_path, command):
    """JSON nested deeper than the decoder's recursion limit is reported
    as a bad graph file, not as a RecursionError."""
    gfile = tmp_path / "deep.json"
    gfile.write_text("[" * 100_000)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_GOOD_GRAPH))
    argv = [str(gfile)] if command == "extract" else [str(good), str(gfile)]
    code, out, err = run(capsys, command, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: not a graph file") and "Traceback" not in err


@pytest.mark.parametrize("command,sig_text,lattice_text,message", [
    ("interpret", "f : 1 -> x\n", None, "line 1: bad word 'x'"),
    ("evaluate", None, "values: bot top\nbottom: bot\n",
     "join undefined on (bot, bot)"),
    ("evaluate", None, LATTICE_TEXT + "gate g arity x: bot -> bot\n",
     "line 11: expected 'gate NAME arity N: row'"),
    ("evaluate", None, LATTICE_TEXT + "gate org arity 2: top top -> bot\n",
     "line 11: gate org row top top given twice"),
    ("evaluate", None, LATTICE_TEXT + "bottom: top\n",
     "line 11: bottom: given twice"),
    ("evaluate", None, "values: bot bot\nbottom: bot\n",
     "duplicate value 'bot'"),
])
def test_bad_signature_or_lattice_file_exit_code(capsys, tmp_path, command,
                                                 sig_text, lattice_text,
                                                 message):
    term = tmp_path / "t.term"
    term.write_text("f")
    if sig_text is not None:
        (tmp_path / "bad.sig").write_text(sig_text)
        argv = ["--sig", str(tmp_path / "bad.sig")]
    else:
        (tmp_path / "bad.lattice").write_text(lattice_text)
        argv = ["--lattice", str(tmp_path / "bad.lattice")]
    code, out, err = run(capsys, command, str(term), *argv)
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("name", ["f g", "1x"])
def test_signature_name_the_grammar_cannot_spell_exit_code(capsys, tmp_path,
                                                           name):
    term = tmp_path / "t.term"
    term.write_text("f")
    (tmp_path / "bad.sig").write_text(f"f : 1 -> 1\n{name} : 1 -> 1\n")
    code, out, err = run(capsys, "interpret", str(term), "--sig",
                         str(tmp_path / "bad.sig"))
    assert code == 1 and out == ""
    assert err == (f"error: line 2: {name!r} is not a generator name (a"
                   " letter or '_', then letters, digits or '_')\n")


def test_extract_rejects_bad_order_entries(files, capsys, tmp_path):
    t = tmp_path / "pair.term"
    t.write_text("f * g")
    _, out, _ = run(capsys, "interpret", str(t), "--sig",
                    str(files / "circuit.sig"))
    gfile = tmp_path / "g.json"
    gfile.write_text(out)
    e0, e1 = load_graph(out).edges
    stray = max(e0, e1) + 1
    for order, message in [(f"{e0},x", "'x' is not an edge id"),
                           (f"{e0},", "'' is not an edge id"),
                           (f"{stray},{e1}",
                            f"'{stray}' is not an edge of the graph")]:
        code, text, err = run(capsys, "extract", str(gfile), "--order", order)
        assert code == 1 and text == ""
        assert err == f"error: --order: {message}\n"


def test_iso_command(files, capsys, tmp_path):
    sig = files / "circuit.sig"
    t1 = tmp_path / "a.term"
    t1.write_text("f * g ; id 1 * join")
    t2 = tmp_path / "b.term"
    t2.write_text("(f ; id 1) * g ; id 1 * join")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    _, out, _ = run(capsys, "interpret", str(t1), "--sig", str(sig))
    a.write_text(out)
    _, out, _ = run(capsys, "interpret", str(t2), "--sig", str(sig))
    b.write_text(out)
    code, out, _ = run(capsys, "iso", str(a), str(b))
    assert code == 0
    witness = json.loads(out)
    assert set(witness) == {"targets", "sources", "edges"}

    t3 = tmp_path / "c.term"
    t3.write_text("g * f ; id 1 * join")
    c = tmp_path / "c.json"
    _, out, _ = run(capsys, "interpret", str(t3), "--sig", str(sig))
    c.write_text(out)
    code, out, _ = run(capsys, "iso", str(a), str(c))
    assert code == 0 and "not isomorphic" in out


def test_rewrite_command_with_budget(files, capsys, tmp_path):
    sig = files / "circuit.sig"
    rules = tmp_path / "rules.txt"
    rules.write_text("squash : f ; f => f\n")
    t = tmp_path / "chain.term"
    t.write_text("f ; f ; f")
    g = tmp_path / "g.json"
    _, out, _ = run(capsys, "interpret", str(t), "--sig", str(sig))
    g.write_text(out)

    code, out, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                         "--sig", str(sig))
    assert code == 0
    assert err.count("rule squash") == 2
    full_sig = signature({"f": (1, 1)})
    assert isomorphic(load_graph(out),
                      interpret(parse_term("f", full_sig), full_sig))

    code, out, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                         "--sig", str(sig), "--steps", "1")
    assert code == 4
    assert "budget" in err
    assert err.count("rule squash") == 1
    assert isomorphic(load_graph(out),
                      interpret(parse_term("f ; f", full_sig), full_sig))

    # the normal form is reached on the last step allowed
    code, out, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                         "--sig", str(sig), "--steps", "2")
    assert code == 0
    assert "budget" not in err and err.count("rule squash") == 2
    assert isomorphic(load_graph(out),
                      interpret(parse_term("f", full_sig), full_sig))

    code, out, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                         "--sig", str(sig), "--steps", "-1")
    assert (code, out) == (1, "")
    assert err == "error: --steps must be 0 or more, not -1\n"


def test_rewrite_exhaustive_strategy(files, capsys, tmp_path):
    sig = files / "circuit.sig"
    rules = tmp_path / "rules.txt"
    rules.write_text("squash : f ; f => f\n")
    t = tmp_path / "chain.term"
    t.write_text("f ; f ; f")
    g = tmp_path / "g.json"
    _, out, _ = run(capsys, "interpret", str(t), "--sig", str(sig))
    g.write_text(out)
    full_sig = signature({"f": (1, 1)})

    code, out, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                         "--sig", str(sig), "--strategy", "exhaustive")
    assert code == 0 and err == ""  # no steps are listed
    assert isomorphic(load_graph(out),
                      interpret(parse_term("f", full_sig), full_sig))

    # out of budget before any normal form: the input comes back
    code, out2, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                          "--sig", str(sig), "--strategy", "exhaustive",
                          "--steps", "0")
    assert code == 4
    assert err == "step budget (0) exhausted\n"
    assert json.loads(out2) == json.loads(g.read_text())


def test_rewrite_a_graph_file_with_an_identity_edge(files, capsys, tmp_path):
    """A graph file may hold ``@id`` edges: ``f ; @id ; f`` is rewritten
    up to them, by either strategy."""
    sig = files / "circuit.sig"
    rules = tmp_path / "rules.txt"
    rules.write_text("squash : f ; f => f\n")
    full_sig = signature({"f": (1, 1)})
    G = interpret(parse_term("f ; f", full_sig), full_sig)
    g = tmp_path / "g.json"
    g.write_text(save_graph(expand(G, G.view.tgts[G.edges[0]][0])))
    assert '"@id"' in g.read_text()
    for strategy, err_lines in (("deterministic", 1), ("exhaustive", 0)):
        code, out, err = run(capsys, "rewrite", str(g), "--rules", str(rules),
                             "--sig", str(sig), "--strategy", strategy)
        assert code == 0 and err.count("rule squash") == err_lines
        assert save_graph(load_graph(out)) == save_graph(
            interpret(Gen("f"), full_sig))


@pytest.mark.parametrize("rule", ["idw : id 1 => id 1", "same : f => f",
                                  "turn : f ; f => f ; f"])
def test_rewrite_exhaustive_without_a_normal_form_is_an_error(
        files, capsys, tmp_path, rule):
    """Rules under which every rewrite sequence comes back to a graph
    already seen reach no normal form: nothing is written, one error line
    says why, and the exit code is that of a budget run out."""
    sig = files / "circuit.sig"
    rules = tmp_path / "rules.txt"
    rules.write_text(rule + "\n")
    t = tmp_path / "chain.term"
    t.write_text("f ; f")
    g = tmp_path / "g.json"
    _, out, _ = run(capsys, "interpret", str(t), "--sig", str(sig))
    g.write_text(out)
    dot = tmp_path / "g.dot"
    for budget in ([], ["--steps", "5"]):
        assert run(capsys, "rewrite", str(g), "--rules", str(rules), "--sig",
                   str(sig), "--strategy", "exhaustive", "--dot", str(dot),
                   *budget) == (
            4, "", "error: no normal form reached: every rewrite sequence"
            " returns to a graph already seen\n")
        assert not dot.exists()


def test_rewrite_rule_errors_name_their_line(files, capsys, tmp_path):
    """A rule file's errors name their line and keep their exit codes."""
    sig = files / "circuit.sig"
    g = tmp_path / "g.json"
    _, out, _ = run(capsys, "interpret", str(files / "example.term"),
                    "--sig", str(sig))
    g.write_text(out)
    rules = tmp_path / "rules.txt"
    for text, code, err in [
            ("ok : f => f\nbad : f => copy\n", 3,
             "type error: line 2: rule sides must share a type\n"),
            ("ok : f => f\nbad : f ; => f\n", 2, "parse error: line 2:"
             " unexpected end of input (at position 9)\n"),
            ("x : f => f\nx : f => f\n", 1,
             "error: line 2: duplicate rule name 'x'\n")]:
        rules.write_text(text)
        assert run(capsys, "rewrite", str(g), "--rules", str(rules),
                   "--sig", str(sig)) == (code, "", err)


def test_rewrite_empty_rules_is_identity(files, capsys, tmp_path):
    sig = files / "circuit.sig"
    rules = tmp_path / "rules.txt"
    rules.write_text("# nothing\n")
    g = tmp_path / "g.json"
    _, out, _ = run(capsys, "interpret", str(files / "example.term"),
                    "--sig", str(sig))
    g.write_text(out)
    code, out2, _ = run(capsys, "rewrite", str(g), "--rules", str(rules),
                        "--sig", str(sig))
    assert code == 0
    assert json.loads(out2) == json.loads(out)


def test_evaluate_command(files, capsys, tmp_path):
    t = tmp_path / "circ.term"
    t.write_text("org")
    code, out, _ = run(capsys, "evaluate", str(t), "--lattice",
                       str(files / "two.lattice"), "--inputs", "bot,top")
    assert code == 0 and out.strip() == "top"

    t2 = tmp_path / "stuck.term"
    t2.write_text("top ; delay")
    code, out, _ = run(capsys, "evaluate", str(t2), "--lattice",
                       str(files / "two.lattice"))
    assert code == 4 and out.strip() == "UNPRODUCTIVE"

    code, out, err = run(capsys, "evaluate", str(t), "--lattice",
                         str(files / "two.lattice"), "--inputs", "bot,top",
                         "--steps", "-1")
    assert (code, out) == (1, "")
    assert err == "error: --steps must be 0 or more, not -1\n"


@pytest.mark.parametrize("inputs,position", [
    ("bot,,top", 2), (",bot,top", 1), ("bot,top,", 3), (",", 1)])
def test_evaluate_refuses_an_empty_input_value(files, capsys, tmp_path,
                                               inputs, position):
    """A stray comma leaves an empty value, which is refused: dropping it
    ran the two-input ``org`` on ``bot,,top`` as if on ``bot,top``.  An
    empty or omitted ``--inputs`` still means no inputs."""
    t = tmp_path / "circ.term"
    t.write_text("org")
    lattice = str(files / "two.lattice")
    code, out, err = run(capsys, "evaluate", str(t), "--lattice", lattice,
                         "--inputs", inputs)
    assert (code, out) == (1, "")
    assert err == f"error: --inputs: empty value at position {position}\n"
    const = tmp_path / "const.term"
    const.write_text("top")
    for given in ((), ("--inputs", "")):
        assert run(capsys, "evaluate", str(const), "--lattice", lattice,
                   *given) == (0, "top\n", "")


def test_evaluate_a_long_feedback_ladder(files, capsys, tmp_path):
    """The 70-rung ladder of ``org ; fork`` has 69 cut wires and needs 70
    rounds; a fixed cap of 64 rounds printed ``UNPRODUCTIVE`` and exited
    4."""
    t = tmp_path / "ladder.term"
    t.write_text(render_term(extract_term(interpret(
        feedback_ladder(70), parse_circuit_signature(LATTICE_TEXT)
        .signature()))) + "\n")
    assert run(capsys, "evaluate", str(t), "--lattice",
               str(files / "two.lattice"), "--inputs", "bot,top") == (
        0, "top,top\n", "")


def test_evaluate_deep_chain(capsys, tmp_path):
    # a loop-free chain takes one round; cutting every wire would take 101
    lattice = tmp_path / "buf.lattice"
    lattice.write_text(LATTICE_TEXT + "gate buf arity 1: bot -> bot\n"
                       "gate buf arity 1: top -> top\n")
    chain = tmp_path / "chain.term"
    chain.write_text(" ; ".join(["buf"] * 100))
    code, out, _ = run(capsys, "evaluate", str(chain), "--lattice",
                       str(lattice), "--inputs", "top")
    assert code == 0 and out.strip() == "top"


def test_interpret_object_labelled_signature(capsys, tmp_path):
    sig = tmp_path / "objs.sig"
    sig.write_text("f : [A] -> [B]\ng : [B] -> [A]\nh : [B,A] -> [C,D]\n")
    term = tmp_path / "t.term"
    term.write_text("f * g ; h")
    code, out, _ = run(capsys, "interpret", str(term), "--sig", str(sig))
    assert code == 0
    H = load_graph(out)
    assert H.dom() == ("A", "B") and H.cod() == ("C", "D")


def test_axioms_check_table(capsys):
    code, out, _ = run(capsys, "axioms-check", "--count", "2", "--seed", "3")
    assert code == 0
    assert out.count("PASS") == 13
    assert "FAIL" not in out


# Mutated rule, signature and lattice texts: the parsers raise only their
# documented errors, and the CLI exits only with its documented codes
# ---------------------------------------------------------------------------

RULES_TEXT = """\
copy-nat : f ; copy => copy ; f * f
squash : f ; f => f  # a comment
loop : tr 1 (join ; copy) => id 1
cross : copy ; swap 1 1 => copy
"""

_TOKENS = [":", ";", "*", "=>", "->", "-", "(", ")", "[", "]", ",", "#",
           "\n", " ", "\t", "_", "0", "1", "2", "x", "A", "é", "f",
           "copy", "join", "tr", "id", "swap", "bot", "top", "org", "gate",
           "arity", "values:", "bottom:", "join:"]


@st.composite
def _mutated(draw, text: str) -> str:
    """``text`` after one to three drawn changes: a deleted span, an
    inserted or substituted token, or two lines swapped."""
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["delete", "insert", "replace", "swap"]))
        if op == "delete":
            text = text[:i] + text[i + draw(st.integers(1, 4)):]
        elif op == "insert":
            text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[i:]
        elif op == "replace":
            text = text[:i] + draw(st.sampled_from(_TOKENS)) + text[i + 1:]
        else:
            lines = text.split("\n")
            a, b = (draw(st.integers(0, len(lines) - 1)) for _ in range(2))
            lines[a], lines[b] = lines[b], lines[a]
            text = "\n".join(lines)
    return text


@given(_mutated(SIG_TEXT), _mutated(RULES_TEXT), _mutated(LATTICE_TEXT))
@settings(max_examples=150, deadline=None)
def test_mutated_texts_raise_only_the_parsers_errors(sig_text, rules_text,
                                                     lattice_text):
    good = parse_signature(SIG_TEXT)
    try:
        sig = parse_signature(sig_text)
    except SignatureError:
        sig = good
    for rules, s in ((rules_text, good), (RULES_TEXT, sig)):
        try:
            parse_rules(rules, s)
        except (RewriteError, ParseError, TypeMismatch):
            pass
    try:
        parse_circuit_signature(lattice_text)
    except LatticeError:
        pass


_PREFIX = {1: "error: ", 2: "parse error: ", 3: "type error: "}


@given(st.sampled_from(["interpret", "rewrite", "evaluate"]),
       _mutated(SIG_TEXT), _mutated(RULES_TEXT), _mutated(LATTICE_TEXT))
@settings(max_examples=60, deadline=None)
def test_mutated_input_files_give_documented_exit_codes(
        tmp_path_factory, command, sig_text, rules_text, lattice_text):
    d = tmp_path_factory.mktemp("mutated")
    (d / "c.sig").write_text(sig_text)
    (d / "rules.txt").write_text(rules_text)
    (d / "c.lattice").write_text(lattice_text)
    (d / "c.term").write_text("f ; copy ; join")
    (d / "l.term").write_text("tr 1 (org ; fork) * top ; org")
    H = interpret(parse_term("f ; f ; copy ; join", parse_signature(SIG_TEXT)),
                  parse_signature(SIG_TEXT))
    (d / "host.json").write_text(save_graph(H))
    argv = {"interpret": ["interpret", str(d / "c.term"), "--sig",
                          str(d / "c.sig")],
            "rewrite": ["rewrite", str(d / "host.json"), "--rules",
                        str(d / "rules.txt"), "--sig", str(d / "c.sig"),
                        "--steps", "20"],
            "evaluate": ["evaluate", str(d / "l.term"), "--lattice",
                         str(d / "c.lattice"), "--inputs", "bot",
                         "--steps", "200"]}[command]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    lines = err.getvalue().splitlines()
    if code in _PREFIX:
        assert out.getvalue() == "" and len(lines) == 1
        assert lines[0].startswith(_PREFIX[code])
    else:
        assert code in (0, 4)
        assert all(line.startswith("step ") for line in lines[:-1])


README = Path(__file__).resolve().parent.parent / "README.md"

# ``linhyp`` in the README's shell blocks runs this function: it runs
# the CLI module with the test's interpreter, passes its output on, and
# logs the exit code, the subcommand and the output's last line
_LINHYP = r'''
linhyp() {
  local out code
  out=$("$PY" -m linhyp.cli "$@"); code=$?
  printf '%s\n' "$out"
  printf '%s\t%s\t%s\n' "$code" "$1" "${out##*$'\n'}" >> "$LOG"
}
'''


def _cli_blocks() -> list[str]:
    """The ``sh`` blocks of the README's ``## CLI`` section."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"```sh\n(.*?)```", section, re.S)


def test_readme_cli_examples_run(tmp_path):
    """Every command of the README's CLI section runs, in a fresh
    directory, and exits 0; the ``evaluate`` example prints ``top``."""
    blocks = _cli_blocks()
    calls = sum(line.startswith("linhyp ")
                for block in blocks for line in block.splitlines())
    assert len(blocks) >= 2 and calls >= 6
    log = tmp_path / "codes.log"
    env = {**os.environ, "PY": sys.executable, "LOG": str(log),
           "PYTHONPATH": os.pathsep.join(
               [str(Path(linhyp.__file__).parent.parent),
                os.environ.get("PYTHONPATH", "")])}
    for block in blocks:
        done = subprocess.run(["bash", "-e", "-c", _LINHYP + block],
                              cwd=tmp_path, env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
    runs = [line.split("\t") for line in log.read_text().splitlines()]
    assert len(runs) == calls
    assert [code for code, _, _ in runs] == ["0"] * calls, runs
    assert [last for _, cmd, last in runs if cmd == "evaluate"] == ["top"]
