import json

import pytest

from linhyp import interpret, isomorphic, load_graph, parse_term, signature
from linhyp.cli import main

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


@pytest.mark.parametrize("command,sig_text,lattice_text,message", [
    ("interpret", "f : 1 -> x\n", None, "line 1: bad word 'x'"),
    ("evaluate", None, "values: bot top\nbottom: bot\n",
     "join undefined on (bot, bot)"),
    ("evaluate", None, LATTICE_TEXT + "gate g arity x: bot -> bot\n",
     "line 11: expected 'gate NAME arity N: row'"),
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


def test_evaluate_deep_chain(capsys, tmp_path):
    # cutting every wire would take 101 rounds, over the default 64
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
