import copy
import json
import random
import re
from dataclasses import replace

from hypothesis import example, given, settings, strategies as st

import pytest

from linhyp import (canonical, expand, freshen, interpret, isomorphic,
                    load_graph, normalize, parse_rules, parse_term, rename,
                    save_graph, signature, tensor, to_dot, validate)
from linhyp.graphs import LinearHypergraph, _report, _well_formed, next_id
from linhyp.laws import law_signature
from oracles import (graph_from_dict_per_entry, graph_to_dict, random_graph,
                     to_dot_of_canonical)

SIG = law_signature()
GSIG = signature({"f": ("A", "B"), "g": ("B", "A"),
                  "h": (("B", "A"), ("C", "D"))})

graphs = st.builds(
    lambda seed: random_graph(random.Random(seed), SIG),
    st.integers(0, 10**9))


@given(graphs)
@settings(max_examples=50, deadline=None)
def test_json_round_trip_is_canonical(H):
    assert load_graph(save_graph(H)) == canonical(H)


@given(graphs)
@settings(max_examples=30, deadline=None)
def test_save_is_stable_under_renaming(H):
    assert save_graph(H) == save_graph(freshen(H))


def _shuffled(H, rng):
    """``H`` with its stored targets, sources and edges in another order;
    each edge's ports and each interface keep their own order."""
    def merge(groups):
        groups = [list(g) for g in groups.values()]
        out = []
        while groups:
            g = rng.choice(groups)
            out.append(g.pop(0))
            if not g:
                groups.remove(g)
        return tuple(out)

    by_left, by_right = {}, {}
    for v in H.targets:
        by_left.setdefault(H.left[v], []).append(v)
    for v in H.sources:
        by_right.setdefault(H.right[v], []).append(v)
    edges = list(H.edges)
    rng.shuffle(edges)
    return freshen(LinearHypergraph(
        merge(by_left), merge(by_right), tuple(edges), H.left, H.right,
        H.conn, H.labels, H.vtlabels, H.vslabels))


@given(graphs, st.integers(0, 10**9))
@settings(max_examples=60, deadline=None)
def test_save_is_byte_equal_for_isomorphic_graphs(H, seed):
    G = _shuffled(H, random.Random(seed))
    assert isomorphic(H, G)
    assert save_graph(G) == save_graph(H)
    assert to_dot(G) == to_dot(H)


def test_save_raises_on_duplicate_edge_ids():
    H = interpret(parse_term("f ; f", SIG), SIG)
    e = H.edges[0]
    merged = LinearHypergraph(
        H.targets, H.sources, (e, e),
        {v: e if d is not None else d for v, d in H.left.items()},
        {v: e if d is not None else d for v, d in H.right.items()},
        H.conn, {e: "f"}, H.vtlabels, H.vslabels)
    with pytest.raises(ValueError):
        save_graph(merged)


def test_loaded_ids_stay_clear_of_fresh_ids():
    """A file whose ids lie just above the in-memory graph's rewrites as
    that graph does: steps number new ids above the host's own."""
    sig = signature({"f": (1, 1)})
    rules = parse_rules("ff : f ; f => f", sig)
    H = interpret(parse_term("f ; f ; f ; f ; f ; f", sig), sig)
    start = next_id(H) + 1
    # edges first, so ids counted from the file's least id would name
    # live edges
    ids = list(H.edges) + list(H.targets) + list(H.sources)
    raw = rename(H, {x: start + i for i, x in enumerate(ids)})
    loaded = load_graph(save_graph(raw, canonicalize=False))
    assert loaded == raw
    got = normalize(loaded, rules)
    want = normalize(H, rules)
    assert len(got.steps) == len(want.steps) == 5
    assert validate(got.graph) == []
    assert save_graph(got.graph) == save_graph(want.graph)


def test_json_keeps_vertex_labels(gsig):
    H = interpret(parse_term("f * g ; h", gsig), gsig)
    data = json.loads(save_graph(H))
    assert "vtlabels" in data and "vslabels" in data
    back = load_graph(save_graph(H))
    assert back.dom() == ("A", "B") and back.cod() == ("C", "D")
    assert isomorphic(back, H)
    assert "vtlabels" in save_graph(_ODD[1])


def test_json_omits_labels_for_plain_graphs():
    H = random_graph(random.Random(5), SIG)
    data = json.loads(save_graph(H))
    assert "vtlabels" not in data


def test_raw_save_preserves_ids():
    H = random_graph(random.Random(6), SIG)
    assert load_graph(save_graph(H, canonicalize=False)) == H


def _odd_graphs() -> list[LinearHypergraph]:
    """Graphs whose files test the writer's quoting and number layout:
    labels with quotes, backslashes, control and non-ASCII characters,
    negative ids and the empty graph."""
    H = interpret(parse_term("f * g ; h", GSIG), GSIG)
    odd = {"A": 'A"\\é', "B": "\\", "C": "ĉ ☃", "D": "d\n\t"}
    quoted = replace(
        H, labels={e: lab for e, lab in zip(H.edges, ['"f"', "g\\", "hé"])},
        vtlabels={v: odd[x] for v, x in H.vtlabels.items()},
        vslabels={v: odd[x] for v, x in H.vslabels.items()})
    ids = H.targets + H.sources + H.edges
    return [H, quoted, rename(quoted, {x: -1 - x for x in ids}),
            LinearHypergraph((), (), (), {}, {}, {}, {})]


@st.composite
def _written_graphs(draw) -> LinearHypergraph:
    """Random graphs, some with drawn text for edge and wire labels, some
    on negative ids."""
    H = draw(graphs)
    if draw(st.booleans()):
        H = replace(H, labels={e: draw(st.text(max_size=3)) for e in H.edges})
    if draw(st.booleans()):
        lab = draw(st.text(max_size=3))
        H = replace(H, vtlabels=dict.fromkeys(H.targets, lab),
                    vslabels=dict.fromkeys(H.sources, lab))
    if draw(st.booleans()):
        ids = H.targets + H.sources + H.edges
        H = rename(H, {x: -1 - x for x in ids})
    return H


_ODD = _odd_graphs()


@given(_written_graphs())
@example(_ODD[0])
@example(_ODD[1])
@example(_ODD[2])
@example(_ODD[3])
@settings(max_examples=100, deadline=None)
def test_save_writes_the_bytes_of_the_json_encoder(G):
    for canonicalize in (True, False):
        want = json.dumps(graph_to_dict(canonical(G) if canonicalize else G),
                          indent=2) + "\n"
        assert save_graph(G, canonicalize) == want


def test_dot_mentions_every_edge_and_interface(gsig):
    H = interpret(parse_term("f * g ; h", gsig), gsig)
    dot = to_dot(H)
    assert dot.startswith("digraph")
    for label in ("f", "g", "h", "IN", "OUT"):
        assert label in dot
    assert to_dot(freshen(H)) == dot


#: A graph file whose edge and wire labels no signature allows.
_ODD_LABELS = json.dumps({
    "targets": [0, 1], "sources": [2, 3],
    "edges": [{"id": 4, "label": 'a"b'}],
    "left": {"0": "interface", "1": 4}, "right": {"2": 4, "3": "interface"},
    "conn": {"0": 2, "1": 3},
    "vtlabels": {"0": "c\\d", "1": "c\\d"},
    "vslabels": {"2": "c\\d", "3": "c\\d"}})

_DOT_STRING = r'"((?:[^"\\]|\\.)*)"'


def _dot_labels(dot: str) -> set[str]:
    """The labels a DOT reader takes from ``dot``'s quoted strings; fails
    on a line whose quotes do not pair up."""
    for line in dot.splitlines():
        assert '"' not in re.sub(_DOT_STRING, "", line), line
    return {re.sub(r"\\(.)", r"\1", body)
            for body in re.findall("label=" + _DOT_STRING, dot)}


def test_dot_escapes_quotes_and_backslashes_in_labels():
    """A loaded graph may carry any string label: a quote or backslash
    in an edge or wire label is escaped, so DOT reads the label back,
    and the labels a signature allows keep their bytes."""
    dot = to_dot(load_graph(_ODD_LABELS))
    assert '[label="a\\"b", shape=box]' in dot
    assert '[label="c\\\\d", shape=point]' in dot
    assert _dot_labels(dot) == {"in", "out", 'a"b', "c\\d"}
    plain = to_dot(interpret(parse_term("f ; g", GSIG), GSIG))
    assert '[label="f", shape=box]' in plain
    assert '[label="B", shape=point]' in plain
    assert _dot_labels(plain) == {"in", "out", "f", "g", "A", "B"}


def test_dot_marks_identity_edges_grey():
    H = interpret(parse_term("f", SIG), SIG)
    grown = expand(H, H.targets[0])
    assert "diamond" in to_dot(grown)


_LOOPS = [interpret(parse_term(t, SIG), SIG)
          for t in ("tr 1 (f)", "tr 1 (f ; f) * tr 1 (f)",
                    "tr 2 (h ; swap 1 1)", "tr 1 (g ; k) * f")]


@st.composite
def _drawn_graphs(draw) -> LinearHypergraph:
    """Random graphs, some beside interface-free loops, some with an
    identity edge, some with labelled wires."""
    H = draw(graphs)
    if draw(st.booleans()):
        H = tensor(draw(st.sampled_from(_LOOPS)), H)
    if H.targets and draw(st.booleans()):
        H = expand(H, draw(st.sampled_from(H.targets)))
    if draw(st.booleans()):
        lab = draw(st.sampled_from(["A", "wire", 'q"\\']))
        H = replace(H, vtlabels=dict.fromkeys(H.targets, lab),
                    vslabels=dict.fromkeys(H.sources, lab))
    return H


@given(_drawn_graphs())
@settings(max_examples=100, deadline=None)
def test_dot_is_drawn_as_from_the_canonical_copy(H):
    assert to_dot(H) == to_dot_of_canonical(H)


@pytest.mark.parametrize("name", ["left", "conn", "vtlabels"])
def test_key_of_more_digits_than_int_converts_is_a_bad_key(name):
    H = interpret(parse_term("f * g ; h", GSIG), GSIG)
    data = json.loads(save_graph(H))
    table = data[name]
    table["1" * 5000] = table.pop(next(iter(table)))
    text = json.dumps(data)
    want = (ValueError, f"not a graph file: {name}: a key is not an integer id")
    assert _outcome(load_graph, text) == want
    assert _outcome(_load_per_entry, text) == want


# Files mutated from saved graphs: the bulk loader against the per-entry
# path it replaced
# ---------------------------------------------------------------------------

_ODD_KEYS = ["007", "-0", " 3", "3 ", "1_0", "00", "+1", "\u0663", "-", "",
             "x", "1.0", "--1"]
_ODD_VALUES = [True, False, 1.5, 2.0, None, "x", "interface", "", [], {},
               [1], {"id": 1}]
_EDGE_LABELS = ["f", "g", "h", "z", "q", "@id", "", 7, None]
_OPS = ["drop", "duplicate", "retarget", "rekey", "retype", "retype", "copy",
        "edge", "wire"]


def _mutate(draw, data: dict, ids: list) -> None:
    """One drawn change to one entry of a parsed graph file: a dropped,
    duplicated, retargeted or renamed key or element, a value of the
    wrong JSON type, a value copied from another entry (a ``conn`` that
    is no bijection), a bad edge id or label, or a changed wire label.
    A change that does not fit what earlier changes left does nothing."""
    key = draw(st.sampled_from(sorted(data)))
    x = data[key]
    op = draw(st.sampled_from(_OPS))
    some_id = draw(st.sampled_from(ids))
    whole = draw(st.integers(0, 3)) == 0  # the key's whole value, or one entry
    if op == "drop":
        if x and type(x) in (list, dict) and not whole:
            if type(x) is list:
                del x[draw(st.integers(0, len(x) - 1))]
            else:
                del x[draw(st.sampled_from(list(x)))]
        else:
            del data[key]
    elif op == "duplicate" and x and type(x) in (list, dict):
        if type(x) is list:
            i = draw(st.integers(0, len(x) - 1))
            x.insert(draw(st.integers(0, len(x))), copy.deepcopy(x[i]))
        else:
            x[str(some_id)] = x[draw(st.sampled_from(list(x)))]
    elif op == "retarget" and x and type(x) in (list, dict):
        if type(x) is list:
            x[draw(st.integers(0, len(x) - 1))] = some_id
        else:
            x[draw(st.sampled_from(list(x)))] = draw(
                st.sampled_from([some_id, "interface"]))
    elif op == "rekey" and x and type(x) is dict:
        value = x.pop(draw(st.sampled_from(list(x))))
        x[draw(st.sampled_from(_ODD_KEYS + [str(some_id)]))] = value
    elif op == "retype":
        odd = copy.deepcopy(draw(st.sampled_from(_ODD_VALUES)))
        if x and type(x) is list and not whole:
            x[draw(st.integers(0, len(x) - 1))] = odd
        elif x and type(x) is dict and not whole:
            x[draw(st.sampled_from(list(x)))] = odd
        else:
            data[key] = odd
    elif op == "copy" and type(x) is dict and len(x) > 1:
        a, b = draw(st.lists(st.sampled_from(list(x)), min_size=2,
                             max_size=2, unique=True))
        x[a] = x[b]
    elif op == "edge" and type(data.get("edges")) is list and data["edges"]:
        e = draw(st.sampled_from(data["edges"]))
        if type(e) is dict:
            field = draw(st.sampled_from(["id", "label"]))
            if draw(st.booleans()):
                e.pop(field, None)
            elif field == "id":
                e["id"] = draw(st.sampled_from([some_id, "1", 1.0, True]))
            else:
                e["label"] = draw(st.sampled_from(_EDGE_LABELS))
    elif op == "wire":
        for name in ("vtlabels", "vslabels"):
            if type(data.get(name)) is dict and data[name]:
                data[name][draw(st.sampled_from(list(data[name])))] = "B"


@st.composite
def _mutated_files(draw) -> str:
    """The text of a saved random graph, some with an identity edge or
    labelled wires, after one to three drawn changes."""
    H = draw(graphs)
    if H.targets and draw(st.booleans()):
        H = expand(H, draw(st.sampled_from(H.targets)))
    if draw(st.booleans()):
        lab = draw(st.sampled_from(["A", 'a"\\\u00e9']))
        H = replace(H, vtlabels=dict.fromkeys(H.targets, lab),
                    vslabels=dict.fromkeys(H.sources, lab))
    data = json.loads(save_graph(H, draw(st.booleans())))
    ids = [*data["targets"], *data["sources"],
           *(e["id"] for e in data["edges"])]
    ids += [max(ids, default=0) + 1, -1]
    for _ in range(draw(st.integers(1, 3))):
        if data:
            _mutate(draw, data, ids)
    return json.dumps(data)


def _load_per_entry(text: str) -> LinearHypergraph:
    """``load_graph`` as the per-entry decoder and the per-element
    report word it."""
    H = graph_from_dict_per_entry(json.loads(text))
    report = _report(H, None)
    if report:
        raise ValueError("malformed hypergraph: " + "; ".join(report))
    return H


def _outcome(fn, text: str):
    try:
        return fn(text)
    except Exception as exc:  # compared by type and text
        return type(exc), str(exc)


@given(_mutated_files())
@settings(max_examples=400, deadline=None)
def test_load_accepts_and_words_errors_as_the_per_entry_path(text):
    assert _outcome(load_graph, text) == _outcome(_load_per_entry, text)


def test_each_odd_key_and_value_is_worded_as_the_per_entry_path():
    """Every odd key and every odd value in every place of a labelled
    graph file with an identity edge, one at a time."""
    H = interpret(parse_term("f * g ; h", GSIG), GSIG)
    good = json.loads(save_graph(expand(H, H.targets[0])))
    changes = []  # (list or table, entry or None for the whole, change)
    for name, x in good.items():
        changes += [(name, None, odd) for odd in _ODD_VALUES]
        for at in (x if type(x) is dict else range(len(x))):
            changes += [(name, at, odd) for odd in _ODD_VALUES]
            if type(x) is dict:  # the entry moved to an odd key
                changes += [(name, at, ("key", odd)) for odd in _ODD_KEYS]
    for name, at, odd in changes:
        data = copy.deepcopy(good)
        if at is None:
            data[name] = odd
        elif type(odd) is tuple:
            data[name][odd[1]] = data[name].pop(at)
        elif name == "edges":
            data[name][at]["id"] = odd
        else:
            data[name][at] = odd
        text = json.dumps(data)
        assert _outcome(load_graph, text) == _outcome(_load_per_entry,
                                                     text), text
    assert len(changes) > 500


@given(_mutated_files())
@settings(max_examples=400, deadline=None)
def test_bulk_validation_accepts_exactly_the_graphs_with_no_report(text):
    try:
        H = graph_from_dict_per_entry(json.loads(text))
    except ValueError:
        return
    for sig in (None, SIG):
        report = _report(H, sig)
        assert _well_formed(H, sig) == (report == [])


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        load_graph("not json at all")
    with pytest.raises(ValueError):
        load_graph('{"targets": [0]}')
    non_injective = json.dumps({
        "targets": [0, 1], "sources": [2, 3], "edges": [],
        "left": {"0": "interface", "1": "interface"},
        "right": {"2": "interface", "3": "interface"},
        "conn": {"0": 2, "1": 2}})
    with pytest.raises(ValueError,
                       match="malformed hypergraph: .*not injective"):
        load_graph(non_injective)



def test_load_rejects_stray_keys():
    good = {"targets": [0, 1], "sources": [2, 3], "edges": [],
            "left": {"0": "interface", "1": "interface"},
            "right": {"2": "interface", "3": "interface"},
            "conn": {"0": 2, "1": 3}}
    load_graph(json.dumps(good))
    strays = [("left", "9", 5, "left has an entry for 9, which is not a target"),
              ("conn", "2", 3, "conn has an entry for 2, which is not a target"),
              ("right", "0", "interface",
               "right has an entry for 0, which is not a source")]
    for table, key, value, message in strays:
        bad = json.loads(json.dumps(good))
        bad[table][key] = value
        with pytest.raises(ValueError, match="malformed hypergraph: .*" + message):
            load_graph(json.dumps(bad))
    labelled = dict(good, vtlabels={"0": "A", "1": "A", "7": "A"},
                    vslabels={"2": "A", "3": "A", "8": "A"})
    with pytest.raises(ValueError) as err:
        load_graph(json.dumps(labelled))
    assert "vtlabels has an entry for 7, which is not a target" in str(err.value)
    assert "vslabels has an entry for 8, which is not a source" in str(err.value)


@given(graphs)
@settings(max_examples=30, deadline=None)
def test_canonical_invariant_under_renaming(H):
    assert canonical(freshen(H)) == canonical(H)
