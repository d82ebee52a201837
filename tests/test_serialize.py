import json
import random
from dataclasses import replace

from hypothesis import given, settings, strategies as st

import pytest

from linhyp import (canonical, expand, freshen, interpret, isomorphic,
                    load_graph, normalize, parse_rules, parse_term, rename,
                    save_graph, signature, to_dot, validate)
from linhyp.graphs import LinearHypergraph, fresh_ids
from linhyp.serialize import graph_to_dict
from linhyp.laws import law_signature
from oracles import random_graph

SIG = law_signature()

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
    """A file whose ids lie just above the fresh-id supply rewrites as it
    does in memory: loading moves the supply past the file's ids."""
    sig = signature({"f": (1, 1)})
    rules = parse_rules("ff : f ; f => f", sig)
    H = interpret(parse_term("f ; f ; f ; f ; f ; f", sig), sig)
    start = fresh_ids(1)[0] + 1
    # edges first, so the first fresh ids would name live edges
    ids = list(H.edges) + list(H.targets) + list(H.sources)
    raw = rename(H, {x: start + i for i, x in enumerate(ids)})
    loaded = load_graph(save_graph(raw, canonicalize=False))
    assert loaded == raw
    assert fresh_ids(1)[0] >= start + len(ids)
    got = normalize(loaded, rules)  # first, while the supply is still low
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


def test_json_omits_labels_for_plain_graphs():
    H = random_graph(random.Random(5), SIG)
    data = json.loads(save_graph(H))
    assert "vtlabels" not in data


def test_raw_save_preserves_ids():
    H = random_graph(random.Random(6), SIG)
    assert load_graph(save_graph(H, canonicalize=False)) == H


def test_save_writes_the_bytes_of_the_json_encoder(gsig):
    def by_encoder(H, canonicalize):
        G = canonical(H) if canonicalize else H
        return json.dumps(graph_to_dict(G), indent=2) + "\n"

    H = interpret(parse_term("f * g ; h", gsig), gsig)
    odd = {"A": 'A"\\é', "B": "\\", "C": "ĉ ☃", "D": "d\n\t"}
    quoted = replace(
        H, labels={e: lab for e, lab in zip(H.edges, ['"f"', "g\\", "hé"])},
        vtlabels={v: odd[x] for v, x in H.vtlabels.items()},
        vslabels={v: odd[x] for v, x in H.vslabels.items()})
    ids = H.targets + H.sources + H.edges
    graphs = [H, quoted, rename(quoted, {x: -1 - x for x in ids}),
              LinearHypergraph((), (), (), {}, {}, {}, {})]
    graphs += [random_graph(random.Random(seed), SIG) for seed in range(60)]
    for G in graphs:
        for canonicalize in (True, False):
            assert save_graph(G, canonicalize) == by_encoder(G, canonicalize)
    assert "vtlabels" in save_graph(quoted)


def test_dot_mentions_every_edge_and_interface(gsig):
    H = interpret(parse_term("f * g ; h", gsig), gsig)
    dot = to_dot(H)
    assert dot.startswith("digraph")
    for label in ("f", "g", "h", "IN", "OUT"):
        assert label in dot
    assert to_dot(freshen(H)) == dot


def test_dot_marks_identity_edges_grey():
    H = interpret(parse_term("f", SIG), SIG)
    grown = expand(H, H.targets[0])
    assert "diamond" in to_dot(grown)


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
