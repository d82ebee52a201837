"""Graph file formats: a canonical JSON schema and DOT export."""
from __future__ import annotations

import json

from .graphs import (IDENTITY_LABEL, INTERFACE, LinearHypergraph, assert_valid,
                     canonical, reserve_ids)
from .terms import ANON


def graph_to_dict(H: LinearHypergraph) -> dict:
    def side(x: int | None):
        return "interface" if x is INTERFACE else x

    data: dict = {
        "targets": list(H.targets),
        "sources": list(H.sources),
        "edges": [{"id": e, "label": H.labels[e]} for e in H.edges],
        "left": {str(v): side(H.left[v]) for v in H.targets},
        "right": {str(v): side(H.right[v]) for v in H.sources},
        "conn": {str(t): H.conn[t] for t in H.targets},
    }
    if any(l != ANON for l in H.vtlabels.values()):
        data["vtlabels"] = {str(v): H.vtlabels[v] for v in H.targets}
        data["vslabels"] = {str(v): H.vslabels[v] for v in H.sources}
    return data


_KINDS = {int: "an integer id", str: "a string", list: "an array",
          dict: "an object"}


def graph_from_dict(data: dict) -> LinearHypergraph:
    """The graph of a parsed graph file.  The JSON types are checked: the
    tables are objects, the id lists arrays, every id a JSON integer and
    every label a string; anything else raises ``ValueError("not a graph
    file: …")``.  Well-formedness is left to ``validate``."""
    def bad(what: str) -> ValueError:
        return ValueError(f"not a graph file: {what}")

    def check(xs: list, kind: type, where: str) -> list:
        # exact types: a bool is an int in Python and a float would
        # truncate, so neither passes as an id
        if set(map(type, xs)) - {kind}:
            x = next(x for x in xs if type(x) is not kind)
            raise bad(f"{where}: {x!r} is not {_KINDS[kind]}")
        return xs

    def get(name: str, kind: type, optional: bool = False):
        if name not in data and not optional:
            raise bad(f"no {name!r}")
        return check([data.get(name, kind())], kind, name)[0]

    def table(name: str, kind: type, optional: bool = False,
              sides: bool = False) -> dict:
        d = get(name, dict, optional)
        # JSON keys are strings; an id key is an integer written plainly
        keys = [int(k) if k.removeprefix("-").isdecimal() else k for k in d]
        if list(map(str, check(keys, int, name))) != list(d):
            raise bad(f"{name}: a key is not an integer id")
        values = list(d.values())
        if sides:  # "interface" or an edge id
            values = [INTERFACE if v == "interface" else v for v in values]
        check([v for v in values if v is not INTERFACE], kind, name)
        return dict(zip(keys, values))

    check([data], dict, "the file")
    edges = check(get("edges", list), dict, "edges")
    if not all("id" in e and "label" in e for e in edges):
        raise bad("an edge lacks its id or label")
    edge_ids = check([e["id"] for e in edges], int, "edges")
    return LinearHypergraph(
        targets=tuple(check(get("targets", list), int, "targets")),
        sources=tuple(check(get("sources", list), int, "sources")),
        edges=tuple(edge_ids),
        left=table("left", int, sides=True),
        right=table("right", int, sides=True),
        conn=table("conn", int),
        labels=dict(zip(edge_ids, check([e["label"] for e in edges], str,
                                        "edges"))),
        # empty tables mean unlabelled wires
        vtlabels=table("vtlabels", str, optional=True),
        vslabels=table("vslabels", str, optional=True),
    )


def _dumps(data: dict) -> str:
    """``json.dumps(data, indent=2)`` for a dict of :func:`graph_to_dict`,
    written directly: ``indent`` forces the pure-Python encoder.  Ids and
    table keys are integers; a label is quoted by ``json.dumps`` of the
    one string, which takes the C path."""
    def block(items: list[str], pad: str, brackets: str) -> str:
        if not items:
            return brackets
        sep = f",\n{pad}  "
        return f"{brackets[0]}\n{pad}  {sep.join(items)}\n{pad}{brackets[1]}"

    parts = []
    for key, x in data.items():
        if key == "edges":
            text = block([f'{{\n      "id": {e["id"]},\n      "label": '
                          f'{json.dumps(e["label"])}\n    }}' for e in x],
                         "  ", "[]")
        elif type(x) is list:
            text = block(list(map(str, x)), "  ", "[]")
        else:  # an int, "interface" or a label per id
            text = block([f'"{k}": {v}' if type(v) is int
                          else f'"{k}": {json.dumps(v)}'
                          for k, v in x.items()], "  ", "{}")
        parts.append(f'"{key}": {text}')
    return block(parts, "", "{}") + "\n"


def save_graph(H: LinearHypergraph, canonicalize: bool = True) -> str:
    """Serialize to JSON; by default ids are renumbered canonically so
    isomorphic graphs serialize identically."""
    G = canonical(H) if canonicalize else H
    return _dumps(graph_to_dict(G))


def load_graph(text: str) -> LinearHypergraph:
    """Parse a graph file and check it is well formed; raises
    ``ValueError`` for malformed JSON or a malformed graph.  Fresh ids
    handed out afterwards stay clear of the file's ids."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not a graph file: {exc}") from exc
    H = graph_from_dict(data)
    assert_valid(H)
    reserve_ids(H.targets + H.sources + H.edges)
    return H


def to_dot(H: LinearHypergraph) -> str:
    """Informal drawing: one dot per wire, boxes for edges, grey
    pseudo-nodes for the interfaces."""
    G = canonical(H)
    lines = ["digraph G {", "  rankdir=LR;",
             '  node [fontname="monospace"];']
    ins, outs = G.inputs(), G.outputs()
    if ins:
        lines.append('  IN [label="in", shape=plaintext, fontcolor=grey];')
    if outs:
        lines.append('  OUT [label="out", shape=plaintext, fontcolor=grey];')
    for t in G.targets:
        label = G.vtlabels[t]
        text = "" if label == ANON else label
        lines.append(f'  w{t} [label="{text}", shape=point];')
    for e in G.edges:
        lab = G.labels[e]
        if lab == IDENTITY_LABEL:
            lines.append(f'  e{e} [label="", shape=diamond, color=grey];')
        else:
            lines.append(f'  e{e} [label="{lab}", shape=box];')
    view = G.view
    tgts, srcs, conn_inv = view.tgts, view.srcs, view.conn_inv
    for i, t in enumerate(ins):
        lines.append(f"  IN -> w{t} [taillabel={i}, color=grey];")
    for i, s in enumerate(outs):
        lines.append(f"  w{conn_inv[s]} -> OUT [headlabel={i}, color=grey];")
    for e in G.edges:
        for i, s in enumerate(srcs[e]):
            lines.append(f"  w{conn_inv[s]} -> e{e} [headlabel={i}];")
        for i, t in enumerate(tgts[e]):
            lines.append(f"  e{e} -> w{t} [taillabel={i}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
