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


def graph_from_dict(data: dict) -> LinearHypergraph:
    def side(x):
        return INTERFACE if x == "interface" else int(x)

    targets = tuple(int(v) for v in data["targets"])
    sources = tuple(int(v) for v in data["sources"])
    edges = tuple(int(e["id"]) for e in data["edges"])
    vt = {int(k): v for k, v in data.get("vtlabels", {}).items()}
    vs = {int(k): v for k, v in data.get("vslabels", {}).items()}
    return LinearHypergraph(
        targets=targets,
        sources=sources,
        edges=edges,
        left={int(k): side(v) for k, v in data["left"].items()},
        right={int(k): side(v) for k, v in data["right"].items()},
        conn={int(k): int(v) for k, v in data["conn"].items()},
        labels={int(e["id"]): e["label"] for e in data["edges"]},
        vtlabels=vt or {v: ANON for v in targets},
        vslabels=vs or {v: ANON for v in sources},
    )


def save_graph(H: LinearHypergraph, canonicalize: bool = True) -> str:
    """Serialize to JSON; by default ids are renumbered canonically so
    isomorphic graphs serialize identically."""
    G = canonical(H) if canonicalize else H
    return json.dumps(graph_to_dict(G), indent=2) + "\n"


def load_graph(text: str) -> LinearHypergraph:
    """Parse a graph file and check it is well formed; raises
    ``ValueError`` for malformed JSON or a malformed graph.  Fresh ids
    handed out afterwards stay clear of the file's ids."""
    try:
        H = graph_from_dict(json.loads(text))
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        raise ValueError(f"not a graph file: {exc}") from exc
    assert_valid(H)
    reserve_ids(H.targets + H.sources + H.edges)
    return H


def to_dot(H: LinearHypergraph, name: str = "G") -> str:
    """Informal drawing: one dot per wire, boxes for edges, grey
    pseudo-nodes for the interfaces."""
    G = canonical(H)
    lines = [f"digraph {name} {{", "  rankdir=LR;",
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
    conn_inv = G.conn_inv()
    for i, t in enumerate(ins):
        lines.append(f"  IN -> w{t} [taillabel={i}, color=grey];")
    for i, s in enumerate(outs):
        lines.append(f"  w{conn_inv[s]} -> OUT [headlabel={i}, color=grey];")
    tgts, srcs = G.port_tables()
    for e in G.edges:
        for i, s in enumerate(srcs[e]):
            lines.append(f"  w{conn_inv[s]} -> e{e} [headlabel={i}];")
        for i, t in enumerate(tgts[e]):
            lines.append(f"  e{e} -> w{t} [taillabel={i}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
