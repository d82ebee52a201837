"""Graph file formats: a canonical JSON schema and DOT export."""
from __future__ import annotations

import json
# ``_quote(s)`` is ``json.dumps(s)`` for a string s
from json.encoder import encode_basestring_ascii as _quote
from operator import itemgetter

from .graphs import (IDENTITY_LABEL, INTERFACE, LinearHypergraph, assert_valid,
                     canonical_ids, canonical_labelling)
from .terms import ANON

_KINDS = {int: "an integer id", str: "a string", list: "an array",
          dict: "an object"}
_NONE = frozenset({type(None)})
_SIDES = {"interface": INTERFACE}


def graph_from_dict(data: dict) -> LinearHypergraph:
    """The graph of a parsed graph file.  The JSON types are checked: the
    tables are objects, the id lists arrays, every id a JSON integer and
    every label a string; anything else raises ``ValueError("not a graph
    file: …")``.  Well-formedness is left to ``validate``.

    Each list and table is checked whole: by the set of its value types,
    and by one comparison of its keys with the decimal ids of its carrier
    (``targets`` or ``sources``) in stored order, as every saved file has
    them.  Only keys in another order, and a check that fails, are walked
    entry by entry, to convert them or to name the first bad entry."""
    def bad(what: str) -> ValueError:
        return ValueError(f"not a graph file: {what}")

    def check(xs: list, kind: type, where: str,
              also: frozenset = frozenset()) -> list:
        # exact types: a bool is an int in Python and a float would
        # truncate, so neither passes as an id
        if set(map(type, xs)) - also - {kind}:
            x = next(x for x in xs
                     if type(x) is not kind and type(x) not in also)
            raise bad(f"{where}: {x!r} is not {_KINDS[kind]}")
        return xs

    def get(name: str, kind: type, optional: bool = False):
        if name not in data and not optional:
            raise bad(f"no {name!r}")
        return check([data.get(name, kind())], kind, name)[0]

    def table(name: str, kind: type, carrier: tuple[list, list],
              optional: bool = False, sides: bool = False) -> dict:
        d = get(name, dict, optional)
        keys = list(d)
        if keys == carrier[1]:  # the carrier's ids in order, as saved
            keys = carrier[0]
        else:  # JSON keys are strings; an id key is an integer written plainly
            try:
                keys = [int(k) if k.removeprefix("-").isdecimal() else k
                        for k in d]
            except ValueError:  # more digits than ``int`` converts
                raise bad(f"{name}: a key is not an integer id") from None
            if list(map(str, check(keys, int, name))) != list(d):
                raise bad(f"{name}: a key is not an integer id")
        values = list(d.values())
        if sides:  # "interface" or an edge id
            try:
                values = list(map(_SIDES.get, values, values))
            except TypeError:  # an array or an object among them
                values = [INTERFACE if v == "interface" else v
                          for v in values]
        check(values, kind, name, _NONE if sides else frozenset())
        return dict(zip(keys, values))

    check([data], dict, "the file")
    edges = check(get("edges", list), dict, "edges")
    try:
        edge_ids = list(map(itemgetter("id"), edges))
        edge_labels = list(map(itemgetter("label"), edges))
    except KeyError:
        raise bad("an edge lacks its id or label") from None
    check(edge_ids, int, "edges")
    targets = check(get("targets", list), int, "targets")
    sources = check(get("sources", list), int, "sources")
    on_t = targets, list(map(str, targets))
    on_s = sources, list(map(str, sources))
    return LinearHypergraph(
        targets=tuple(targets),
        sources=tuple(sources),
        edges=tuple(edge_ids),
        left=table("left", int, on_t, sides=True),
        right=table("right", int, on_s, sides=True),
        conn=table("conn", int, on_t),
        labels=dict(zip(edge_ids, check(edge_labels, str, "edges"))),
        # empty tables mean unlabelled wires
        vtlabels=table("vtlabels", str, on_t, optional=True),
        vslabels=table("vslabels", str, on_s, optional=True),
    )


def _block(items, brackets: str) -> str:
    """A list or object of ``items``, one level down, as ``json.dumps``
    with ``indent=2`` writes it."""
    text = ",\n    ".join(items)
    if not text:
        return brackets
    return f"{brackets[0]}\n    {text}\n  {brackets[1]}"


def save_graph(H: LinearHypergraph, canonicalize: bool = True) -> str:
    """The graph file of H: JSON, laid out as ``json.dumps(..., indent=2)``
    lays it out.  By default ids are renumbered along the canonical
    labelling, so isomorphic graphs serialize identically; with
    ``canonicalize=False`` the stored order and ids are kept.  Either way
    the file is written in one pass from H, the order and the id map,
    with no renamed copy of H; it holds the ``vtlabels`` and
    ``vslabels`` tables only when some wire is labelled.  Raises
    ``ValueError`` as ``canonical`` does when the labelling does not
    list every id exactly once."""
    if canonicalize:
        targets, sources, edges = canonical_labelling(H)
        perm = canonical_ids(H)
        ids = dict(zip(perm, map(str, perm.values())))
    else:
        targets, sources, edges = H.targets, H.sources, H.edges
        ids = {}
    ids[INTERFACE] = '"interface"'  # every other id missing from ids is kept

    def names(xs) -> list:
        """What the file says for each id of the sequence ``xs``."""
        return list(map(ids.get, xs, xs))

    def at(d: dict, keys) -> list:
        return list(map(d.__getitem__, keys))

    def table(keys: list, values) -> str:
        return _block([f'"{k}": {v}' for k, v in zip(keys, values)], "{}")

    tn, sn = names(targets), names(sources)
    edge_list = [f'{{\n      "id": {e},\n      "label": {lab}\n    }}'
                 for e, lab in zip(names(edges),
                                   map(_quote, at(H.labels, edges)))]
    parts = [
        ("targets", _block(map(str, tn), "[]")),
        ("sources", _block(map(str, sn), "[]")),
        ("edges", _block(edge_list, "[]")),
        ("left", table(tn, names(at(H.left, targets)))),
        ("right", table(sn, names(at(H.right, sources)))),
        ("conn", table(tn, names(at(H.conn, targets))))]
    if not {ANON}.issuperset(H.vtlabels.values()):
        parts += [
            ("vtlabels", table(tn, map(_quote, at(H.vtlabels, targets)))),
            ("vslabels", table(sn, map(_quote, at(H.vslabels, sources))))]
    return "{\n  " + ",\n  ".join(
        f'"{key}": {text}' for key, text in parts) + "\n}\n"


def load_graph(text: str) -> LinearHypergraph:
    """Parse a graph file and check it is well formed; raises
    ``ValueError`` for malformed or too deeply nested JSON or a malformed
    graph.  Both checks run in bulk (``graph_from_dict``, ``validate``),
    and walk the file entry by entry only to word the error of a bad
    one.  The graph keeps the file's ids; what later adds elements to it
    numbers them above its largest id (``graphs.next_id``)."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"not a graph file: {exc}") from exc
    return assert_valid(graph_from_dict(data))


def to_dot(H: LinearHypergraph) -> str:
    """Informal drawing: one dot per wire, boxes for edges, grey
    pseudo-nodes for the interfaces; numbered as the canonical file is
    (``canonical_ids``), so isomorphic graphs draw identically."""
    targets, _, edges = canonical_labelling(H)
    num = canonical_ids(H)
    lines = ["digraph G {", "  rankdir=LR;",
             '  node [fontname="monospace"];']
    ins, outs = H.inputs(), H.outputs()
    if ins:
        lines.append('  IN [label="in", shape=plaintext, fontcolor=grey];')
    if outs:
        lines.append('  OUT [label="out", shape=plaintext, fontcolor=grey];')
    for t in targets:
        label = H.vtlabels[t]
        text = "" if label == ANON else _dot_string(label)
        lines.append(f'  w{num[t]} [label="{text}", shape=point];')
    for e in edges:
        lab = H.labels[e]
        if lab == IDENTITY_LABEL:
            lines.append(f'  e{num[e]} [label="", shape=diamond, color=grey];')
        else:
            text = _dot_string(lab)
            lines.append(f'  e{num[e]} [label="{text}", shape=box];')
    tgts, srcs, conn_inv = H.tgts, H.srcs, H.inv
    for i, t in enumerate(ins):
        lines.append(f"  IN -> w{num[t]} [taillabel={i}, color=grey];")
    for i, s in enumerate(outs):
        lines.append(f"  w{num[conn_inv[s]]} -> OUT [headlabel={i}, color=grey];")
    for e in edges:
        for i, s in enumerate(srcs[e]):
            lines.append(f"  w{num[conn_inv[s]]} -> e{num[e]} [headlabel={i}];")
        for i, t in enumerate(tgts[e]):
            lines.append(f"  e{num[e]} -> w{num[t]} [taillabel={i}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_string(label: str) -> str:
    """``label`` as the body of a quoted DOT string: a backslash or a
    double quote is escaped, so it reads back as itself."""
    return label.replace("\\", "\\\\").replace('"', '\\"')
