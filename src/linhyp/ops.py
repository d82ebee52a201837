"""Graph constructors and combinators.

These make linear hypergraphs a symmetric traced monoidal structure:
identities and swaps are edge-free wiring, generators are single edges,
and composition / tensor / trace combine graphs.  Operands are copied
onto fresh ids first, so callers never manage id disjointness.
"""
from __future__ import annotations

from .graphs import INTERFACE, LinearHypergraph, fresh_ids, freshen
from .terms import Signature, TypeMismatch, Word, as_word


def identity(n: int | str | Word) -> LinearHypergraph:
    """``n`` wires straight through, no edges."""
    w = as_word(n)
    ts = fresh_ids(len(w))
    ss = fresh_ids(len(w))
    return LinearHypergraph(
        targets=tuple(ts), sources=tuple(ss), edges=(),
        left={v: INTERFACE for v in ts},
        right={v: INTERFACE for v in ss},
        conn=dict(zip(ts, ss)),
        labels={},
        vtlabels=dict(zip(ts, w)),
        vslabels=dict(zip(ss, w)),
    )


def generator(name: str, sig: Signature) -> LinearHypergraph:
    """A single edge with interface wires on both sides."""
    if name not in sig:
        raise TypeMismatch(f"unknown generator {name!r}")
    dom, cod = sig.generators[name]
    m, n = len(dom), len(cod)
    ins = fresh_ids(m)        # interface targets
    e_srcs = fresh_ids(m)     # edge source ports
    e_tgts = fresh_ids(n)     # edge target ports
    outs = fresh_ids(n)       # interface sources
    (e,) = fresh_ids(1)
    return LinearHypergraph(
        targets=tuple(ins) + tuple(e_tgts),
        sources=tuple(e_srcs) + tuple(outs),
        edges=(e,),
        left={**{v: INTERFACE for v in ins}, **{v: e for v in e_tgts}},
        right={**{v: e for v in e_srcs}, **{v: INTERFACE for v in outs}},
        conn={**dict(zip(ins, e_srcs)), **dict(zip(e_tgts, outs))},
        labels={e: name},
        vtlabels={**dict(zip(ins, dom)), **dict(zip(e_tgts, cod))},
        vslabels={**dict(zip(e_srcs, dom)), **dict(zip(outs, cod))},
    )


def swap(m: int | str | Word, n: int | str | Word) -> LinearHypergraph:
    """Cross an ``m``-block over an ``n``-block of wires."""
    a, b = as_word(m), as_word(n)
    ts = fresh_ids(len(a) + len(b))
    ss = fresh_ids(len(a) + len(b))
    # outputs carry the n-block first, then the m-block
    out_word = b + a
    conn = {}
    for i in range(len(a)):
        conn[ts[i]] = ss[len(b) + i]
    for i in range(len(b)):
        conn[ts[len(a) + i]] = ss[i]
    return LinearHypergraph(
        targets=tuple(ts), sources=tuple(ss), edges=(),
        left={v: INTERFACE for v in ts},
        right={v: INTERFACE for v in ss},
        conn=conn,
        labels={},
        vtlabels=dict(zip(ts, a + b)),
        vslabels=dict(zip(ss, out_word)),
    )


def compose(F: LinearHypergraph, G: LinearHypergraph) -> LinearHypergraph:
    """Plug the outputs of ``F`` into the inputs of ``G``."""
    if F.cod() != G.dom():
        raise TypeMismatch(
            f"cannot compose: {F.cod()} does not match {G.dom()}")
    F, G = freshen(F), freshen(G)
    f_outs = F.outputs()
    g_ins = G.inputs()
    out_pos = {v: i for i, v in enumerate(f_outs)}
    dead_s = set(f_outs)
    dead_t = set(g_ins)

    conn: dict[int, int] = {}
    for t in F.targets:
        s = F.conn[t]
        if s in dead_s:
            conn[t] = G.conn[g_ins[out_pos[s]]]
        else:
            conn[t] = s
    for t in G.targets:
        if t not in dead_t:
            conn[t] = G.conn[t]

    return LinearHypergraph(
        targets=F.targets + tuple(t for t in G.targets if t not in dead_t),
        sources=tuple(s for s in F.sources if s not in dead_s) + G.sources,
        edges=F.edges + G.edges,
        left={**F.left, **{v: e for v, e in G.left.items() if v not in dead_t}},
        right={**{v: e for v, e in F.right.items() if v not in dead_s}, **G.right},
        conn=conn,
        labels={**F.labels, **G.labels},
        vtlabels={**F.vtlabels,
                  **{v: l for v, l in G.vtlabels.items() if v not in dead_t}},
        vslabels={**{v: l for v, l in F.vslabels.items() if v not in dead_s},
                  **G.vslabels},
    )


def tensor(F: LinearHypergraph, G: LinearHypergraph) -> LinearHypergraph:
    """Disjoint union, with ``F``'s wires above ``G``'s."""
    F, G = freshen(F), freshen(G)
    return LinearHypergraph(
        targets=F.targets + G.targets,
        sources=F.sources + G.sources,
        edges=F.edges + G.edges,
        left={**F.left, **G.left},
        right={**F.right, **G.right},
        conn={**F.conn, **G.conn},
        labels={**F.labels, **G.labels},
        vtlabels={**F.vtlabels, **G.vtlabels},
        vslabels={**F.vslabels, **G.vslabels},
    )


def _trace_once(F: LinearHypergraph) -> LinearHypergraph:
    ins, outs = F.inputs(), F.outputs()
    if not ins or not outs or F.vtlabels[ins[0]] != F.vslabels[outs[0]]:
        raise TypeMismatch("trace needs matching first input and output wires")
    t0, s0 = ins[0], outs[0]
    loop_to = F.conn[t0]
    conn = {}
    for t in F.targets:
        if t == t0:
            continue
        s = F.conn[t]
        conn[t] = loop_to if s == s0 else s
    return LinearHypergraph(
        targets=tuple(v for v in F.targets if v != t0),
        sources=tuple(v for v in F.sources if v != s0),
        edges=F.edges,
        left={v: e for v, e in F.left.items() if v != t0},
        right={v: e for v, e in F.right.items() if v != s0},
        conn=conn,
        labels=dict(F.labels),
        vtlabels={v: l for v, l in F.vtlabels.items() if v != t0},
        vslabels={v: l for v, l in F.vslabels.items() if v != s0},
    )


def trace(x: int | str | Word, F: LinearHypergraph) -> LinearHypergraph:
    """Feed the first ``x`` outputs back into the first ``x`` inputs.

    Built by repeated single-wire tracing.
    """
    w = as_word(x)
    if F.dom()[:len(w)] != w or F.cod()[:len(w)] != w:
        raise TypeMismatch(
            f"cannot trace {w} out of a {F.dom()} -> {F.cod()} graph")
    H = freshen(F)
    for _ in range(len(w)):
        H = _trace_once(H)
    return H
