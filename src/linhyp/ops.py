"""Graph constructors and combinators.

These make linear hypergraphs a symmetric traced monoidal structure:
identities and swaps are edge-free wiring, generators are single edges,
and composition / tensor / trace combine graphs; composition and trace
are each one splice (``graphs._Host.plug``).  The constructors number their
ids from 0, and composition and tensor renumber only the second operand,
above the first (``graphs.above``), so callers never manage id
disjointness.
"""
from __future__ import annotations

from .graphs import INTERFACE, LinearHypergraph, _Host, above
from .terms import Signature, TypeMismatch, Word, as_word


def identity(n: int | str | Word) -> LinearHypergraph:
    """``n`` wires straight through, no edges."""
    w = as_word(n)
    ts, ss = range(len(w)), range(len(w), 2 * len(w))
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
    ins = range(m)                          # interface targets
    e_srcs = range(m, 2 * m)                # edge source ports
    e_tgts = range(2 * m, 2 * m + n)        # edge target ports
    outs = range(2 * m + n, 2 * m + 2 * n)  # interface sources
    e = 2 * m + 2 * n
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
    k = len(a) + len(b)
    ts, ss = range(k), range(k, 2 * k)
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
    """Plug the outputs of ``F`` into the inputs of ``G``, in their
    tensor (``graphs._Host.plug``)."""
    if F.cod() != G.dom():
        raise TypeMismatch(
            f"cannot compose: {F.cod()} does not match {G.dom()}")
    FG = tensor(F, G)
    h = _Host(FG)
    h.plug(F.outputs(), FG.inputs()[len(F.inputs()):])
    return h.freeze()


def tensor(F: LinearHypergraph, G: LinearHypergraph) -> LinearHypergraph:
    """Disjoint union, with ``F``'s wires above ``G``'s."""
    G = above(G, F)
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


def trace(x: int | str | Word, F: LinearHypergraph) -> LinearHypergraph:
    """Feed the first ``x`` outputs back into the first ``x`` inputs, all
    in one splice (``graphs._Host.plug``)."""
    w = as_word(x)
    if F.dom()[:len(w)] != w or F.cod()[:len(w)] != w:
        raise TypeMismatch(
            f"cannot trace {w} out of a {F.dom()} -> {F.cod()} graph")
    h = _Host(F)
    h.plug(F.outputs()[:len(w)], F.inputs()[:len(w)])
    return h.freeze()
