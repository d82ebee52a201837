"""Graph constructors and combinators.

These make linear hypergraphs a symmetric traced monoidal structure.
The leaves are the graphs :func:`~linhyp.interp.interpret` builds:
identities and swaps are edge-free wiring, generators are single edges.
This module adds composition, tensor and trace, which combine graphs;
composition and trace are each one splice (``graphs._Host.plug``).  The
constructors number their ids from 0, and composition and tensor
renumber only the second operand, above the first (``graphs.above``),
so callers never manage id disjointness.
"""
from __future__ import annotations

from .graphs import LinearHypergraph, _Host, above
from .interp import interpret
from .terms import Gen, Id, Signature, Swap, TypeMismatch, Word, as_word

#: The signature of the wiring leaves, which name no generator.
_WIRING = Signature({})


def identity(n: int | str | Word) -> LinearHypergraph:
    """``n`` wires straight through, no edges: ``interpret`` of ``id n``."""
    return interpret(Id(n), _WIRING)


def generator(name: str, sig: Signature) -> LinearHypergraph:
    """One edge ``name`` between interface wires: ``interpret`` of it."""
    return interpret(Gen(name), sig)


def swap(m: int | str | Word, n: int | str | Word) -> LinearHypergraph:
    """``m`` wires crossing ``n`` wires: ``interpret`` of ``swap m n``."""
    return interpret(Swap(m, n), _WIRING)


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
