"""Recovering terms from graphs: untangle, stack, shuffle, trace.

Any well-formed graph is turned back into a term whose interpretation is
isomorphic to it.  The term traces a composite of three parts: a swap
bringing the fed-back wires past the inputs, a shuffle of identities and
swaps realizing the wiring, and a stack of all edge generators.
"""
from __future__ import annotations

import itertools
import math
import random

from .graphs import (IDENTITY_LABEL, LinearHypergraph, canonical_labelling,
                     find_isomorphism)
from .interp import interpret
from .terms import Gen, Id, Seq, Signature, Swap, Tensor, Term, Trace

EdgeOrder = tuple[int, ...]


def canonical_edge_order(H: LinearHypergraph) -> EdgeOrder:
    """Edges in canonical labelling order; the default for extraction."""
    return tuple(canonical_labelling(H)[2])


def _check_order(H: LinearHypergraph, ord: EdgeOrder) -> None:
    if sorted(ord) != sorted(H.edges):
        raise ValueError("edge order must be a permutation of the graph's edges")


def untangle(H: LinearHypergraph, ord: EdgeOrder) -> LinearHypergraph:
    """Reorder vertices so inputs come first, outputs last, and each
    edge's ports form a consecutive block following ``ord``."""
    _check_order(H, ord)
    tgts, srcs = H.port_tables()
    targets = list(H.inputs())
    for e in ord:
        targets.extend(tgts[e])
    sources = []
    for e in ord:
        sources.extend(srcs[e])
    sources.extend(H.outputs())
    return LinearHypergraph(
        targets=tuple(targets),
        sources=tuple(sources),
        edges=tuple(ord),
        left=dict(H.left),
        right=dict(H.right),
        conn=dict(H.conn),
        labels=dict(H.labels),
        vtlabels=dict(H.vtlabels),
        vslabels=dict(H.vslabels),
    )


def stack(H: LinearHypergraph, ord: EdgeOrder) -> Term:
    """The tensor of all edge generators, in the given order."""
    _check_order(H, ord)
    parts: list[Term] = []
    tgts, _ = H.port_tables()
    for e in ord:
        if H.labels[e] == IDENTITY_LABEL:
            (t,) = tgts[e]
            parts.append(Id((H.vtlabels[t],)))
        else:
            parts.append(Gen(H.labels[e]))
    if not parts:
        return Id(())
    t = parts[0]
    for p in parts[1:]:
        t = Tensor(t, p)
    return t


def shuffle(H: LinearHypergraph) -> Term:
    """Identities-and-swaps term realizing the wiring of an untangled graph.

    Wire ``i`` (in target order) leaves at position ``p(i)`` (in source
    order), where ``conn`` pairs the ``i``-th target with the ``p(i)``-th
    source.  Each step pulls the wire feeding the next source to the top;
    the rest is shuffled under that wire.  The steps are collected first
    and nested from the innermost outward, so wide graphs need no
    recursion.  For n wires the term has Θ(n) nodes but Θ(n²) total word
    length, since each of the n steps spells out the remaining wires.
    """
    ts = list(H.targets)
    labels = [H.vtlabels[v] for v in ts]   # kept in step with ts
    conn_inv = H.conn_inv()
    steps: list[tuple[Term, str]] = []
    for v_s in H.sources:
        i = ts.index(conn_inv[v_s])
        step: Term = Tensor(Swap(tuple(labels[:i]), (labels[i],)),
                            Id(tuple(labels[i + 1:])))
        steps.append((step, H.vslabels[v_s]))
        del ts[i], labels[i]
    out: Term = Id(())
    for step, label in reversed(steps):
        out = Seq(step, Tensor(Id((label,)), out))
    return out


def extract_term(H: LinearHypergraph, ord: EdgeOrder | None = None) -> Trace:
    """A term whose interpretation is isomorphic to ``H``."""
    if ord is None:
        ord = canonical_edge_order(H)
    U = untangle(H, ord)
    m = len(U.inputs())
    n = len(U.outputs())
    in_word = U.dom()
    loop_word = tuple(U.vtlabels[v] for v in U.targets[m:])
    body: Term = Seq(
        Seq(Swap(loop_word, in_word), shuffle(U)),
        Tensor(stack(U, ord), Id(U.cod())))
    return Trace(loop_word, body)


def check_coherence(H: LinearHypergraph, sig: Signature,
                    max_orders: int = 24) -> bool:
    """Extracted terms agree across edge orders.

    All orders are tried when there are at most ``max_orders`` of them,
    otherwise a seeded sample.  Since graph isomorphism is an equivalence,
    agreement with the first order settles every pair.
    """
    edges = list(H.edges)
    total = math.factorial(len(edges))
    if total <= max_orders:
        orders = [tuple(p) for p in itertools.permutations(edges)]
    else:
        rng = random.Random(0)
        orders = []
        for _ in range(max_orders):
            p = edges[:]
            rng.shuffle(p)
            orders.append(tuple(p))
    graphs = [interpret(extract_term(H, o), sig) for o in orders]
    first = graphs[0]
    return all(find_isomorphism(first, G) is not None for G in graphs[1:])
