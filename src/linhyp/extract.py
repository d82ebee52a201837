"""Recovering terms from graphs: untangle, stack, shuffle, trace.

Any well-formed graph is turned back into a term whose interpretation is
isomorphic to it.  The term traces a composite of three parts: a swap
bringing the fed-back wires past the inputs, a shuffle of identities and
swaps realizing the wiring, and a stack of all edge generators.
"""
from __future__ import annotations

from bisect import bisect_left

from .graphs import IDENTITY_LABEL, LinearHypergraph, canonical_labelling
from .terms import Gen, Id, Seq, Swap, Tensor, Term, Trace, tensor_all

EdgeOrder = tuple[int, ...]


def canonical_edge_order(H: LinearHypergraph) -> EdgeOrder:
    """Edges in canonical labelling order; the default for extraction."""
    return canonical_labelling(H)[2]


def _check_order(H: LinearHypergraph, ord: EdgeOrder) -> None:
    if sorted(ord) != sorted(H.edges):
        raise ValueError("edge order must be a permutation of the graph's edges")


def untangle(H: LinearHypergraph, ord: EdgeOrder) -> LinearHypergraph:
    """Reorder vertices so inputs come first, outputs last, and each
    edge's ports form a consecutive block following ``ord``."""
    _check_order(H, ord)
    tgts, srcs = H.tgts, H.srcs
    targets = list(H.inputs())
    for e in ord:
        targets.extend(tgts[e])
    sources = []
    for e in ord:
        sources.extend(srcs[e])
    sources.extend(H.outputs())
    # only the orders change, so the tables are shared
    return LinearHypergraph(tuple(targets), tuple(sources), tuple(ord),
                            H.left, H.right, H.conn, H.labels, H.vtlabels,
                            H.vslabels)


def stack(H: LinearHypergraph, ord: EdgeOrder) -> Term:
    """The tensor of all edge generators, in the given order."""
    _check_order(H, ord)
    parts: list[Term] = []
    tgts = H.tgts
    for e in ord:
        if H.labels[e] == IDENTITY_LABEL:
            (t,) = tgts[e]
            parts.append(Id((H.vtlabels[t],)))
        else:
            parts.append(Gen(H.labels[e]))
    return tensor_all(parts)


def shuffle(H: LinearHypergraph) -> Term:
    """Identities-and-swaps term realizing the wiring of an untangled graph.

    Wire ``i`` (in target order) leaves at position ``p(i)`` (in source
    order), where ``conn`` pairs the ``i``-th target with the ``p(i)``-th
    source.  The term is a merge sort of the destinations ``p(i)``: each
    half is sorted in tensor, then the two sorted halves are merged (see
    ``_Sorter.merge``).  Sorted runs and halves already in order emit
    nothing, and segments of at most ``_BASE`` wires are sorted directly.
    For n wires the term has O(n log² n) total word length and O(log² n)
    nesting depth.
    """
    pos = {v: j for j, v in enumerate(H.sources)}
    dest = [pos[H.conn[v]] for v in H.targets]
    lab = [H.vslabels[v] for v in H.sources]
    sorter = _Sorter(lab)
    return sorter.sort(dest)[0] or Id(sorter.word(dest))


# Segments of at most this many wires are sorted by rotations of one wire.
_BASE = 8

# A permutation term under construction, or None for an identity.
_Perm = Term | None


class _Sorter:
    """Builds the merge sort's terms; ``lab`` gives each destination's
    object label."""

    def __init__(self, lab: list[str]) -> None:
        if len(set(lab)) <= 1:  # one label: a word is fixed by its length
            unit = tuple(lab[:1])
            self.word = lambda ds: unit * len(ds)
        else:
            get = lab.__getitem__
            self.word = lambda ds: tuple(map(get, ds))

    def sort(self, a: list[int]) -> tuple[_Perm, list[int]]:
        """A term sending wire ``a[i]`` to the rank of ``a[i]`` in ``a``,
        and ``a`` sorted."""
        s = sorted(a)
        if s == a:
            return None, s
        if len(a) <= _BASE:
            return self.insertion(a, s), s
        h = len(a) // 2
        tx, x = self.sort(a[:h])
        ty, y = self.sort(a[h:])
        return _then(self.row([tx or x, ty or y]), self.merge(x, y)), s

    def insertion(self, a: list[int], s: list[int]) -> Term:
        """Sort a short segment: move each wire up to its place in one
        rotation, leaving the wires already there."""
        w = list(a)
        out: _Perm = None
        for j, d in enumerate(s):
            i = w.index(d, j)
            if i > j:
                out = _then(out, self.row([w[:j], Swap(self.word(w[j:i]),
                                                       self.word([d])),
                                           w[i + 1:]]))
                w[j:i + 1] = [d, *w[j:i]]
        assert out is not None  # ``a`` is not sorted
        return out

    def merge(self, x: list[int], y: list[int]) -> _Perm:
        """A term merging the sorted lists ``x`` and ``y``, side by side.

        The wires below ``y[0]`` at the head of ``x`` and those above
        ``x[-1]`` at the tail of ``y`` stay.  Of the rest, the shorter
        list is split at its middle element ``m`` and the other bisected
        at ``m``, which cuts ``x`` into ``x1 x2`` and ``y`` into ``y1 y2``
        with ``x1, y1 < m <= x2, y2``.  One swap of ``x2`` past ``y1``
        gives ``x1 y1 x2 y2``, and the two halves merge in tensor.  The
        shorter list halves at each level, so the nesting depth is
        logarithmic in it.
        """
        if not x or not y or x[-1] < y[0]:
            return None
        lo, hi = bisect_left(x, y[0]), bisect_left(y, x[-1])
        head, x, y, tail = x[:lo], x[lo:], y[:hi], y[hi:]
        if y[-1] < x[0]:
            core: Term = Swap(self.word(x), self.word(y))
        else:
            if len(x) <= len(y):
                i = len(x) // 2
                j = bisect_left(y, x[i])
            else:
                j = len(y) // 2
                i = bisect_left(x, y[j])
            x1, x2, y1, y2 = x[:i], x[i:], y[:j], y[j:]
            core = _then(self.row([x1, Swap(self.word(x2), self.word(y1)),
                                   y2]),
                         self.row([self.merge(x1, y1) or x1 + y1,
                                   self.merge(x2, y2) or x2 + y2]))
        return self.row([head, core, tail])

    def row(self, parts: list[Term | list[int]]) -> _Perm:
        """The tensor of ``parts``, a list of destinations standing for
        their identity; None when every part is a list."""
        t: _Perm = None
        ids: list[int] = []
        for p in parts:
            if type(p) is list:
                ids += p
                continue
            if ids:
                t = _beside(t, Id(self.word(ids)))
                ids = []
            t = _beside(t, p)
        return _beside(t, Id(self.word(ids))) if ids and t is not None else t


def _beside(f: _Perm, g: Term) -> Term:
    return g if f is None else Tensor(f, g)


def _then(f: _Perm, g: _Perm) -> _Perm:
    if f is None:
        return g
    return f if g is None else Seq(f, g)


def extract_term(H: LinearHypergraph, ord: EdgeOrder | None = None) -> Trace:
    """A term whose interpretation is isomorphic to ``H``."""
    if ord is None:
        ord = canonical_edge_order(H)
    U = untangle(H, ord)
    m = len(U.inputs())
    n = len(U.outputs())
    in_word = U.dom()
    loop_word = tuple(U.vtlabels[v] for v in U.targets[m:])
    # U keeps H's edges, labels and ports, so H's cached tables serve
    body: Term = Seq(
        Seq(Swap(loop_word, in_word), shuffle(U)),
        Tensor(stack(H, ord), Id(U.cod())))
    return Trace(loop_word, body)

