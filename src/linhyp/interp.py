"""Structural translation from terms to linear hypergraphs."""
from __future__ import annotations

from collections import deque
from itertools import islice

from .graphs import LinearHypergraph, find_isomorphism, fresh_ids
from .terms import (Gen, Id, Seq, Signature, Swap, Tensor, Term, Trace,
                    TypeMismatch, render_word, type_of)

#: A subterm's input targets or output sources, in order.
Ends = list[int] | deque[int]


def interpret(t: Term, sig: Signature) -> LinearHypergraph:
    """The graph of a well-typed term.

    Generators become single edges; identity, swap, composition, tensor
    and trace map to the corresponding graph operations.  Built in one
    iterative post-order pass, so the term may be arbitrarily deep.
    Identities and swaps allocate nothing: each is a permutation
    ``(dom, cod, src)`` whose output ``j`` carries input ``src[j]``, and
    composition and tensor of two permutations compose them as lists.
    Each maximal run of identities and swaps thus becomes one permutation,
    which gets two ids per wire only when something needs vertices: a
    generator, a trace, a composition or tensor with a built graph, or
    the end of the pass.  Generators allocate their ids once, composition
    and trace splice wires in place, and tensor joins the two interface
    lists.  Apart from bulk list joins the cost is linear in the number
    of nodes plus the total word length of the identity and swap leaves;
    the ids drawn for an extracted term are linear in the graph.  The
    constant is that of the graph built: each generator's shape is looked
    up once per call, and each port or spliced wire costs only the
    dictionary writes of its entries, with no helper call per generator
    or wire.
    The stored orders match the fold of :mod:`linhyp.ops` combinators:
    leaf vertices and edges in left-to-right leaf order, minus the
    spliced ones.  Dispatch is on the exact node class, as in
    :func:`linhyp.terms.type_of`.
    """
    targets: dict[int, str] = {}   # live target vertex -> object label
    sources: dict[int, str] = {}   # live source vertex -> object label
    left: dict[int, int] = {}      # edge ports only; others are INTERFACE
    right: dict[int, int] = {}
    conn: dict[int, int] = {}
    conn_inv: dict[int, int] = {}
    edges: list[int] = []
    labels: dict[int, str] = {}
    shapes: dict[str, tuple] = {}  # generator -> (dom + cod, m, m + n)

    def cat(a: Ends, b: Ends) -> Ends:
        """``a`` then ``b``, copying the shorter one into the longer; a
        list that takes a shorter one in front becomes a deque, so a
        right-nested tensor shifts nothing."""
        if len(a) >= len(b):
            a.extend(b)
            return a
        if type(b) is list:
            b = deque(b)
        b.extendleft(reversed(a))
        return b

    def behead(vs: Ends, k: int) -> list[int]:
        """Remove and return the first ``k`` entries of ``vs``."""
        if type(vs) is deque:
            return [vs.popleft() for _ in range(k)]
        head = vs[:k]
        del vs[:k]
        return head

    def mismatch(cod, dom, u: Term) -> TypeMismatch:
        return TypeMismatch(f"cannot compose: {render_word(cod)} does not"
                            f" match {render_word(dom)}", u)

    def materialise() -> None:
        """Give the pending permutations vertices, in stack order: wire
        ``j`` joins target ``ids[src[j]]`` to source ``ids[k + j]``."""
        nonlocal pending
        for p in range(len(values) - pending, len(values)):
            dom, cod, src = values[p]
            k = len(dom)
            ids = fresh_ids(2 * k)
            for j in range(k):
                v, s = ids[src[j]], ids[k + j]
                targets[ids[j]] = dom[j]
                sources[s] = cod[j]
                conn[v] = s
                conn_inv[s] = v
            values[p] = (ids[:k], ids[k:])
        pending = 0

    # interfaces of finished subterms: (input targets, output sources), or
    # for the last ``pending`` ones a permutation (dom, cod, src) whose
    # output j carries input src[j]
    values: list = []
    pending = 0
    todo: list[tuple[Term, bool]] = [(t, False)]
    while todo:
        u, ready = todo.pop()
        kind = type(u)
        if kind is Gen:
            shape = shapes.get(u.name)
            if shape is None:
                if u.name not in sig:
                    raise TypeMismatch(f"unknown generator {u.name!r}", u)
                dom, cod = sig.generators[u.name]
                shape = shapes[u.name] = (dom + cod, len(dom),
                                          len(dom) + len(cod))
            if pending:
                materialise()
            word, m, k = shape
            # the id block: m inputs and the edge's targets, the edge's m
            # sources and the outputs, then the edge; wire j is ids[j] to
            # ids[k + j]
            ids = fresh_ids(2 * k + 1)
            e = ids[-1]
            for j in range(k):
                v, s = ids[j], ids[k + j]
                targets[v] = sources[s] = word[j]
                conn[v] = s
                conn_inv[s] = v
                if j < m:
                    right[s] = e
                else:
                    left[v] = e
            edges.append(e)
            labels[e] = u.name
            values.append((ids[:m], ids[k + m:-1]))
        elif kind is Id or kind is Swap:
            a, b = (u.word, ()) if kind is Id else (u.upper, u.lower)
            # the a-block leaves below the b-block
            values.append((a + b, b + a, [*range(len(a), len(a) + len(b)),
                                          *range(len(a))]))
            pending += 1
        elif kind is not Seq and kind is not Tensor and kind is not Trace:
            raise TypeMismatch(f"not a term: {u!r}", u)
        elif not ready:
            todo.append((u, True))
            if kind is Trace:
                todo.append((u.body, False))
            elif kind is Seq:
                todo += [(u.right, False), (u.left, False)]
            else:
                todo += [(u.bottom, False), (u.top, False)]
        elif pending >= 2 and kind is not Trace:  # both operands pending
            (f_dom, f_cod, f_src), (g_dom, g_cod, g_src) = \
                values[-2], values.pop()
            pending -= 1
            if kind is Tensor:
                k = len(f_dom)
                values[-1] = (f_dom + g_dom, f_cod + g_cod,
                              f_src + [k + j for j in g_src])
                continue
            if f_cod != g_dom:
                raise mismatch(f_cod, g_dom, u)
            values[-1] = (f_dom, g_cod, [f_src[j] for j in g_src])
        else:
            if pending:
                materialise()
            if kind is Trace:
                ins, outs = values[-1]
                x = u.loop
                k = len(x)
                dom = tuple(map(targets.__getitem__, islice(ins, k)))
                cod = tuple(map(sources.__getitem__, islice(outs, k)))
                if dom != x or cod != x:
                    raise TypeMismatch(
                        f"cannot trace {render_word(x)} out of a graph whose"
                        f" interface starts {render_word(dom)} ->"
                        f" {render_word(cod)}", u)
                outs, ins = behead(outs, k), behead(ins, k)
            else:
                (f_ins, outs), (ins, g_outs) = values[-2], values.pop()
                if kind is Tensor:
                    values[-1] = (cat(f_ins, ins), cat(outs, g_outs))
                    continue
                cod = tuple(map(sources.__getitem__, outs))
                dom = tuple(map(targets.__getitem__, ins))
                if cod != dom:
                    raise mismatch(cod, dom, u)
                values[-1] = (f_ins, g_outs)
            # splice: the wire entering output o now continues where
            # input i's wire went
            for o, i in zip(outs, ins):
                before, after = conn_inv.pop(o), conn.pop(i)
                del sources[o], targets[i]
                if before != i:  # else a bare wire closed on itself vanishes
                    conn[before] = after
                    conn_inv[after] = before

    if pending:
        materialise()
    # fresh dicts: the working ones keep the capacity of their peak size
    return LinearHypergraph(
        targets=tuple(targets),
        sources=tuple(sources),
        edges=tuple(edges),
        left={v: left.get(v) for v in targets},
        right={v: right.get(v) for v in sources},
        conn={v: conn[v] for v in targets},
        labels=labels,
        vtlabels=dict(targets),
        vslabels=dict(sources),
    )


def equal_mod_stmc(s: Term, t: Term, sig: Signature) -> bool:
    """Equality of terms modulo the traced symmetric monoidal equations,
    decided by isomorphism of their graphs."""
    if type_of(s, sig) != type_of(t, sig):
        raise TypeMismatch("terms to compare must share a type")
    return find_isomorphism(interpret(s, sig), interpret(t, sig)) is not None
