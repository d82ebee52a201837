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
    the ids drawn for an extracted term are linear in the graph.
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

    def splice(o: int, i: int) -> None:
        """Join output vertex ``o`` to input vertex ``i``: the wire
        entering ``o`` now continues where ``i``'s wire went."""
        before, after = conn_inv.pop(o), conn.pop(i)
        del sources[o], targets[i]
        if before != i:  # otherwise a bare wire closed on itself vanishes
            conn[before] = after
            conn_inv[after] = before

    def add_wires(ts: list[int], t_word, ss: list[int], s_word,
                  pairs: list[tuple[int, int]]) -> None:
        targets.update(zip(ts, t_word))
        sources.update(zip(ss, s_word))
        conn.update(pairs)
        conn_inv.update((s, v) for v, s in pairs)

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
        """Give the pending permutations vertices, in stack order."""
        nonlocal pending
        for p in range(len(values) - pending, len(values)):
            dom, cod, src = values[p]
            k = len(dom)
            ids = fresh_ids(2 * k)
            ts, ss = ids[:k], ids[k:]
            add_wires(ts, dom, ss, cod, [(ts[j], s) for j, s in zip(src, ss)])
            values[p] = (ts, ss)
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
            if u.name not in sig:
                raise TypeMismatch(f"unknown generator {u.name!r}", u)
            if pending:
                materialise()
            dom, cod = sig.generators[u.name]
            m, n = len(dom), len(cod)
            ids = fresh_ids(2 * (m + n) + 1)
            ins, e_tgts = ids[:m], ids[m:m + n]
            e_srcs, outs = ids[m + n:2 * m + n], ids[2 * m + n:-1]
            e = ids[-1]
            add_wires(ins + e_tgts, dom + cod, e_srcs + outs, dom + cod,
                      list(zip(ins, e_srcs)) + list(zip(e_tgts, outs)))
            left.update(dict.fromkeys(e_tgts, e))
            right.update(dict.fromkeys(e_srcs, e))
            edges.append(e)
            labels[e] = u.name
            values.append((ins, outs))
        elif kind is Id or kind is Swap:
            a, b = (u.word, ()) if kind is Id else (u.upper, u.lower)
            # the a-block leaves below the b-block
            values.append((a + b, b + a, list(range(len(a), len(a) + len(b)))
                           + list(range(len(a)))))
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
        elif kind is Trace:
            if pending:
                materialise()
            ins, outs = values[-1]
            x = u.loop
            dom = tuple(targets[v] for v in islice(ins, len(x)))
            cod = tuple(sources[v] for v in islice(outs, len(x)))
            if dom != x or cod != x:
                raise TypeMismatch(
                    f"cannot trace {render_word(x)} out of a graph whose"
                    f" interface starts {render_word(dom)} ->"
                    f" {render_word(cod)}", u)
            for o, i in zip(behead(outs, len(x)), behead(ins, len(x))):
                splice(o, i)
        elif pending >= 2:  # pending values are a suffix: both operands
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
            (f_ins, f_outs), (g_ins, g_outs) = values[-2], values.pop()
            if kind is Tensor:
                values[-1] = (cat(f_ins, g_ins), cat(f_outs, g_outs))
                continue
            cod = tuple(sources[v] for v in f_outs)
            dom = tuple(targets[v] for v in g_ins)
            if cod != dom:
                raise mismatch(cod, dom, u)
            for o, i in zip(f_outs, g_ins):
                splice(o, i)
            values[-1] = (f_ins, g_outs)

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
        vtlabels={v: targets[v] for v in targets},
        vslabels={v: sources[v] for v in sources},
    )


def equal_mod_stmc(s: Term, t: Term, sig: Signature) -> bool:
    """Equality of terms modulo the traced symmetric monoidal equations,
    decided by isomorphism of their graphs."""
    if type_of(s, sig) != type_of(t, sig):
        raise TypeMismatch("terms to compare must share a type")
    return find_isomorphism(interpret(s, sig), interpret(t, sig)) is not None
