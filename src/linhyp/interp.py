"""Structural translation from terms to linear hypergraphs."""
from __future__ import annotations

from collections import deque
from itertools import islice

from .graphs import (EMPTY, INTERFACE, LinearHypergraph, _Host,
                     find_isomorphism)
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
    ``(dom, cod, src, off)`` whose output ``j`` carries input
    ``src[j] + off``; composition composes two as lists, and tensor
    joins the shorter into the longer (or copies both under 64 wires).
    Each maximal run of identities and swaps thus becomes one permutation,
    which gets two ids per wire only when something needs vertices: a
    generator, a trace, a composition or tensor with a built graph, or
    the end of the pass.  Generators and permutations write the ids
    they draw into one :class:`~linhyp.graphs._Host`, started empty,
    composition and trace list the wires they splice, and tensor joins
    the two interface lists; one :meth:`~linhyp.graphs._Host.plug`
    splices the listed wires at the end, as no splice touches a vertex
    still on an interface.  Apart from bulk list joins the cost is
    linear in the number of nodes plus the total word length of the
    identity and swap leaves; the ids drawn for an extracted term are
    linear in the graph.  The constant is that of the graph built: each
    generator's shape is looked up once per call, and each port costs
    only the dictionary writes of its entries, with no helper call per
    generator or wire.  Ids are numbered from 0 in the order they are
    drawn, ``conn`` lists its entries in target order, and the host
    hands its tables to the graph's view, the ``conn`` inverse rebuilt
    in ``conn`` order.  The stored orders match the fold of the
    :mod:`linhyp.ops` combinators over the leaves this builds: leaf
    vertices and edges in left-to-right leaf order, minus the spliced
    ones.  Dispatch is on the exact node class, as in
    :func:`linhyp.terms.type_of`.
    """
    H = _Host(EMPTY)
    targets, sources, left, right = H.targets, H.sources, H.left, H.right
    vtlabels, vslabels, conn, conn_inv = (H.vtlabels, H.vslabels, H.conn,
                                          H.conn_inv)
    labels, tgts, srcs, new_ids = H.labels, H.tgts, H.srcs, H.new_ids
    shapes: dict[str, tuple] = {}  # generator -> (dom + cod, m, m + n)

    def cat(a: Ends, b: Ends) -> Ends:
        """``a`` then ``b``, copying the shorter one into the longer, a
        tuple as a list; a list that takes a shorter one in front
        becomes a deque, so a right-nested tensor shifts nothing."""
        if len(a) >= len(b):
            a = list(a) if type(a) is tuple else a
            a.extend(b)
            return a
        if type(b) is not deque:
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
        ``j`` joins target ``ids[src[j] + off]`` to source ``ids[k + j]``,
        written into ``conn`` in target order."""
        nonlocal pending
        for p in range(len(values) - pending, len(values)):
            dom, cod, src, off = values[p]
            k = len(dom)
            ids = list(islice(new_ids, 2 * k))
            to = [None] * k  # each target's source
            for j, (a, b, x) in enumerate(zip(dom, cod, src)):
                v, s, i = ids[j], ids[k + j], x + off
                targets[v] = sources[s] = None
                left[v] = right[s] = INTERFACE
                vtlabels[v], vslabels[s] = a, b
                to[i], conn_inv[s] = s, ids[i]
            conn.update(zip(ids, to))
            values[p] = (ids[:k], ids[k:])
        pending = 0

    # interfaces of finished subterms: (input targets, output sources), or
    # for the last ``pending`` ones a permutation (dom, cod, src, off)
    # whose output j carries input src[j] + off
    values: list = []
    pending = 0
    cut_outs, cut_ins = [], []  # the wires to splice, plugged at the end
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
            ids = list(islice(new_ids, 2 * k + 1))
            e = ids[-1]
            for j in range(k):
                v, s = ids[j], ids[k + j]
                targets[v] = sources[s] = None
                vtlabels[v] = vslabels[s] = word[j]
                conn[v], conn_inv[s] = s, v
                if j < m:
                    left[v], right[s] = INTERFACE, e
                else:
                    left[v], right[s] = e, INTERFACE
            labels[e] = u.name
            tgts[e], srcs[e] = tuple(ids[m:k]), tuple(ids[k:k + m])
            values.append((ids[:m], ids[k + m:-1]))
        elif kind is Id or kind is Swap:
            a, b = (u.word, ()) if kind is Id else (u.upper, u.lower)
            # the a-block leaves below the b-block
            values.append((a + b, b + a, [*range(len(a), len(a) + len(b)),
                                          *range(len(a))], 0))
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
            (f_dom, f_cod, f_src, f_off), (g_dom, g_cod, g_src, g_off) = \
                values[-2], values.pop()
            pending -= 1
            if kind is Tensor and (k := len(f_dom)) + len(g_dom) < 64:
                values[-1] = (f_dom + g_dom, f_cod + g_cod,
                              f_src + [k + j for j in g_src], 0)
            elif kind is Tensor:
                # g's inputs follow f's k: the shorter joins the longer,
                # and only its src entries are shifted, to the longer's off
                off = f_off if k >= len(g_dom) else g_off + k
                src = (cat(f_src, [j + g_off + k - off for j in g_src])
                       if k >= len(g_dom) else
                       cat([j + f_off - off for j in f_src], g_src))
                values[-1] = (cat(f_dom, g_dom), cat(f_cod, g_cod), src, off)
            elif tuple(f_cod) != tuple(g_dom):
                raise mismatch(f_cod, g_dom, u)
            else:
                f_src = list(f_src) if type(f_src) is deque else f_src
                values[-1] = (f_dom, g_cod, [f_src[j + g_off] for j in g_src], f_off)
        else:
            if pending:
                materialise()
            if kind is Trace:
                ins, outs = values[-1]
                x = u.loop
                k = len(x)
                dom = tuple(map(vtlabels.__getitem__, islice(ins, k)))
                cod = tuple(map(vslabels.__getitem__, islice(outs, k)))
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
                cod = tuple(map(vslabels.__getitem__, outs))
                dom = tuple(map(vtlabels.__getitem__, ins))
                if cod != dom:
                    raise mismatch(cod, dom, u)
                values[-1] = (f_ins, g_outs)
            cut_outs += outs
            cut_ins += ins

    if pending:
        materialise()
    H.plug(cut_outs, cut_ins)
    # the view derives its ``conn`` inverse in ``conn`` order
    H.conn_inv = dict(zip(conn.values(), conn))
    return H.freeze()


def equal_mod_stmc(s: Term, t: Term, sig: Signature) -> bool:
    """Equality of terms modulo the traced symmetric monoidal equations,
    decided by isomorphism of their graphs.  Each side is typed once, by
    :func:`interpret`; ``type_of``, which raises exactly where it does,
    runs only then, on ``s`` and then ``t``, to word the error."""
    try:
        F, G = interpret(s, sig), interpret(t, sig)
    except TypeMismatch as exc:
        error = exc
    else:
        if F.dom() != G.dom() or F.cod() != G.cod():
            raise TypeMismatch("terms to compare must share a type")
        return find_isomorphism(F, G) is not None
    type_of(s, sig), type_of(t, sig)  # outside the handler: unchained
    raise error
