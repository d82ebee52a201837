"""Independent references that benchmark outputs are checked against.

Nothing here calls into linhyp.  Graphs the program returns are read
through their public fields only, and terms are walked by their fields, so
a defect in the code under test cannot also hide in its reference.

A *port graph* is the reference's own graph form.  Edge ``i`` has label
``labels[i]`` and ``arity[i] = (inputs, outputs)`` ports.  ``wire`` maps
every producer to the one consumer its wire feeds.  Producers are
``(-1, j)`` for input ``j`` of the interface and ``(i, k)`` for output
port ``k`` of edge ``i``; consumers are ``(-1, j)`` for output ``j`` of the
interface and ``(i, k)`` for input port ``k`` of edge ``i``.  Wire object
labels are not modelled: every signature the benchmark uses has plain
(unlabelled) wires.
"""
from __future__ import annotations

from typing import NamedTuple

IFACE = -1


class PortGraph(NamedTuple):
    n_in: int
    n_out: int
    labels: tuple[str, ...]
    arity: tuple[tuple[int, int], ...]
    wire: dict[tuple[int, int], tuple[int, int]]


# ---------------------------------------------------------------------------
# Terms -> port graphs, by the textbook semantics of each constructor
# ---------------------------------------------------------------------------

def _generator(name: str, m: int, n: int) -> PortGraph:
    wire = {(IFACE, j): (0, j) for j in range(m)}
    wire.update({(0, k): (IFACE, k) for k in range(n)})
    return PortGraph(m, n, (name,), ((m, n),), wire)


def _identity(n: int) -> PortGraph:
    return PortGraph(n, n, (), (), {(IFACE, j): (IFACE, j) for j in range(n)})


def _swap(a: int, b: int) -> PortGraph:
    wire = {(IFACE, j): (IFACE, b + j) for j in range(a)}
    wire.update({(IFACE, a + j): (IFACE, j) for j in range(b)})
    return PortGraph(a + b, a + b, (), (), wire)


def _shift(x: tuple[int, int], edges: int, iface: int) -> tuple[int, int]:
    return (IFACE, x[1] + iface) if x[0] == IFACE else (x[0] + edges, x[1])


def _tensor(F: PortGraph, G: PortGraph) -> PortGraph:
    ne = len(F.labels)
    wire = dict(F.wire)
    for p, c in G.wire.items():
        shifted_p = _shift(p, ne, F.n_in)
        wire[shifted_p] = _shift(c, ne, F.n_out)
    return PortGraph(F.n_in + G.n_in, F.n_out + G.n_out,
                     F.labels + G.labels, F.arity + G.arity, wire)


def _compose(F: PortGraph, G: PortGraph) -> PortGraph:
    if F.n_out != G.n_in:
        raise ValueError("reference: composite of mismatched arities")
    ne = len(F.labels)
    wire = {}
    for p, c in F.wire.items():
        if c[0] == IFACE:
            c = _shift(G.wire[(IFACE, c[1])], ne, 0)
        wire[p] = c
    for p, c in G.wire.items():
        if p[0] != IFACE:
            wire[_shift(p, ne, 0)] = _shift(c, ne, 0)
    return PortGraph(F.n_in, G.n_out, F.labels + G.labels,
                     F.arity + G.arity, wire)


def _trace(x: int, F: PortGraph) -> PortGraph:
    if x > F.n_in or x > F.n_out:
        raise ValueError("reference: trace wider than the body")

    def drop(q: tuple[int, int]) -> tuple[int, int]:
        return (IFACE, q[1] - x) if q[0] == IFACE else q

    wire = {}
    for p, c in F.wire.items():
        if p[0] == IFACE and p[1] < x:
            continue
        # follow fed-back wires; a wire bijection cannot cycle from here
        while c[0] == IFACE and c[1] < x:
            c = F.wire[(IFACE, c[1])]
        wire[drop(p)] = drop(c)
    return PortGraph(F.n_in - x, F.n_out - x, F.labels, F.arity, wire)


def from_term(t, gens: dict[str, tuple[int, int]]) -> PortGraph:
    """The port graph of a linhyp term, built from its fields."""
    kind = type(t).__name__
    if kind == "Gen":
        m, n = gens[t.name]
        return _generator(t.name, m, n)
    if kind == "Id":
        return _identity(len(t.word))
    if kind == "Swap":
        return _swap(len(t.upper), len(t.lower))
    if kind == "Seq":
        return _compose(from_term(t.left, gens), from_term(t.right, gens))
    if kind == "Tensor":
        return _tensor(from_term(t.top, gens), from_term(t.bottom, gens))
    if kind == "Trace":
        return _trace(len(t.loop), from_term(t.body, gens))
    raise ValueError(f"reference: not a term node: {kind}")


def from_graph(H) -> PortGraph:
    """The port graph of a linhyp ``LinearHypergraph``, read from its fields.

    An edge's output ports are the targets whose ``left`` is the edge, in
    target order; its input ports are the sources whose ``right`` is the
    edge, in source order.  ``None`` marks the interface.
    """
    index = {e: i for i, e in enumerate(H.edges)}
    outs = [0] * len(index)
    ins = [0] * len(index)
    producer = {}
    n_in = 0
    for t in H.targets:
        e = H.left[t]
        if e is None:
            producer[t] = (IFACE, n_in)
            n_in += 1
        else:
            i = index[e]
            producer[t] = (i, outs[i])
            outs[i] += 1
    consumer = {}
    n_out = 0
    for s in H.sources:
        e = H.right[s]
        if e is None:
            consumer[s] = (IFACE, n_out)
            n_out += 1
        else:
            i = index[e]
            consumer[s] = (i, ins[i])
            ins[i] += 1
    wire = {producer[t]: consumer[H.conn[t]] for t in H.targets}
    if len(wire) != len(H.targets) or len(set(wire.values())) != len(wire):
        raise ValueError("reference: graph wiring is not a bijection")
    return PortGraph(n_in, n_out, tuple(H.labels[e] for e in H.edges),
                     tuple(zip(ins, outs)), wire)


# ---------------------------------------------------------------------------
# Isomorphism-invariant code
# ---------------------------------------------------------------------------

def _walk(g: PortGraph, inv: dict, order: list[int], num: dict[int, int],
          head: list) -> tuple:
    """Breadth-first walk from the edges already in ``order``, numbering
    edges as they are reached.  Port order makes every step
    deterministic, so the code depends only on the anchor."""
    def port(x: tuple[int, int]) -> tuple[int, int]:
        if x[0] == IFACE:
            return x
        if x[0] not in num:
            num[x[0]] = len(order)
            order.append(x[0])
        return (num[x[0]], x[1])

    head = tuple(port(x) for x in head)
    body = []
    i = 0
    while i < len(order):
        e = order[i]
        i += 1
        m, n = g.arity[e]
        outs = tuple(port(g.wire[(e, k)]) for k in range(n))
        ins = tuple(port(inv[(e, k)]) for k in range(m))
        body.append((g.labels[e], outs, ins))
    return head, tuple(body)


def canonical_code(g: PortGraph) -> tuple:
    """Equal for two port graphs exactly when they are isomorphic.

    The part reachable from the ordered interface is anchored by it.
    Each interface-free component is coded from every one of its edges
    and keeps the least code; the graph code holds the sorted multiset of
    those.  Cost is linear in the anchored part and quadratic in each
    free component.
    """
    inv = {c: p for p, c in g.wire.items()}
    num: dict[int, int] = {}
    order: list[int] = []
    head = ([g.wire[(IFACE, j)] for j in range(g.n_in)]
            + [inv[(IFACE, j)] for j in range(g.n_out)])
    anchored = _walk(g, inv, order, num, head)
    seen = set(order)
    free = []
    for e in range(len(g.labels)):
        if e in seen:
            continue
        stack, members = [e], {e}
        while stack:
            x = stack.pop()
            m, n = g.arity[x]
            for y in ([g.wire[(x, k)][0] for k in range(n)]
                      + [inv[(x, k)][0] for k in range(m)]):
                if y != IFACE and y not in members:
                    members.add(y)
                    stack.append(y)
        seen |= members
        free.append(min(_walk(g, inv, [a], {a: 0}, [])[1]
                        for a in sorted(members)))
    return g.n_in, g.n_out, anchored, tuple(sorted(free))


def witness_is_isomorphism(F: PortGraph, G: PortGraph, F_edges, G_edges,
                           emap: dict[int, int]) -> bool:
    """Whether an edge map (by linhyp edge ids) carries F onto G with
    labels, port order, wiring and interface order preserved."""
    if len(F_edges) != len(G_edges) or F.n_in != G.n_in or F.n_out != G.n_out:
        return False
    g_index = {e: i for i, e in enumerate(G_edges)}
    try:
        to_g = [g_index[emap[e]] for e in F_edges]
    except KeyError:
        return False
    if len(set(to_g)) != len(to_g):
        return False
    if any(F.labels[i] != G.labels[j] or F.arity[i] != G.arity[j]
           for i, j in enumerate(to_g)):
        return False

    def image(x: tuple[int, int]) -> tuple[int, int]:
        return x if x[0] == IFACE else (to_g[x[0]], x[1])

    return all(G.wire.get(image(p)) == image(c) for p, c in F.wire.items())


# ---------------------------------------------------------------------------
# Circuit semantics
# ---------------------------------------------------------------------------

def dataflow_fixed_point(g: PortGraph, inputs: tuple[str, ...],
                         bottom: str, join: dict[tuple[str, str], str],
                         gates: dict[str, dict[tuple[str, ...], str]],
                         values: tuple[str, ...]) -> tuple[str, ...]:
    """Least fixed point of a fork/join/stub/gate circuit by monotone
    iteration on the wires, as in the test suite's dataflow oracle."""
    inv = {c: p for p, c in g.wire.items()}
    val = {p: bottom for p in g.wire}

    def raise_to(p: tuple[int, int], v: str) -> bool:
        j = join[(val[p], v)]
        if j == val[p]:
            return False
        val[p] = j
        return True

    for _ in range(len(val) * len(values) + 2):
        changed = False
        for j, v in enumerate(inputs):
            changed |= raise_to((IFACE, j), v)
        for e, lab in enumerate(g.labels):
            m, _ = g.arity[e]
            iv = tuple(val[inv[(e, k)]] for k in range(m))
            if lab in values:
                changed |= raise_to((e, 0), lab)
            elif lab == "fork":
                changed |= raise_to((e, 0), iv[0])
                changed |= raise_to((e, 1), iv[0])
            elif lab == "join":
                changed |= raise_to((e, 0), join[(iv[0], iv[1])])
            elif lab == "stub":
                pass
            elif lab in gates:
                changed |= raise_to((e, 0), gates[lab][iv])
            else:
                raise ValueError(f"reference cannot run edge {lab!r}")
        if not changed:
            break
    return tuple(val[inv[(IFACE, j)]] for j in range(g.n_out))
