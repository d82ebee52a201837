"""Linear hypergraphs and their structure-preserving maps.

A linear hypergraph keeps two ordered vertex sequences of equal length:
*targets* sit on the left of edges (or on the input interface), *sources*
sit on the right of edges (or on the output interface).  A bijection
``conn`` pairs every target with a source; each vertex touches exactly
one edge side or the interface, so wires never split or merge.
"""
from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count

from .terms import ANON, Word

#: Left/right value marking a vertex as lying on the interface.
INTERFACE = None

#: Reserved edge label for invisible identity edges (wire homeomorphisms).
IDENTITY_LABEL = "@id"


class _IdSupply:
    """Process-global fresh-id counter; thread-safe."""

    def __init__(self) -> None:
        self.next = 0
        self.lock = threading.Lock()

    def fresh(self, n: int) -> list[int]:
        with self.lock:
            self.next += n
            return list(range(self.next - n, self.next))

    def reserve(self, ids: Iterable[int]) -> None:
        """Hand out only ids above ``ids`` (a loaded file's) from now on."""
        top = max(ids, default=-1)
        with self.lock:
            self.next = max(self.next, top + 1)


_SUPPLY = _IdSupply()
fresh_ids = _SUPPLY.fresh
reserve_ids = _SUPPLY.reserve


class GraphView:
    """A graph's derived tables, the one place they are built, once per
    graph (``LinearHypergraph.view``): beside its vertex and edge maps,
    each edge's ordered target and source ports, each port's index in
    its edge's port tuple, the inverse of ``conn``, the edges by label
    and each edge's stored position (``edge_seq``, a number that grows
    along the stored order).  Iterating ``targets`` and each
    ``by_label`` entry gives them in stored order.  The port index, the
    label index and ``edge_seq`` are built on first use.  The view holds
    no reference to the graph, which caches it: a cycle would keep every
    graph alive until the cyclic collector runs.
    """

    def __init__(self, H: LinearHypergraph) -> None:
        self.targets, self._edges = H.targets, H.edges
        self.left, self.right, self.conn = H.left, H.right, H.conn
        self.labels, self.vtlabels, self.vslabels = (H.labels, H.vtlabels,
                                                     H.vslabels)
        self.tgts, self.srcs = H.port_tables()
        self.conn_inv = H.conn_inv()

    @cached_property
    def port_index(self) -> tuple[dict[int, int], dict[int, int]]:
        """Each attached target's, and each attached source's, index in
        its edge's target or source tuple."""
        return ({v: i for vs in self.tgts.values() for i, v in enumerate(vs)},
                {v: i for vs in self.srcs.values() for i, v in enumerate(vs)})

    @cached_property
    def by_label(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for e in self._edges:
            out.setdefault(self.labels[e], []).append(e)
        return out

    @cached_property
    def edge_seq(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self._edges)}


@dataclass(frozen=True)
class LinearHypergraph:
    targets: tuple[int, ...]
    sources: tuple[int, ...]
    edges: tuple[int, ...]
    left: dict[int, int | None]
    right: dict[int, int | None]
    conn: dict[int, int]
    labels: dict[int, str]
    vtlabels: dict[int, str] = field(default_factory=dict)
    vslabels: dict[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.vtlabels:
            object.__setattr__(self, "vtlabels", {v: ANON for v in self.targets})
        if not self.vslabels:
            object.__setattr__(self, "vslabels", {v: ANON for v in self.sources})

    # -- derived structure ------------------------------------------------

    def inputs(self) -> tuple[int, ...]:
        return tuple(v for v in self.targets if self.left[v] is INTERFACE)

    def outputs(self) -> tuple[int, ...]:
        return tuple(v for v in self.sources if self.right[v] is INTERFACE)

    def conn_inv(self) -> dict[int, int]:
        return {s: t for t, s in self.conn.items()}

    def dom(self) -> Word:
        return tuple(self.vtlabels[v] for v in self.inputs())

    def cod(self) -> Word:
        return tuple(self.vslabels[v] for v in self.outputs())

    def arity(self) -> tuple[int, int]:
        return len(self.inputs()), len(self.outputs())

    def port_tables(self) -> tuple[dict[int, tuple[int, ...]], dict[int, tuple[int, ...]]]:
        """Per-edge ordered target and source sequences, in one pass."""
        tgts: dict[int, list[int]] = {e: [] for e in self.edges}
        srcs: dict[int, list[int]] = {e: [] for e in self.edges}
        for v in self.targets:
            e = self.left[v]
            if e is not INTERFACE:
                tgts[e].append(v)
        for v in self.sources:
            e = self.right[v]
            if e is not INTERFACE:
                srcs[e].append(v)
        return ({e: tuple(vs) for e, vs in tgts.items()},
                {e: tuple(vs) for e, vs in srcs.items()})

    @cached_property
    def view(self) -> GraphView:
        """The graph's tables for matching, built once."""
        return GraphView(self)

    @cached_property
    def labelling(self) -> Labelling:
        """The graph's canonical labelling, computed once."""
        return _canonical_labelling(self)

    @cached_property
    def pattern(self) -> PatternTables:
        """The graph's tables as a pattern to match, built once."""
        return PatternTables(self)

    def __repr__(self) -> str:
        m, n = self.arity()
        return (f"LinearHypergraph({m}->{n}, |T|={len(self.targets)},"
                f" edges={[self.labels[e] for e in self.edges]})")


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def validate(H: LinearHypergraph, sig=None) -> list[str]:
    """Check every well-formedness clause; return one message per violation.

    With a signature, edge labels are also checked against their declared
    arity words; without one, same-labelled edges only need to agree with
    each other.
    """
    report: list[str] = []
    tset, sset = set(H.targets), set(H.sources)
    if len(tset) != len(H.targets):
        report.append("duplicate target vertex ids")
    if len(sset) != len(H.sources):
        report.append("duplicate source vertex ids")
    if tset & sset:
        report.append(f"targets and sources overlap: {sorted(tset & sset)}")
    if len(H.targets) != len(H.sources):
        report.append(
            f"unequal vertex counts: {len(H.targets)} targets,"
            f" {len(H.sources)} sources")
    eset = set(H.edges)
    if len(eset) != len(H.edges):
        report.append("duplicate edge ids")

    for v in H.targets:
        if v not in H.left:
            report.append(f"left undefined on target {v}")
        elif H.left[v] is not INTERFACE and H.left[v] not in eset:
            report.append(f"left({v}) is not an edge of the graph")
        if v not in H.vtlabels:
            report.append(f"target {v} has no object label")
    for v in H.sources:
        if v not in H.right:
            report.append(f"right undefined on source {v}")
        elif H.right[v] is not INTERFACE and H.right[v] not in eset:
            report.append(f"right({v}) is not an edge of the graph")
        if v not in H.vslabels:
            report.append(f"source {v} has no object label")

    missing_conn = [v for v in H.targets if v not in H.conn]
    for v in missing_conn:
        report.append(f"conn undefined on target {v}")
    image = [H.conn[v] for v in H.targets if v in H.conn]
    bad = [s for s in image if s not in sset]
    for s in bad:
        report.append(f"conn hits {s}, which is not a source vertex")
    if len(set(image)) != len(image):
        seen: set[int] = set()
        for s in image:
            if s in seen:
                report.append(f"conn not injective: source {s} hit twice")
            seen.add(s)
    missed = sset - set(image)
    for s in sorted(missed):
        report.append(f"conn not surjective: source {s} never hit")

    for e in H.edges:
        if e not in H.labels:
            report.append(f"edge {e} has no label")
    # entries for ids the graph does not have would be dropped on save
    for name, table, carrier, kind in (
            ("left", H.left, tset, "target"), ("conn", H.conn, tset, "target"),
            ("vtlabels", H.vtlabels, tset, "target"),
            ("right", H.right, sset, "source"),
            ("vslabels", H.vslabels, sset, "source"),
            ("labels", H.labels, eset, "edge")):
        for k in table:
            if k not in carrier:
                report.append(f"{name} has an entry for {k}, which is not a"
                              f" {kind} of the graph")
    if report:
        return report

    # label-arity agreement
    tgts, srcs = H.view.tgts, H.view.srcs
    arities: dict[str, tuple[Word, Word]] = {}
    for e in H.edges:
        lab = H.labels[e]
        dom_w = tuple(H.vslabels[v] for v in srcs[e])
        cod_w = tuple(H.vtlabels[v] for v in tgts[e])
        if lab == IDENTITY_LABEL:
            if len(dom_w) != 1 or len(cod_w) != 1 or dom_w != cod_w:
                report.append(f"identity edge {e} is not a single-wire pass-through")
            continue
        if sig is not None:
            if lab not in sig:
                report.append(f"edge {e} labelled with unknown generator {lab!r}")
            else:
                if dom_w != sig.dom(lab):
                    report.append(
                        f"edge {e} ({lab}): source word {dom_w} != declared {sig.dom(lab)}")
                if cod_w != sig.cod(lab):
                    report.append(
                        f"edge {e} ({lab}): target word {cod_w} != declared {sig.cod(lab)}")
        if lab in arities and arities[lab] != (dom_w, cod_w):
            report.append(f"edges labelled {lab!r} disagree on arity")
        arities.setdefault(lab, (dom_w, cod_w))

    # connected vertices carry the same object label
    for t, s in H.conn.items():
        if H.vtlabels.get(t) != H.vslabels.get(s):
            report.append(
                f"wire {t}->{s} changes object label"
                f" {H.vtlabels.get(t)!r} -> {H.vslabels.get(s)!r}")
    return report


def assert_valid(H: LinearHypergraph, sig=None) -> LinearHypergraph:
    report = validate(H, sig)
    if report:
        raise ValueError("malformed hypergraph: " + "; ".join(report))
    return H


# ---------------------------------------------------------------------------
# Renaming
# ---------------------------------------------------------------------------

def rename(H: LinearHypergraph, perm: dict[int, int]) -> LinearHypergraph:
    """Apply a finite id permutation to every carrier of ``H``."""
    ids = list(H.targets) + list(H.sources) + list(H.edges)
    img = [perm.get(x, x) for x in ids]
    if len(set(img)) != len(img):
        raise ValueError("renaming is not injective on the graph's ids")

    def p(x: int | None) -> int | None:
        return x if x is INTERFACE else perm.get(x, x)

    return LinearHypergraph(
        targets=tuple(perm.get(v, v) for v in H.targets),
        sources=tuple(perm.get(v, v) for v in H.sources),
        edges=tuple(perm.get(e, e) for e in H.edges),
        left={perm.get(v, v): p(e) for v, e in H.left.items()},
        right={perm.get(v, v): p(e) for v, e in H.right.items()},
        conn={perm.get(t, t): perm.get(s, s) for t, s in H.conn.items()},
        labels={perm.get(e, e): lab for e, lab in H.labels.items()},
        vtlabels={perm.get(v, v): lab for v, lab in H.vtlabels.items()},
        vslabels={perm.get(v, v): lab for v, lab in H.vslabels.items()},
    )


def freshen(H: LinearHypergraph) -> LinearHypergraph:
    """Copy ``H`` onto entirely fresh ids."""
    ids = list(H.targets) + list(H.sources) + list(H.edges)
    return rename(H, dict(zip(ids, fresh_ids(len(ids)))))


def _walk(H: LinearHypergraph, tgts: dict[int, tuple[int, ...]],
          srcs: dict[int, tuple[int, ...]], conn_inv: dict[int, int],
          starts: Iterable[int | None], seen: set[int]) -> list[int]:
    """The edges reached breadth-first along wires from ``starts``, less
    those in ``seen``, which it extends.  From each edge the walk visits
    the far end of each target port, then of each source port, in port
    order."""
    right, left, conn = H.right, H.left, H.conn
    order = [e for e in dict.fromkeys(starts)
             if e is not INTERFACE and e not in seen]
    seen.update(order)
    for e in order:  # grows while it is read: breadth-first
        for d in ([right[conn[v]] for v in tgts[e]]
                  + [left[conn_inv[s]] for s in srcs[e]]):
            if d is not INTERFACE and d not in seen:
                seen.add(d)
                order.append(d)
    return order


Labelling = tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]


def canonical_labelling(H: LinearHypergraph) -> Labelling:
    """H's targets, sources and edges in an order that isomorphisms keep.

    Edges are numbered by a walk from the consumers of the inputs and
    then the producers of the outputs.  Fixing one edge fixes its whole
    wire-connected component, so each interface-free component is walked
    from the anchor, among its edges of the rarest label, that gives the
    least code (the least anchor id on a tie), and the components follow
    in code order.  Targets are the inputs and then each edge's target
    block, sources each edge's source block and then the outputs, as in
    ``untangle``.  A component costs about one walk per orbit of its
    anchors: a walk stops as soon as its code exceeds the best so far,
    and two walks with equal codes are an automorphism, whose orbits
    need no walk of their own.  Computed once per graph
    (``LinearHypergraph.labelling``).
    """
    return H.labelling


def _coded_walk(H: LinearHypergraph, anchor: int, best: list[tuple] | None
                ) -> tuple[list[int], list[tuple], bool] | None:
    """The walk of ``anchor``'s interface-free component from ``anchor``,
    in ``_walk``'s order, and its code: per edge its label, its number of
    targets, then per port the far edge's walk number, the far port's
    index and the object label.  Each edge's code entry is made when the
    walk reaches it, and is compared with ``best`` there: None as soon as
    the code exceeds ``best``, else the walk, the code and whether the
    code is less than ``best`` (True when there is none)."""
    view = H.view
    tgts, srcs, conn_inv = view.tgts, view.srcs, view.conn_inv
    t_port, s_port = view.port_index
    labels, right, left, conn = H.labels, H.right, H.left, H.conn
    vtlabels, vslabels = H.vtlabels, H.vslabels
    order = [anchor]
    num = {anchor: 0}
    code: list[tuple] = []
    less = best is None
    for e in order:  # grows while it is read: breadth-first
        row: list = [labels[e], len(tgts[e])]
        for v in tgts[e]:
            s = conn[v]
            d = right[s]
            n = num.get(d)
            if n is None:
                n = num[d] = len(order)
                order.append(d)
            row += (n, s_port[s], vslabels[s])
        for s in srcs[e]:
            t = conn_inv[s]
            d = left[t]
            n = num.get(d)
            if n is None:
                n = num[d] = len(order)
                order.append(d)
            row += (n, t_port[t], vtlabels[t])
        entry = tuple(row)
        if not less:
            other = best[len(code)]
            if entry != other:
                if entry > other:
                    return None
                less = True
        code.append(entry)
    return order, code, less


def _least_walk(H: LinearHypergraph, order: list[int], code: list[tuple]
                ) -> tuple[list[tuple], list[int]]:
    """The least code of an interface-free component and the walk that
    gives it from the least anchor, given the walk ``order`` with code
    ``code`` from the component's first stored edge.

    Anchors in one orbit of the component's automorphisms give equal
    codes, and two walks with equal codes correspond, position by
    position, by an automorphism.  A union-find of the anchors merges
    the pairs of each such correspondence, and an anchor whose class
    already holds a walked anchor is not walked: its code is that one's.
    """
    labels = H.labels
    count: dict[str, int] = {}
    for e in order:
        count[labels[e]] = count.get(labels[e], 0) + 1
    rare = min(count, key=lambda lab: (count[lab], lab))
    anchors = [a for a in order if labels[a] == rare]
    if labels[order[0]] != rare:
        order, code, _ = _coded_walk(H, anchors[0], None)
    if len(anchors) == 1:
        return code, order
    parent = dict(zip(anchors, anchors))
    walked = {order[0]}  # roots of classes that hold a walked anchor
    ties = [order[0]]    # the walked anchors whose code is ``code``
    for a in anchors:
        root = _root(parent, a)
        if root in walked:
            continue
        walked.add(root)
        got = _coded_walk(H, a, code)
        if got is None:
            continue
        if got[2]:
            order, code, _ = got
            ties = [a]
            continue
        ties.append(a)
        for x, y in zip(order, got[0]):  # an automorphism
            if labels[x] == rare:
                rx, ry = _root(parent, x), _root(parent, y)
                if rx != ry:
                    parent[ry] = rx
                    if ry in walked:
                        walked.add(rx)
    least = {_root(parent, a) for a in ties}
    first = min(a for a in anchors if _root(parent, a) in least)
    if first != order[0]:
        order = _coded_walk(H, first, None)[0]
    return code, order


def _root(parent: dict[int, int], a: int) -> int:
    """The root of ``a``'s class in a union-find, halving its path."""
    while parent[a] != a:
        parent[a] = a = parent[parent[a]]
    return a


def _canonical_labelling(H: LinearHypergraph) -> Labelling:
    view = H.view
    tgts, srcs, conn_inv = view.tgts, view.srcs, view.conn_inv
    ins, outs = H.inputs(), H.outputs()
    seen: set[int] = set()
    edges = _walk(H, tgts, srcs, conn_inv, [H.right[H.conn[t]] for t in ins]
                  + [H.left[conn_inv[s]] for s in outs], seen)
    coded = []
    for e in H.edges:
        if e not in seen:  # an interface-free component
            order, code, _ = _coded_walk(H, e, None)
            seen.update(order)
            coded.append(_least_walk(H, order, code))
    for _, order in sorted(coded):
        edges += order
    targets = (*ins, *(v for e in edges for v in tgts[e]))
    sources = (*(v for e in edges for v in srcs[e]), *outs)
    return targets, sources, tuple(edges)


def canonical(H: LinearHypergraph) -> LinearHypergraph:
    """Renumber ids along the canonical labelling.

    Two graphs are isomorphic exactly when their canonical forms are
    equal, so output files of isomorphic graphs are byte-identical.
    Raises ``ValueError`` when the labelling does not list every stored
    id exactly once, as with duplicate ids.
    """
    targets, sources, edges = canonical_labelling(H)
    order = targets + sources + edges
    perm = {x: i for i, x in enumerate(order)}
    if len(perm) != len(H.targets) + len(H.sources) + len(H.edges):
        raise ValueError("the canonical labelling does not list every id of"
                         " the graph exactly once")
    n_t, n_s = len(targets), len(sources)
    return replace(rename(H, perm), targets=tuple(range(n_t)),
                   sources=tuple(range(n_t, n_t + n_s)),
                   edges=tuple(range(n_t + n_s, len(order))))


# ---------------------------------------------------------------------------
# Homomorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Homomorphism:
    """Three component maps between linear hypergraphs."""

    src: LinearHypergraph
    dst: LinearHypergraph
    vmap_t: dict[int, int]
    vmap_s: dict[int, int]
    emap: dict[int, int]

    def is_embedding(self) -> bool:
        return (is_homomorphism(self)
                and len(set(self.vmap_t.values())) == len(self.vmap_t)
                and len(set(self.vmap_s.values())) == len(self.vmap_s)
                and len(set(self.emap.values())) == len(self.emap))

    def is_isomorphism(self) -> bool:
        F, G = self.src, self.dst
        if not self.is_embedding():
            return False
        if (len(F.targets) != len(G.targets)
                or len(F.sources) != len(G.sources)
                or len(F.edges) != len(G.edges)):
            return False
        fin, gin = F.inputs(), G.inputs()
        fout, gout = F.outputs(), G.outputs()
        if len(fin) != len(gin) or len(fout) != len(gout):
            return False
        if any(self.vmap_t[a] != b for a, b in zip(fin, gin)):
            return False
        if any(self.vmap_s[a] != b for a, b in zip(fout, gout)):
            return False
        return True

    def then(self, other: "Homomorphism") -> "Homomorphism":
        if other.src is not self.dst and other.src != self.dst:
            raise ValueError("homomorphisms do not compose")
        return Homomorphism(
            self.src, other.dst,
            {v: other.vmap_t[w] for v, w in self.vmap_t.items()},
            {v: other.vmap_s[w] for v, w in self.vmap_s.items()},
            {e: other.emap[d] for e, d in self.emap.items()},
        )


def is_homomorphism(h: Homomorphism) -> bool:
    """Check the commuting conditions: sources, targets, connections,
    labels, and (when present) vertex labels."""
    F, G = h.src, h.dst
    if set(h.vmap_t) != set(F.targets) or set(h.vmap_s) != set(F.sources):
        return False
    if set(h.emap) != set(F.edges):
        return False
    g_targets, g_sources, g_edges = (set(G.targets), set(G.sources),
                                     set(G.edges))
    if any(v not in g_targets for v in h.vmap_t.values()):
        return False
    if any(v not in g_sources for v in h.vmap_s.values()):
        return False
    if any(e not in g_edges for e in h.emap.values()):
        return False
    return commutes(F, G.view, h.vmap_t, h.vmap_s, h.emap)


def commutes(F: LinearHypergraph, G: GraphView, vmap_t: dict[int, int],
             vmap_s: dict[int, int], emap: dict[int, int]) -> bool:
    """Whether total maps of F's elements into G's keep connections, edge
    labels, ordered ports and object labels; O(|F|) given G's tables."""
    for t in F.targets:
        if G.conn[vmap_t[t]] != vmap_s[F.conn[t]]:
            return False
    ftgts, fsrcs = F.view.tgts, F.view.srcs
    for e in F.edges:
        d = emap[e]
        if F.labels[e] != G.labels[d]:
            return False
        if tuple(vmap_t[v] for v in ftgts[e]) != G.tgts[d]:
            return False
        if tuple(vmap_s[v] for v in fsrcs[e]) != G.srcs[d]:
            return False
    return (all(F.vtlabels[v] == G.vtlabels[vmap_t[v]] for v in F.targets)
            and all(F.vslabels[v] == G.vslabels[vmap_s[v]]
                    for v in F.sources))


# ---------------------------------------------------------------------------
# Embedding search
# ---------------------------------------------------------------------------

#: A map of L's elements into a host, as :func:`embeddings` yields it:
#: target, source and edge maps, and the host wires to split.
Found = tuple[dict[int, int], dict[int, int], dict[int, int],
              list[tuple[int, int, int]]]

# the kinds of element a search maps, indexing its tables
_T, _S, _E = 0, 1, 2

#: A compiled plan: given the host image of its start element, the
#: host's tables, the search's maps, used sets and trail, it extends the
#: map and returns True, or leaves it as it was and returns False.
Plan = Callable[[int, GraphView, tuple, tuple, list], bool]


class PatternTables:
    """What :func:`embeddings` reads from a pattern graph L beyond its
    view; built once per graph, as ``LinearHypergraph.pattern``.

    ``components`` lists L's wire-connected components in
    stored order of their first edges, each as its edges in walk order
    from that first edge.  ``bare_wires`` run from L's input interface
    straight to its output interface.  ``out_wires`` leave an edge for
    the output interface and ``in_wires`` enter an edge from the input
    interface: their loose ends are bound last when matching up to
    homeomorphism, so propagation does not cross them (``defer_t`` and
    ``defer_s``).  ``plans`` holds the compiled plans (:func:`_compile`)
    by ``(kind, start, up_to_homeo)``, each compiled on its first use.
    The tables hold no reference to L, which caches them: a cycle would
    keep every pattern alive until the cyclic collector runs.
    """

    def __init__(self, L: LinearHypergraph) -> None:
        lv = L.view
        self.components: list[list[int]] = []
        placed: set[int] = set()
        for e in L.edges:
            if e not in placed:
                self.components.append(
                    _walk(L, lv.tgts, lv.srcs, lv.conn_inv, (e,), placed))
        left, right, conn = L.left, L.right, L.conn
        self.bare_wires = [t for t in L.targets if left[t] is INTERFACE
                           and right[conn[t]] is INTERFACE]
        self.out_wires = [t for t in L.targets if left[t] is not INTERFACE
                          and right[conn[t]] is INTERFACE]
        self.in_wires = [t for t in L.targets if left[t] is INTERFACE
                         and right[conn[t]] is not INTERFACE]
        self.defer_t = frozenset(self.out_wires)
        self.defer_s = frozenset(conn[t] for t in self.in_wires)
        self.plans: dict[tuple[int, int, bool], Plan] = {}

    def plan(self, L: LinearHypergraph, kind: int, start: int,
             up_to_homeo: bool) -> Plan:
        """The plan that maps ``start``, an element of L of ``kind``,
        and all it forces; compiled once."""
        key = (kind, start, up_to_homeo)
        plan = self.plans.get(key)
        if plan is None:
            none = frozenset()
            plan = self.plans[key] = _compile(
                L, kind, start, self.defer_t if up_to_homeo else none,
                self.defer_s if up_to_homeo else none)
        return plan


# per kind, the plan's local names for the search's map and used set
_MAP = ("tmap", "smap", "emap")
_USED = ("used_t", "used_s", "used_e")


def _compile(L: LinearHypergraph, kind: int, start: int,
             defer_t: frozenset[int], defer_s: frozenset[int]) -> Plan:
    """The wire propagation from ``start``, run once on L alone and
    emitted as one Python function: a compiled plan.

    Mapping one element of L fixes its wire and edge-port neighbours,
    and so, step by step, its whole component.  The plan makes the maps
    of all of them from the start element's host image ``x0`` into
    locals, in the order the propagation reaches them, and checks as it
    goes what the propagation checks: object and edge labels, port
    counts, that each port sits at its index on its edge, that wires
    agree with ``conn`` and its inverse where an element is reached
    twice, and that no image is used already or twice.  A host lookup
    comes only after the checks that guard it.  Only when every check
    holds does it write the maps, the used sets and the trail, in the
    order the propagation reaches the elements, and return True; else it
    returns False having written nothing.  Wires in ``defer_t`` and
    ``defer_s`` are not crossed.

    The source holds only local names, slot numbers and port indices;
    L's labels and ids enter as constants bound to the plan, so no text
    of a graph file is ever compiled.  Compiling one takes about 1 ms.
    """
    lv = L.view
    t_port, s_port = lv.port_index
    consts: dict = {}  # each constant the plan binds, by value
    body = ["used_t, used_s, used_e = used"]
    loaded: set[str] = set()
    checks: set[str] = set()
    images: tuple[dict[int, str], ...] = ({}, {}, {})
    order: list[tuple[int, int]] = []  # the elements mapped, as reached
    ports: dict[str, str] = {}  # a host edge's port tuple, by expression
    names = count(1)

    def const(x) -> str:
        if x not in consts:
            consts[x] = f"k{len(consts)}"
        return consts[x]

    def table(name: str) -> str:
        """A host table, read into a local before its first use."""
        if name not in loaded:
            loaded.add(name)
            body.append(f"G_{name} = G.{name}")
        return f"G_{name}"

    def local(expr: str) -> str:
        name = f"x{next(names)}"
        body.append(f"{name} = {expr}")
        return name

    def check(fails: str) -> None:
        if fails not in checks:
            checks.add(fails)
            body.append(f"if {fails}: return False")

    def put(k: int, a: int, expr: str) -> None:
        name = images[k].get(a)
        if name is not None:  # reached again: the wires must agree
            check(f"{expr} != {name}")
            return
        name = expr if expr.isidentifier() else local(expr)
        check(f"{name} in {_USED[k]}")
        images[k][a] = name
        order.append((k, a))

    def port_tuple(side: str, d: str) -> str:
        expr = f"{table(side)}[{d}]"
        if expr not in ports:
            ports[expr] = local(expr)
        return ports[expr]

    def edge_port(side: str, ends: str, x: str, e: int, j: int) -> None:
        d = local(f"{table(side)}[{x}]")
        check(f"{d} is None")
        check(f"{table('labels')}[{d}] != {const(L.labels[e])}")
        p = port_tuple(ends, d)
        check(f"len({p}) <= {j}")
        check(f"{p}[{j}] != {x}")
        put(_E, e, d)

    put(kind, start, "x0")
    for k, a in order:  # grows while it is read: the propagation agenda
        x = images[k][a]
        if k == _T:
            check(f"{table('vtlabels')}[{x}] != {const(L.vtlabels[a])}")
            if a not in defer_t:
                put(_S, L.conn[a], f"{table('conn')}[{x}]")
            if L.left[a] is not INTERFACE:
                edge_port("left", "tgts", x, L.left[a], t_port[a])
        elif k == _S:
            check(f"{table('vslabels')}[{x}] != {const(L.vslabels[a])}")
            if a not in defer_s:
                put(_T, lv.conn_inv[a], f"{table('conn_inv')}[{x}]")
            if L.right[a] is not INTERFACE:
                edge_port("right", "srcs", x, L.right[a], s_port[a])
        else:
            check(f"{table('labels')}[{x}] != {const(L.labels[a])}")
            p, q = port_tuple("tgts", x), port_tuple("srcs", x)
            check(f"len({p}) != {len(lv.tgts[a])}")
            check(f"len({q}) != {len(lv.srcs[a])}")
            for i, u in enumerate(lv.tgts[a]):
                put(_T, u, f"{p}[{i}]")
            for i, u in enumerate(lv.srcs[a]):
                put(_S, u, f"{q}[{i}]")
    for k in (_T, _S, _E):
        if len(images[k]) > 1:
            check(f"len({{{', '.join(images[k].values())}}})"
                  f" != {len(images[k])}")
    body.append("tmap, smap, emap = maps")
    for k, a in order:
        body.append(f"{_MAP[k]}[{const(a)}] = {images[k][a]}")
        body.append(f"{_USED[k]}.add({images[k][a]})")
    body.append(f"trail.extend({const(tuple(order))})")
    body.append("return True")
    source = "\n".join(
        [f"def _bind({', '.join(consts.values())}):",
         "    def plan(x0, G, maps, used, trail):"]
        + [f"        {line}" for line in body]
        + ["    return plan"])
    scope: dict = {}
    exec(compile(source, "<compiled plan>", "exec"), scope)
    return scope["_bind"](*consts)


def embeddings(L: LinearHypergraph, G: GraphView,
               up_to_homeo: bool = False) -> Iterator[Found]:
    """Yield maps of L into the graph whose tables are G, in a
    deterministic order.

    The wire-propagation engine behind matching: fixing the image of a
    vertex or an edge fixes its wire and edge-port neighbours, so each
    choice is propagated to closure, and a clash rejects it.  Each
    choice runs a compiled plan (:func:`_compile`): the propagation from
    that start element, worked out on L once and emitted as straight-line
    Python, which computes and checks every forced image and writes the
    whole extension or nothing.  A plan is compiled, in about 1 ms, on
    the first search that needs it, and cached on L's pattern tables
    (``PatternTables.plans``); its source holds no text of L.  The maps
    come ordered by the host image of each edge
    component's first edge in L's stored order, in G's stored order,
    component by component; bare wires of L then range over the
    remaining wires of G.  L's interfaces may land anywhere.

    Fixing one edge fixes its whole component, so each component's
    search starts from its edge whose label has the fewest edges in G.
    When that is not the component's first edge, the component's
    completions are collected, each propagated once, and sorted by G's
    stored order (``G.edge_seq``) of the first edge's image before the
    search goes on, which keeps the order above.

    With ``up_to_homeo`` the loose ends of L's boundary wires are bound
    last.  When the wire leaving the matched part re-enters it
    immediately (a loop through the pattern's boundary), the host wire
    must be split with an identity edge so both boundary wires fit.  The
    engine changes nothing: each yielded map comes with its list of
    splits ``(t, s, t2)``, in the order they are to be made, and the
    caller expands the host on the wire leaving target ``t``, mapping L's
    source ``s`` to the new source and L's target ``t2`` to the new
    target.  A candidate the search rejects thus leaves no trace.

    Every yielded map is total and injective once split, and commutes.
    Its dicts are its own, so a caller may complete them in place while
    the search goes on.  The rewriting driver stops at the first map
    and rewrites the host it searched; the exhaustive one rewrites a
    fresh copy of the graph at every map, and matching expands a copy.
    """
    yield from _Search(L, G, up_to_homeo).components(0)


class _Search:
    """One run of :func:`embeddings`: the partial map of L into G, held
    in one set of tables, and the trail of its assignments in the order
    they were made, which undoing pops.  Each choice of an image for a
    component's start edge or a bare wire extends the map through that
    element's compiled plan (:meth:`PatternTables.plan`), which writes a
    whole propagation or nothing, so only a choice the search goes past
    is undone."""

    def __init__(self, L: LinearHypergraph, G: GraphView,
                 up_to_homeo: bool) -> None:
        self.L, self.G, self.homeo = L, G, up_to_homeo
        self.P = P = L.pattern
        self.maps: tuple[dict[int, int], ...] = ({}, {}, {})
        self.used: tuple[set[int], ...] = (set(), set(), set())
        self.trail: list[tuple[int, int]] = []
        # each component's first edge, and the edge its search starts at
        by_label, labels = G.by_label, L.labels
        self.starts = [(comp[0], min(comp, key=lambda e: len(
            by_label.get(labels[e], ())))) for comp in P.components]

    def undo(self, mark: int) -> None:
        """Drop the assignments made since the trail was ``mark`` long."""
        trail, maps, used = self.trail, self.maps, self.used
        while len(trail) > mark:
            kind, a = trail.pop()
            used[kind].remove(maps[kind].pop(a))

    def extend(self, kind: int, a: int, images: Iterable[int]
               ) -> Iterator[None]:
        """For each of ``images`` in turn that ``a`` can map to, with
        all it forces: yield with the map extended, and undo it after."""
        plan = self.P.plan(self.L, kind, a, self.homeo)
        G, maps, used, trail = self.G, self.maps, self.used, self.trail
        mark = len(trail)
        for b in images:
            if plan(b, G, maps, used, trail):
                yield
                self.undo(mark)

    def components(self, idx: int) -> Iterator[Found]:
        if idx == len(self.starts):
            yield from self.bare(0)
            return
        anchor, start = self.starts[idx]
        if start != anchor:
            mark = len(self.trail)
            for entries in self.completions(anchor, start):
                self.replay(entries)
                yield from self.components(idx + 1)
                self.undo(mark)
            return
        for _ in self.extend(_E, anchor, self.G.by_label.get(
                self.L.labels[anchor], ())):
            yield from self.components(idx + 1)

    def completions(self, anchor: int, start: int
                    ) -> list[list[tuple[int, int, int]]]:
        """The ways to map a component whose search starts at an edge
        other than its first, found from that edge: each as the
        assignments it adds, in G's stored order of the first edge's
        image."""
        G, maps, trail = self.G, self.maps, self.trail
        mark = len(trail)
        found = []
        for _ in self.extend(_E, start, G.by_label.get(
                self.L.labels[start], ())):
            found.append((G.edge_seq[maps[_E][anchor]],
                          [(kind, a, maps[kind][a])
                           for kind, a in trail[mark:]]))
        found.sort(key=lambda f: f[0])
        return [entries for _, entries in found]

    def replay(self, entries: list[tuple[int, int, int]]) -> None:
        """Make again assignments that :meth:`completions` found, in the
        state it found them in, so that they do not clash."""
        maps, used, trail = self.maps, self.used, self.trail
        for kind, a, b in entries:
            maps[kind][a] = b
            used[kind].add(b)
            trail.append((kind, a))

    def bare(self, idx: int) -> Iterator[Found]:
        P, G = self.P, self.G
        if idx == len(P.bare_wires):
            found = self.finish()
            if found is not None:
                yield found
            return
        for _ in self.extend(_T, P.bare_wires[idx], G.targets):
            yield from self.bare(idx + 1)

    def finish(self) -> Found | None:
        L = self.L
        tmap, smap, emap = (dict(m) for m in self.maps)
        splits: list[tuple[int, int, int]] = []
        if self.homeo and not self.resolve_boundary(tmap, smap, splits):
            return None
        if (len(tmap) + len(splits) != len(L.targets)
                or len(smap) + len(splits) != len(L.sources)):
            return None
        return tmap, smap, emap, splits

    def resolve_boundary(self, tmap: dict[int, int], smap: dict[int, int],
                         splits: list[tuple[int, int, int]]) -> bool:
        """Bind the loose ends of boundary wires, listing a split where
        an out-wire's host wire immediately re-enters an in-wire."""
        L, G, P = self.L, self.G, self.P
        used_t, used_s = set(self.used[_T]), set(self.used[_S])
        pending_in = {}
        for a in P.in_wires:
            b = L.conn[a]
            if b not in smap:
                return False
            pending_in[G.conn_inv[smap[b]]] = a
        for c in P.out_wires:
            if c not in tmap:
                return False
            d = L.conn[c]
            t_w = tmap[c]
            hit = pending_in.pop(t_w, None)
            if hit is not None:
                # the wire leaving the match feeds straight back in: both
                # ends of the split carry the wire's object label
                lab = G.vtlabels[t_w]
                if L.vslabels[d] != lab or L.vtlabels[hit] != lab:
                    return False
                splits.append((t_w, d, hit))
            else:
                s_w = G.conn[t_w]
                if s_w in used_s or L.vslabels[d] != G.vslabels[s_w]:
                    return False
                smap[d] = s_w
                used_s.add(s_w)
        for anchor_t, a in pending_in.items():
            if anchor_t in used_t or L.vtlabels[a] != G.vtlabels[anchor_t]:
                return False
            tmap[a] = anchor_t
            used_t.add(anchor_t)
        return True


def find_isomorphism(F: LinearHypergraph,
                     G: LinearHypergraph) -> Homomorphism | None:
    """A witness isomorphism, or None.

    The canonical labellings of isomorphic graphs correspond position by
    position, so the only candidate pairs them up; ``is_isomorphism``
    decides.  The witness lists F's targets, sources and edges in F's
    stored order.
    """
    if (len(F.targets) != len(G.targets) or len(F.sources) != len(G.sources)
            or len(F.edges) != len(G.edges)):
        return None
    vmap_t, vmap_s, emap = (dict(zip(f, g)) for f, g in zip(
        canonical_labelling(F), canonical_labelling(G)))
    h = Homomorphism(F, G, {v: vmap_t[v] for v in F.targets},
                     {v: vmap_s[v] for v in F.sources},
                     {e: emap[e] for e in F.edges})
    return h if h.is_isomorphism() else None


def isomorphic(F: LinearHypergraph, G: LinearHypergraph) -> bool:
    return find_isomorphism(F, G) is not None


# ---------------------------------------------------------------------------
# Wire homeomorphisms
# ---------------------------------------------------------------------------

def expand(H: LinearHypergraph, w: int) -> LinearHypergraph:
    """Insert one identity edge on the wire leaving target vertex ``w``."""
    if w not in H.conn:
        raise ValueError(f"{w} is not a target vertex")
    t_new, s_new, e_new = fresh_ids(3)
    lab = H.vtlabels[w]
    conn = dict(H.conn)
    old = conn[w]
    conn[w] = s_new
    conn[t_new] = old
    return LinearHypergraph(
        targets=H.targets + (t_new,),
        sources=H.sources + (s_new,),
        edges=H.edges + (e_new,),
        left={**H.left, t_new: e_new},
        right={**H.right, s_new: e_new},
        conn=conn,
        labels={**H.labels, e_new: IDENTITY_LABEL},
        vtlabels={**H.vtlabels, t_new: lab},
        vslabels={**H.vslabels, s_new: lab},
    )


def smooth(H: LinearHypergraph) -> LinearHypergraph:
    """Remove every identity edge, splicing the wire through it."""
    idents = [e for e in H.edges if H.labels[e] == IDENTITY_LABEL]
    if not idents:
        return H
    view = H.view
    tgts, srcs = view.tgts, view.srcs
    conn, conn_inv = dict(H.conn), dict(view.conn_inv)
    dead_t: set[int] = set()
    dead_s: set[int] = set()
    for e in idents:
        (t_e,), (s_e,) = tgts[e], srcs[e]
        before = conn_inv[s_e]
        if before == t_e:
            # a loop made of this identity edge alone: it vanishes
            del conn[t_e]
        else:
            after = conn[t_e]
            conn[before] = after
            conn_inv[after] = before
            del conn[t_e]
        dead_t.add(t_e)
        dead_s.add(s_e)
    return LinearHypergraph(
        targets=tuple(v for v in H.targets if v not in dead_t),
        sources=tuple(v for v in H.sources if v not in dead_s),
        edges=tuple(e for e in H.edges if e not in idents),
        left={v: e for v, e in H.left.items() if v not in dead_t},
        right={v: e for v, e in H.right.items() if v not in dead_s},
        conn=conn,
        labels={e: lab for e, lab in H.labels.items() if e not in idents},
        vtlabels={v: lab for v, lab in H.vtlabels.items() if v not in dead_t},
        vslabels={v: lab for v, lab in H.vslabels.items() if v not in dead_s},
    )
