"""Linear hypergraphs and their structure-preserving maps.

A linear hypergraph keeps two ordered vertex sequences of equal length:
*targets* sit on the left of edges (or on the input interface), *sources*
sit on the right of edges (or on the output interface).  A bijection
``conn`` pairs every target with a source; each vertex touches exactly
one edge side or the interface, so wires never split or merge.
"""
from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import count, islice

from .terms import ANON, Word

#: Left/right value marking a vertex as lying on the interface.
INTERFACE = None

#: Reserved edge label for invisible identity edges (wire homeomorphisms).
IDENTITY_LABEL = "@id"


@dataclass(frozen=True)
class LinearHypergraph:
    """A linear hypergraph and, beside its fields, its derived tables,
    each built on first use: each edge's ordered target and source
    ports (``tgts``, ``srcs``, from :meth:`port_tables`), the inverse of
    ``conn`` (``inv``, from :meth:`conn_inv`), each port's index in its
    edge's port tuple (``port_index``), the edges by label
    (``by_label``) and each edge's stored position (``edge_seq``, a
    number that grows along the stored order).  Iterating ``targets``
    and each ``by_label`` entry gives them in stored order.  A graph
    frozen from a host (``_Host.freeze``) gets its port tables and
    ``inv`` from the host instead; ``dataclasses.replace`` makes a new
    graph, which derives its own.
    """

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
    def tgts(self) -> dict[int, tuple[int, ...]]:
        tgts, self.__dict__["srcs"] = self.port_tables()
        return tgts

    @cached_property
    def srcs(self) -> dict[int, tuple[int, ...]]:
        self.__dict__["tgts"], srcs = self.port_tables()
        return srcs

    @cached_property
    def inv(self) -> dict[int, int]:
        return self.conn_inv()

    @cached_property
    def port_index(self) -> tuple[dict[int, int], dict[int, int]]:
        """Each attached target's, and each attached source's, index in
        its edge's target or source tuple."""
        return ({v: i for vs in self.tgts.values() for i, v in enumerate(vs)},
                {v: i for vs in self.srcs.values() for i, v in enumerate(vs)})

    @cached_property
    def by_label(self) -> dict[str, list[int]]:
        out: dict[str, list[int]] = {}
        for e in self.edges:
            out.setdefault(self.labels[e], []).append(e)
        return out

    @cached_property
    def edge_seq(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def labelling(self) -> Labelling:
        """The graph's canonical labelling, computed once."""
        return _canonical_labelling(self)

    @cached_property
    def pattern(self) -> PatternTables:
        """The graph's tables as a pattern to match, built once."""
        return PatternTables(self)

    @cached_property
    def _smoothed(self) -> LinearHypergraph:
        """The graph without its identity edges (:func:`smooth`), built
        once: what matching searches for when the graph is a left side."""
        return smooth(self)

    def __repr__(self) -> str:
        m, n = self.arity()
        return (f"LinearHypergraph({m}->{n}, |T|={len(self.targets)},"
                f" edges={[self.labels[e] for e in self.edges]})")


#: The graph with no vertices and no edges, where a build starts.
EMPTY = LinearHypergraph((), (), (), {}, {}, {}, {})


# ---------------------------------------------------------------------------
# Well-formedness
# ---------------------------------------------------------------------------

def validate(H: LinearHypergraph, sig=None) -> list[str]:
    """Check every well-formedness clause; return one message per violation.

    With a signature, edge labels are also checked against their declared
    arity words; without one, same-labelled edges only need to agree with
    each other.

    Each clause is guarded by a bulk check, made with set and dict-view
    operations: each table's keys are compared with their carrier once,
    for both the missing-key and the stray-key clause, and each distinct
    label and arity is checked once.  A clause is walked element by
    element, in stored order, only when its guard fails, so that each
    violation gets its own message; a well-formed graph walks none.
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
    # no key is missing from a table and none is stray exactly when its
    # keys are its carrier
    left_ok, vt_ok = H.left.keys() == tset, H.vtlabels.keys() == tset
    right_ok, vs_ok = H.right.keys() == sset, H.vslabels.keys() == sset
    conn_ok, labels_ok = H.conn.keys() == tset, H.labels.keys() == eset
    if not (left_ok and vt_ok and right_ok and vs_ok and {
            *H.left.values(), *H.right.values()} - eset <= {INTERFACE}):
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

    # keyed by the distinct targets, onto the sources, one to one
    if not (conn_ok and len(H.targets) == len(tset) == len(sset)
            and set(H.conn.values()) == sset):
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

    if not labels_ok:
        for e in H.edges:
            if e not in H.labels:
                report.append(f"edge {e} has no label")
    # entries for ids the graph does not have would be dropped on save
    if not (left_ok and conn_ok and vt_ok and right_ok and vs_ok
            and labels_ok):
        for name, table, carrier, kind in (
                ("left", H.left, tset, "target"),
                ("conn", H.conn, tset, "target"),
                ("vtlabels", H.vtlabels, tset, "target"),
                ("right", H.right, sset, "source"),
                ("vslabels", H.vslabels, sset, "source"),
                ("labels", H.labels, eset, "edge")):
            for k in table:
                if k not in carrier:
                    report.append(f"{name} has an entry for {k}, which is"
                                  f" not a {kind} of the graph")
    if report:
        return report

    # label-arity agreement
    tgts, srcs = H.tgts, H.srcs
    vt, vs = H.vtlabels.__getitem__, H.vslabels.__getitem__
    shapes = {(lab, tuple(map(vs, srcs[e])), tuple(map(vt, tgts[e])))
              for e, lab in H.labels.items()}
    seen: set[str] = set()
    agree = True
    for lab, dom_w, cod_w in shapes:
        if (len(dom_w) != 1 or dom_w != cod_w if lab == IDENTITY_LABEL
                else lab in seen or sig is not None and (
                    lab not in sig or dom_w != sig.dom(lab)
                    or cod_w != sig.cod(lab))):
            agree = False
            break
        seen.add(lab)
    if not agree:
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
    if list(map(vt, H.conn)) != list(map(vs, H.conn.values())):
        for t, s in H.conn.items():
            if H.vtlabels.get(t) != H.vslabels.get(s):
                report.append(
                    f"wire {t}->{s} changes object label"
                    f" {H.vtlabels.get(t)!r} -> {H.vslabels.get(s)!r}")
    return report


def assert_valid(H: LinearHypergraph) -> LinearHypergraph:
    report = validate(H)
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


def next_id(H: LinearHypergraph) -> int:
    """Where new ids for ``H`` start: one more than its largest id, or 0.

    Ids need only be distinct within their graph, so every operation
    that adds elements to a graph numbers them from here."""
    return max(max(H.targets or (-1,)), max(H.sources or (-1,)),
               max(H.edges or (-1,))) + 1


def above(H: LinearHypergraph, F: LinearHypergraph) -> LinearHypergraph:
    """``H`` renumbered from ``next_id(F)`` on, along its targets, sources
    and edges: a copy that shares no id with ``F``."""
    ids = H.targets + H.sources + H.edges
    return rename(H, dict(zip(ids, count(next_id(F)))))


def freshen(H: LinearHypergraph) -> LinearHypergraph:
    """``H`` on ids above its own."""
    return above(H, H)


def _walk(H: LinearHypergraph, starts: Iterable[int | None],
          seen: set[int]) -> list[int]:
    """The edges reached breadth-first along wires from ``starts``, less
    those in ``seen``, which it extends.  From each edge the walk visits
    the far end of each target port, then of each source port, in port
    order."""
    right, left, conn, tgts, srcs, conn_inv = (H.right, H.left, H.conn,
                                               H.tgts, H.srcs, H.inv)
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
    tgts, srcs, conn_inv = H.tgts, H.srcs, H.inv
    t_port, s_port = H.port_index
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
    tgts, srcs, conn_inv = H.tgts, H.srcs, H.inv
    ins, outs = H.inputs(), H.outputs()
    seen: set[int] = set()
    edges = _walk(H, [H.right[H.conn[t]] for t in ins]
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
    perm = canonical_ids(H)
    n_t, n_s = len(targets), len(sources)
    return replace(rename(H, perm), targets=tuple(range(n_t)),
                   sources=tuple(range(n_t, n_t + n_s)),
                   edges=tuple(range(n_t + n_s, len(perm))))


def canonical_ids(H: LinearHypergraph) -> dict[int, int]:
    """Each id's number in ``canonical``: its position along the canonical
    labelling's targets, sources and edges.  A fresh dict.  Raises
    ``ValueError`` when the labelling does not list every stored id
    exactly once, as with duplicate ids."""
    targets, sources, edges = canonical_labelling(H)
    order = targets + sources + edges
    ids = dict(zip(order, range(len(order))))
    if len(ids) != len(H.targets) + len(H.sources) + len(H.edges):
        raise ValueError("the canonical labelling does not list every id of"
                         " the graph exactly once")
    return ids


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
        """Bijective maps that commute and keep the interfaces in order,
        checked in one pass with one set per map: a map keyed by F's
        elements whose images take in all of G's, of which there are as
        many, is a bijection (a graph's elements never repeat)."""
        F, G = self.src, self.dst
        for m, f, g in ((self.vmap_t, F.targets, G.targets),
                        (self.vmap_s, F.sources, G.sources),
                        (self.emap, F.edges, G.edges)):
            if not (len(f) == len(g) == len(m) and all(map(m.__contains__, f))
                    and set(m.values()).issuperset(g)):
                return False
        vt, vs = self.vmap_t, self.vmap_s
        return (commutes(F, G, vt, vs, self.emap)
                and tuple(map(vt.__getitem__, F.inputs())) == G.inputs()
                and tuple(map(vs.__getitem__, F.outputs())) == G.outputs())

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
    return commutes(F, G, h.vmap_t, h.vmap_s, h.emap)


def commutes(F: LinearHypergraph, G: LinearHypergraph | _Host,
             vmap_t: dict[int, int], vmap_s: dict[int, int],
             emap: dict[int, int]) -> bool:
    """Whether total maps of F's elements into G's keep connections, edge
    labels, ordered ports and object labels; O(|F|) given G's tables,
    a graph's or a host's."""
    for t in F.targets:
        if G.conn[vmap_t[t]] != vmap_s[F.conn[t]]:
            return False
    ftgts, fsrcs = F.tgts, F.srcs
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

#: A compiled search (:func:`_compile_search`): given a host, a graph
#: or a ``_Host``, it yields the maps of its pattern into that host.
Search = Callable[["LinearHypergraph | _Host"], Iterator[Found]]

# the kinds of element a search maps
_T, _S, _E = 0, 1, 2


class PatternTables:
    """What :func:`embeddings` reads from a pattern graph L beyond its
    derived tables; built once per graph, as ``LinearHypergraph.pattern``.

    ``components`` lists L's wire-connected components in
    stored order of their first edges, each as its edges in walk order
    from that first edge, and ``starts`` lists per component the labels
    it holds and its first edge of each: the edges its search may start
    at.  ``repeats`` pairs each label that L holds more than once with
    its count: a host with fewer edges of that label has no map.
    ``bare_wires`` run from L's input interface straight to its
    output interface.  ``out_wires`` leave an edge for the output
    interface and ``in_wires`` enter an edge from the input interface:
    their loose ends are bound last, up to homeomorphism, so propagation
    does not cross them.  ``searches`` holds the compiled searches
    (:func:`_compile_search`) by each component's start edge, each
    compiled on its first use.  The tables hold no reference to L, which
    caches them: a cycle would keep every pattern alive until the cyclic
    collector runs.
    """

    def __init__(self, L: LinearHypergraph) -> None:
        self.components: list[list[int]] = []
        placed: set[int] = set()
        for e in L.edges:
            if e not in placed:
                self.components.append(_walk(L, (e,), placed))
        self.starts: list[tuple[tuple[str, ...], tuple[int, ...]]] = []
        for comp in self.components:
            first: dict[str, int] = {}
            for e in comp:
                first.setdefault(L.labels[e], e)
            self.starts.append((tuple(first), tuple(first.values())))
        self.repeats = tuple((lab, n) for lab, n in
                             Counter(L.labels.values()).items() if n > 1)
        left, right, conn = L.left, L.right, L.conn
        self.bare_wires = [t for t in L.targets if left[t] is INTERFACE
                           and right[conn[t]] is INTERFACE]
        self.out_wires = [t for t in L.targets if left[t] is not INTERFACE
                          and right[conn[t]] is INTERFACE]
        self.in_wires = [t for t in L.targets if left[t] is INTERFACE
                         and right[conn[t]] is not INTERFACE]
        self.searches: dict[tuple, Search] = {}


def embeddings(L: LinearHypergraph, G: LinearHypergraph | _Host
               ) -> Iterator[Found]:
    """Yield maps of L into the graph or host G, up to wire
    homeomorphism, in a deterministic order.

    The wire-propagation engine behind matching: fixing the image of an
    edge fixes its ports, their wires and the edges beyond, so each
    choice is propagated to closure, and a clash rejects it.  The whole
    search is one generator compiled for L (:func:`_compile_search`) per
    choice of start edges, on the first search that needs it, and cached
    on L's pattern tables (``PatternTables.searches``); its source holds
    no text of L.  The maps come ordered by the host image of each edge
    component's first edge in L's stored order, in G's stored order,
    component by component; bare wires of L then range over the
    remaining wires of G.  L's interfaces may land anywhere.

    Fixing one edge fixes its whole component, so each component's
    search starts from its edge whose label has the fewest edges in G
    (the first such edge in walk order).  When that is not the
    component's first edge, the component's completions are collected,
    each propagated once, and sorted by G's stored order
    (``G.edge_seq``) of the first edge's image before the search goes
    on, which keeps the order above.  A host with fewer edges of one
    label than L has (``PatternTables.repeats``) is refused before any
    search: no injective map exists, but the nested loops would try
    every combination of images.

    The search takes G's tables to agree with each other, as every
    graph derives them and ``_Host`` keeps them: each
    edge's port tuples list, in order, the vertices whose ``left`` or
    ``right`` is that edge, ``inv`` inverts ``conn``, and
    ``by_label`` lists just the edges of each label.  So it checks only
    forward: it does not walk back from a port to the edge it was
    reached from, nor along a wire to the end it was reached from.

    The loose ends of L's boundary wires are bound last.  When the wire
    leaving the matched part re-enters it immediately (a loop through
    the pattern's boundary), the host wire must be split with an
    identity edge so both boundary wires fit.  The engine changes
    nothing: each yielded map comes with its list of splits
    ``(t, s, t2)``, in the order they are to be made, and the caller
    expands the host on the wire leaving target ``t``, mapping L's
    source ``s`` to the new source and L's target ``t2`` to the new
    target.  A candidate the search rejects thus leaves no trace.

    Every yielded map is total and injective once split, and commutes.
    Its dicts are its own, so a caller may complete them in place while
    the search goes on.  The rewriting driver stops at the first map
    and completes it on the host it searched, which it then rewrites;
    the exhaustive search and :func:`~linhyp.rewrite.find_matchings`
    complete every map one way (``rewrite._matches``), on a fresh copy
    of the graph where the map splits its wires.
    """
    P = L.pattern
    get = G.by_label.get
    if any(len(get(lab, ())) < n for lab, n in P.repeats):
        return iter(())
    starts = []
    for labels, edges in P.starts:
        if len(edges) > 1:
            sizes = [len(get(lab, ())) for lab in labels]
            edges = edges[sizes.index(min(sizes)):]
        starts.append(edges[0])
    key = tuple(starts)
    search = P.searches.get(key)
    if search is None:
        search = P.searches[key] = _compile_search(L, key)
    return search(G)


def _compile_search(L: LinearHypergraph, starts: tuple[int, ...]) -> Search:
    """The search for maps of L, starting each component at its edge in
    ``starts``, emitted as one Python generator function.

    It nests one ``for`` loop per component, in order, then one per bare
    wire.  A component searched from its first edge ranges over the
    host's edges of that label; one searched from another edge ranges
    over its completions, collected into a list first and sorted by the
    host's stored order of its first edge's image.  A bare wire ranges
    over the host's targets.  Each loop body propagates the image it
    draws through its component into locals, in the order the
    propagation reaches the elements, and checks as it goes what the
    propagation must: object and edge labels, port counts, that a port
    sits at its index on its edge and that a wire agrees with ``conn``
    where an element is reached a second time, that no image is bound
    by an enclosing loop, and at the end that none is used twice.  A
    host lookup comes only after the checks that guard it.  The
    innermost body binds the loose ends of L's boundary wires (up to
    homeomorphism) in straight-line code and yields fresh maps; a
    rejected candidate writes nothing.

    The source holds only keywords, local names, host table names and
    port counts; L's labels and ids enter as constants bound to the
    search, so no text of a graph file is ever compiled.  Compiling one
    takes about 1 ms.
    """
    P = L.pattern
    ins, outs = P.in_wires, P.out_wires
    # per vertex kind: its object labels, the wires propagation does not
    # cross, the wire to its far end and the edge it sits on, in L and
    # as host tables
    vertex = {_T: ("vtlabels", L.vtlabels, set(outs), "conn", L.conn,
                   "left", L.left),
              _S: ("vslabels", L.vslabels, {L.conn[t] for t in ins},
                   "inv", L.inv, "right", L.right)}
    consts: dict = {}  # each constant the search binds, by value
    tables: dict[str, None] = {}  # the host tables it reads
    body: list[str] = []
    indent = "        "
    names = count()
    bound: tuple[dict[int, str], ...] = ({}, {}, {})  # by enclosing loops

    def const(x) -> str:
        if x not in consts:
            consts[x] = f"k{len(consts)}"
        return consts[x]

    def table(name: str) -> str:
        tables[name] = None
        return f"G_{name}"

    def emit(line: str) -> None:
        body.append(indent + line)

    def fresh() -> str:
        return f"x{next(names)}"

    def local(expr: str) -> str:
        name = fresh()
        emit(f"{name} = {expr}")
        return name

    def fail_if(cond: str) -> None:
        emit(f"if {cond}: continue")

    def unbound(k: int, x: str) -> None:
        if bound[k]:
            fail_if(f"{x} in ({', '.join(bound[k].values())},)")

    def literal(k: int) -> str:
        return "{" + ", ".join(f"{const(a)}: {x}"
                               for a, x in bound[k].items()) + "}"

    def propagate(start: int, x0: str) -> list[tuple[int, int, str]]:
        """Emit the propagation of ``start``'s image ``x0``; return the
        images it binds, as reached."""
        images: tuple[dict[int, str], ...] = ({}, {}, {})
        order: list[tuple[int, int]] = []
        done: set[tuple[int, int]] = set()

        def put(k: int, a: int, x: str) -> None:
            unbound(k, x)
            images[k][a] = x
            order.append((k, a))

        put(_E, start, x0)
        for k, a in order:  # grows while it is read: the agenda
            done.add((k, a))
            x = images[k][a]
            if k == _E:
                if a != start:  # the start is drawn by its label
                    fail_if(f"{table('labels')}[{x}] != {const(L.labels[a])}")
                for side, vk, ports in (("tgts", _T, L.tgts[a]),
                                        ("srcs", _S, L.srcs[a])):
                    p = local(f"{table(side)}[{x}]")
                    fail_if(f"len({p}) != {len(ports)}")
                    if not ports:
                        continue
                    got = [fresh() for _ in ports]
                    emit(f"{', '.join(got)}, = {p}")
                    for u, y in zip(ports, got):
                        if u in images[vk]:
                            fail_if(f"{y} != {images[vk][u]}")
                        else:
                            put(vk, u, y)
                continue
            labs, lab, defer, wire, far, side, edge = vertex[k]
            fail_if(f"{table(labs)}[{x}] != {const(lab[a])}")
            if a not in defer:
                b = far[a]
                if b not in images[1 - k]:
                    put(1 - k, b, local(f"{table(wire)}[{x}]"))
                elif (1 - k, b) not in done:  # else it has checked this wire
                    fail_if(f"{table(wire)}[{x}] != {images[1 - k][b]}")
            e = edge[a]
            if e is not INTERFACE and e not in images[_E]:
                d = local(f"{table(side)}[{x}]")
                fail_if(f"{d} is None")
                put(_E, e, d)
        for k in (_T, _S, _E):
            if len(images[k]) > 1:
                fail_if(f"len({{{', '.join(images[k].values())}}})"
                        f" != {len(images[k])}")
        return [(k, a, images[k][a]) for k, a in order]

    for comp, start in zip(P.components, starts):
        x = fresh()
        edges = f"{table('by_label')}.get({const(L.labels[start])}, ())"
        if start == comp[0]:
            emit(f"for {x} in {edges}:")
            indent += "    "
            found = propagate(start, x)
        else:
            c = fresh()
            emit(f"{c} = []")
            emit(f"for {x} in {edges}:")
            indent += "    "
            found = propagate(start, x)
            xs = ", ".join(y for _, _, y in found)
            first = next(y for k, a, y in found if k == _E and a == comp[0])
            emit(f"{c}.append(({table('edge_seq')}[{first}], {xs}))")
            indent = indent[:-4]
            emit(f"{c}.sort()")
            emit(f"for _, {xs} in {c}:")
            indent += "    "
        for k, a, y in found:
            bound[k][a] = y
    for a in P.bare_wires:
        x = fresh()
        emit(f"for {x} in {table('targets')}:")
        indent += "    "
        unbound(_T, x)
        fail_if(f"{table('vtlabels')}[{x}] != {const(L.vtlabels[a])}")
        y = local(f"{table('conn')}[{x}]")
        unbound(_S, y)
        fail_if(f"{table('vslabels')}[{y}] != {const(L.vslabels[L.conn[a]])}")
        bound[_T][a], bound[_S][L.conn[a]] = x, y

    # up to homeomorphism, the boundary wires' loose ends: an out-wire
    # whose host wire feeds straight back into an in-wire is split there
    ends = {a: local(f"{table('inv')}[{bound[_S][L.conn[a]]}]")
            for a in ins}
    loose = {}  # an out-wire's L source, and its host image
    splits = "splits" if ends and outs else "[]"
    if ends and outs:
        emit("splits = []")
    for c in outs:
        d, t, s = L.conn[c], bound[_T][c], fresh()
        if ends:
            emit(f"{s} = None")
            for i, (a, w) in enumerate(ends.items()):
                emit(f"{'elif' if i else 'if'} {t} == {w}:")
                if L.vslabels[d] != L.vtlabels[a]:
                    emit("    continue")
                    continue
                # both ends of the split carry the wire's object label
                emit(f"    if {table('vtlabels')}[{t}] !="
                     f" {const(L.vslabels[d])}: continue")
                emit(f"    splits.append(({t}, {const(d)}, {const(a)}))")
                emit(f"    {w} = None")
            emit("else:")
            indent += "    "
        emit(f"{s} = {table('conn')}[{t}]")
        unbound(_S, s)
        fail_if(f"{table('vslabels')}[{s}] != {const(L.vslabels[d])}")
        if ends:
            indent = indent[:-4]
        loose[d] = s
    for a, w in ends.items():
        guard = f"{w} is not None and " if loose else ""
        if bound[_T]:
            fail_if(f"{guard}{w} in ({', '.join(bound[_T].values())},)")
        fail_if(f"{guard}{table('vtlabels')}[{w}] != {const(L.vtlabels[a])}")
    emit(f"tmap, smap = {literal(_T)}, {literal(_S)}")
    for d, s in loose.items():
        emit(f"if {s} is not None: smap[{const(d)}] = {s}" if ends
             else f"smap[{const(d)}] = {s}")
    for a, w in ends.items():
        emit(f"if {w} is not None: tmap[{const(a)}] = {w}" if loose
             else f"tmap[{const(a)}] = {w}")
    emit(f"yield tmap, smap, {literal(_E)}, {splits}")
    source = "\n".join(
        [f"def _bind({', '.join(consts.values())}):",
         "    def search(G):"]
        + [f"        G_{name} = G.{name}" for name in tables]
        + body + ["    return search"])
    scope: dict = {}
    exec(compile(source, "<compiled search>", "exec"), scope)
    return scope.pop("_bind")(*consts)


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
    """Insert one identity edge on the wire leaving target vertex ``w``
    (:meth:`_Host.expand`)."""
    if w not in H.conn:
        raise ValueError(f"{w} is not a target vertex")
    h = _Host(H)
    h.expand(w)
    return h.freeze()


def smooth(H: LinearHypergraph) -> LinearHypergraph:
    """Remove every identity edge, plugging its source port into its
    target port (:meth:`_Host.smooth`)."""
    if IDENTITY_LABEL not in H.labels.values():
        return H
    h = _Host(H)
    h.smooth()
    return h.freeze()


class _Host:
    """A graph edited in place: the one splice (:meth:`plug`), the one
    split (:meth:`cut`), the graph :func:`~linhyp.interp.interpret`
    builds, from :data:`EMPTY`, the circuit that
    :func:`~linhyp.circuits.evaluate` holds and each round's copy of
    it, and the host that the DPO steps of :mod:`linhyp.rewrite`
    rewrite in place.  ``_Host(G)`` copies a graph or a live host alike.

    It keeps current, under the graph's names, every derived table of a
    graph that the search reads of a host, so the search reads it live;
    it has no port index, which the search reads only of the pattern.
    ``targets``, ``sources`` and ``labels`` are insertion-ordered and
    list the vertices and edges in the stored order that
    :func:`~linhyp.rewrite.pushout_complement`,
    :func:`~linhyp.rewrite.pushout` and :func:`smooth` give: survivors
    keep their order and new elements follow in the order they are
    made, except that each edge of R moves its ports, glued ones too,
    to the end in R's order, so that it keeps R's port words.
    ``edge_seq`` numbers the edges in stored order, for the search to
    sort by.  ``new_ids`` counts up from ``next_id(G)``, so each new
    element's id is above every id the host has had.  The host
    :func:`~linhyp.interp.interpret` builds from :data:`EMPTY` leaves
    ``by_label`` and ``edge_seq`` empty until :meth:`index` fills them.
    """

    # the graph's, read off the host's tables, so ``_Host(host)`` copies it
    inputs, outputs = LinearHypergraph.inputs, LinearHypergraph.outputs
    edges = property(lambda self: self.labels.keys())

    def __init__(self, G: LinearHypergraph) -> None:
        # every table is a mutable copy of the graph's, in stored order
        self.targets = dict.fromkeys(G.targets)
        self.sources = dict.fromkeys(G.sources)
        self.labels = {e: G.labels[e] for e in G.edges}
        self.left, self.right = dict(G.left), dict(G.right)
        self.conn, self.inv = dict(G.conn), dict(G.inv)
        self.vtlabels, self.vslabels = dict(G.vtlabels), dict(G.vslabels)
        self.tgts, self.srcs = dict(G.tgts), dict(G.srcs)
        self.by_label = {lab: dict.fromkeys(es)
                         for lab, es in G.by_label.items()}
        self.tick = count()
        self.edge_seq = dict(zip(G.edges, self.tick))
        self.new_ids = count(next_id(G))

    def index(self) -> None:
        """Fill the empty ``by_label`` and ``edge_seq`` in one pass over
        the edges in stored order, as a copy of the host's graph would."""
        by_label, edge_seq, tick = self.by_label, self.edge_seq, self.tick
        for e, lab in self.labels.items():
            by_label.setdefault(lab, {})[e] = None
            edge_seq[e] = next(tick)

    def freeze(self) -> LinearHypergraph:
        """The graph, holding the host's port tables and ``inv`` as its
        own: those it would derive, in its order (``inv`` in any)."""
        H = LinearHypergraph(
            tuple(self.targets), tuple(self.sources), tuple(self.labels),
            self.left, self.right, self.conn, self.labels, self.vtlabels,
            self.vslabels)
        H.__dict__.update(tgts=self.tgts, srcs=self.srcs, inv=self.inv)
        return H

    def plug(self, outs: Sequence[int], ins: Sequence[int]) -> None:
        """Continue the wire entering each source of ``outs`` where the
        wire leaving the target beside it in ``ins`` went, and delete
        those vertices: the one splice of interpretation, composition,
        trace and smoothing.  A wire runs on through any number of
        plugged pairs, and one that closes on itself vanishes."""
        for s, t in zip(outs, ins):
            before, after = self.inv.pop(s), self.conn.pop(t)
            if before != t:  # else the wire closes on itself
                self.conn[before], self.inv[after] = after, before
        for t in ins:  # then one group of tables a pass, for locality
            del self.targets[t], self.left[t], self.vtlabels[t]
        for s in outs:
            del self.sources[s], self.right[s], self.vslabels[s]

    def smooth(self) -> None:
        """Splice out every identity edge with one :meth:`plug`."""
        ids = self.by_label.pop(IDENTITY_LABEL, ())
        for e in ids:
            del self.labels[e], self.edge_seq[e]
        self.plug([self.srcs.pop(e)[0] for e in ids],
                  [self.tgts.pop(e)[0] for e in ids])

    def cut(self, w: int, label: str) -> tuple[int, int]:
        """Cut the wire leaving target ``w``: ``w`` now ends at a new
        output, and a new edge ``label`` with no source port feeds the
        rest of the wire from its one target, so the graph stays linear;
        the one split.  Return the new output and edge."""
        t, s, e = islice(self.new_ids, 3)
        self.targets[t] = self.sources[s] = None
        self.left[t], self.right[s] = e, INTERFACE
        self.vtlabels[t] = self.vslabels[s] = self.vtlabels[w]
        self.labels[e] = label
        self.tgts[e], self.srcs[e] = (t,), ()
        self.by_label.setdefault(label, {})[e] = None
        self.edge_seq[e] = next(self.tick)
        self.conn[t] = after = self.conn[w]
        self.inv[after] = t
        self.conn[w], self.inv[s] = s, w
        return s, e

    def expand(self, w: int) -> tuple[int, int, int]:
        """Insert one identity edge on the wire leaving target ``w``: the
        :meth:`cut`, its new edge taking the loose end as its source
        port.  Return the edge's new target, source and id."""
        s, e = self.cut(w, IDENTITY_LABEL)
        self.right[s], self.srcs[e] = e, (s,)
        return self.tgts[e][0], s, e

    def rewrite(self, rule, vmap_t: dict[int, int], vmap_s: dict[int, int],
                emap: dict[int, int]) -> None:
        """One DPO step of ``rule`` at a match of its left side, in
        O(|L| + |R|): the rule's step (``rule._stepper``), compiled from
        its plan.

        Delete the image of L less K's, glue a fresh copy of R along K,
        and splice out the identity edges: the graph of
        :func:`~linhyp.rewrite.pushout_complement`,
        :func:`~linhyp.rewrite.pushout` and :func:`smooth` at that match,
        which a rule's span glues without a refusal.  The match must be
        an embedding, as :func:`embeddings` yields it and
        :func:`~linhyp.rewrite.apply_rewrite` checks it.
        """
        rule._stepper(self, vmap_t, vmap_s, emap)
