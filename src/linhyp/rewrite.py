"""Double-pushout rewriting on linear hypergraphs.

A rule is a span ``L <- K -> R`` with an edge-free interface ``K``.  A
step finds an embedding of ``L`` in a host graph, removes ``L`` up to the
interface (pushout complement), and glues ``R`` back in (pushout).
Rules whose interface legs would collapse a straight-through wire are
saturated with identity edges first; matching such rules transparently
expands the host on the wires the identity edges need.  Every step is
made in place on a mutable copy of the host (``_Host``); the pushout
constructions build the same graph and are kept as its reference.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterator, Sequence

from .graphs import (IDENTITY_LABEL, INTERFACE, Found, GraphView,
                     Homomorphism, LinearHypergraph, embeddings, expand,
                     fresh_ids, freshen, smooth)
from .interp import interpret
from .ops import identity as identity_graph
from .serialize import save_graph
from .terms import (ParseError, Signature, Term, TypeMismatch, _is_name,
                    parse_term, type_of)


class RewriteError(Exception):
    pass


@dataclass(frozen=True)
class RewriteRule:
    name: str
    L: LinearHypergraph
    K: LinearHypergraph
    R: LinearHypergraph
    left_leg: Homomorphism
    right_leg: Homomorphism

    @cached_property
    def labels(self) -> frozenset[str]:
        """The labels of L's edges, identity edges aside: a host that
        lacks one of them has no match."""
        return frozenset(self.L.labels.values()) - {IDENTITY_LABEL}

    @cached_property
    def _search(self) -> tuple[LinearHypergraph, list[tuple[int, list[int]]]]:
        """What matching searches for L, and L's identity chains."""
        return _pattern(self.L)

    @cached_property
    def _step(self) -> _StepPlan:
        """What a DPO step of this rule does at any match."""
        return _StepPlan(self)


@dataclass(frozen=True)
class Matching:
    """An embedding of a rule's left side into a host graph.

    ``host`` is the graph the embedding lands in: the original graph, or
    a homeomorphic expansion of it when the left side carries identity
    edges.
    """

    embedding: Homomorphism
    host: LinearHypergraph


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _interface_leg(K: LinearHypergraph, X: LinearHypergraph) -> Homomorphism:
    """Map the i-th input wire of K to X's i-th input wire, and the j-th
    output wire to X's j-th output wire."""
    m = len(X.dom())
    conn_inv = X.view.conn_inv
    ins, outs = X.inputs(), X.outputs()
    vmap_t: dict[int, int] = {}
    vmap_s: dict[int, int] = {}
    for i, kt in enumerate(K.targets):
        if i < m:
            vmap_t[kt] = ins[i]
            vmap_s[K.conn[kt]] = X.conn[ins[i]]
        else:
            j = i - m
            vmap_s[K.conn[kt]] = outs[j]
            vmap_t[kt] = conn_inv[outs[j]]
    return Homomorphism(K, X, vmap_t, vmap_s, {})


def rule_from_terms(lhs: Term, rhs: Term, sig: Signature,
                    name: str = "rule") -> RewriteRule:
    """Compile a pair of terms into a saturated rule span."""
    if type_of(lhs, sig) != type_of(rhs, sig):
        raise TypeMismatch("rule sides must share a type")
    L = interpret(lhs, sig)
    R = interpret(rhs, sig)
    return saturate_rule(_make_rule(name, L, R))


def _make_rule(name: str, L: LinearHypergraph,
               R: LinearHypergraph) -> RewriteRule:
    K = identity_graph(L.dom() + L.cod())
    return RewriteRule(name, L, K, R,
                       _interface_leg(K, L), _interface_leg(K, R))


def _straight_wires(X: LinearHypergraph) -> list[int]:
    outs = set(X.outputs())
    return [t for t in X.inputs() if X.conn[t] in outs]


def saturate_rule(rule: RewriteRule) -> RewriteRule:
    """Expand straight-through wires on either side with identity edges
    so that both interface legs become embeddings.  Idempotent."""
    L, R = rule.L, rule.R
    changed = False
    for t in _straight_wires(L):
        L = expand(L, t)
        changed = True
    for t in _straight_wires(R):
        R = expand(R, t)
        changed = True
    if not changed and rule.left_leg.is_embedding() and rule.right_leg.is_embedding():
        return rule
    return _make_rule(rule.name, L, R)


def parse_rules(text: str, sig: Signature) -> list[RewriteRule]:
    """Rule file: one ``name : lhs => rhs`` line per rule, each with its
    own name: generator-style names joined by ``-`` (``copy-nat``).
    Errors name their line and keep their class; a parse error gives
    its position in the line as written."""
    rules: dict[str, RewriteRule] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        try:
            name_part, rest = line.split(":", 1)
            lhs_part, rhs_part = rest.split("=>", 1)
        except ValueError:
            raise RewriteError(f"line {lineno}: expected 'name : lhs => rhs'")
        name = name_part.strip()
        if not all(map(_is_name, name.split("-"))):
            raise RewriteError(
                f"line {lineno}: {name!r} is not a rule name (names made of"
                " letters, digits and '_', joined by '-')")
        if name in rules:
            raise RewriteError(f"line {lineno}: duplicate rule name {name!r}")
        # each side is parsed where it stands in the line, blanks before
        # it, so that a parse error gives its position in the line
        at = len(name_part) + 1
        try:
            lhs = parse_term(" " * at + lhs_part.rstrip(), sig)
            at += len(lhs_part) + len("=>")
            rhs = parse_term(" " * at + rhs_part.rstrip(), sig)
            rules[name] = rule_from_terms(lhs, rhs, sig, name)
        except (ParseError, TypeMismatch) as exc:
            exc.args = (f"line {lineno}: {exc}",)
            raise
    return list(rules.values())


# ---------------------------------------------------------------------------
# Matching
# ---------------------------------------------------------------------------

def _identity_chains(L: LinearHypergraph) -> list[tuple[int, list[int]]]:
    """Maximal runs of identity edges, each anchored at the surviving
    target vertex that feeds the run."""
    view = L.view
    tgts, srcs, conn_inv = view.tgts, view.srcs, view.conn_inv
    id_edges = [e for e in L.edges if L.labels[e] == IDENTITY_LABEL]

    def is_ident(e: int | None) -> bool:
        return e is not INTERFACE and L.labels[e] == IDENTITY_LABEL

    heads = [e for e in id_edges
             if not is_ident(L.left[conn_inv[srcs[e][0]]])]
    chains: list[tuple[int, list[int]]] = []
    used: set[int] = set()
    for h in heads:
        chain = [h]
        used.add(h)
        cur = h
        while True:
            nxt = L.right[L.conn[tgts[cur][0]]]
            if is_ident(nxt):
                chain.append(nxt)
                used.add(nxt)
                cur = nxt
            else:
                break
        chains.append((conn_inv[srcs[h][0]], chain))
    if len(used) != len(id_edges):
        raise RewriteError(
            "left side contains a closed loop of identity edges; it cannot"
            " anchor a match")
    return chains


def _pattern(L: LinearHypergraph
             ) -> tuple[LinearHypergraph, list[tuple[int, list[int]]]]:
    """The graph the search matches for L: L itself or, when L carries
    identity edges, L smoothed, with the identity chains that matching
    expands the host along."""
    if not any(L.labels[e] == IDENTITY_LABEL for e in L.edges):
        return L, []
    chains = _identity_chains(L)
    return smooth(L), chains


def _complete(L: LinearHypergraph, chains: list[tuple[int, list[int]]],
              found: Found, split: Callable[[int], tuple[int, int, int]]
              ) -> tuple[dict[int, int], dict[int, int], dict[int, int]]:
    """Turn a map the search found into a map of L: make the host splits
    it lists, then expand the host along L's identity chains, in that
    order.  ``split(t)`` inserts an identity edge on the host wire
    leaving target ``t`` and returns the new target, source and edge."""
    vmap_t, vmap_s, emap, splits = found
    for t_w, s, t in splits:
        vmap_t[t], vmap_s[s], _ = split(t_w)
    ltgts, lsrcs = L.view.tgts, L.view.srcs
    for t0, chain in chains:
        cur = vmap_t[t0]
        for e in chain:
            cur, vmap_s[lsrcs[e][0]], emap[e] = split(cur)
            vmap_t[ltgts[e][0]] = cur
    return vmap_t, vmap_s, emap


def find_matchings(L: LinearHypergraph, G: LinearHypergraph,
                   up_to_homeo: bool = False) -> list[Matching]:
    """All ways the pattern L embeds into G, in :func:`matchings` order."""
    return list(matchings(L, G, up_to_homeo))


def matchings(L: LinearHypergraph, G: LinearHypergraph,
              up_to_homeo: bool = False) -> Iterator[Matching]:
    """Yield the ways the pattern L embeds into G, one at a time.

    Identity edges in L match by expanding the corresponding wire of G,
    so the returned host may be a homeomorphic expansion of G.  With
    ``up_to_homeo``, boundary wires of L may also share one host wire
    (the rewrite theory works up to wire homeomorphism; loops through a
    redex need this).
    """
    pattern, chains = _pattern(L)
    for found in embeddings(pattern, G.view, up_to_homeo):
        host = G

        def split(t: int) -> tuple[int, int, int]:
            nonlocal host
            host = expand(host, t)
            return host.targets[-1], host.sources[-1], host.edges[-1]

        vmap_t, vmap_s, emap = _complete(L, chains, found, split)
        yield Matching(Homomorphism(L, host, vmap_t, vmap_s, emap), host)


# ---------------------------------------------------------------------------
# Pushouts
# ---------------------------------------------------------------------------

def pushout_complement(left_leg: Homomorphism, match: Homomorphism
                       ) -> tuple[Homomorphism, Homomorphism]:
    """Remove the matched copy of L from G, keeping the interface image.

    Vertices of L outside K's image and all matched L-edges are deleted;
    wires severed by the deletion are rerouted to the interface.
    Returns the legs ``K -> C`` and ``C -> G``.
    """
    K, L, G = left_leg.src, left_leg.dst, match.dst
    if not left_leg.is_embedding() or not match.is_embedding():
        raise RewriteError("pushout complement needs embeddings")
    keep_t = {match.vmap_t[left_leg.vmap_t[k]] for k in K.targets}
    keep_s = {match.vmap_s[left_leg.vmap_s[k]] for k in K.sources}
    kill_t = {match.vmap_t[v] for v in L.targets} - keep_t
    kill_s = {match.vmap_s[v] for v in L.sources} - keep_s
    kill_e = ({match.emap[e] for e in L.edges}
              - {match.emap[left_leg.emap[k]] for k in K.edges})

    # embeddings commute with conn, so no kept target loses its source
    targets = tuple(v for v in G.targets if v not in kill_t)
    sources = tuple(v for v in G.sources if v not in kill_s)
    C = LinearHypergraph(
        targets=targets,
        sources=sources,
        edges=tuple(e for e in G.edges if e not in kill_e),
        left={v: INTERFACE if G.left[v] in kill_e else G.left[v]
              for v in targets},
        right={v: INTERFACE if G.right[v] in kill_e else G.right[v]
               for v in sources},
        conn={t: G.conn[t] for t in targets},
        labels={e: lab for e, lab in G.labels.items() if e not in kill_e},
        vtlabels={v: l for v, l in G.vtlabels.items() if v not in kill_t},
        vslabels={v: l for v, l in G.vslabels.items() if v not in kill_s},
    )
    k_to_c = Homomorphism(
        K, C,
        {k: match.vmap_t[left_leg.vmap_t[k]] for k in K.targets},
        {k: match.vmap_s[left_leg.vmap_s[k]] for k in K.sources},
        {k: match.emap[left_leg.emap[k]] for k in K.edges},
    )
    c_to_g = Homomorphism(
        C, G,
        {v: v for v in C.targets},
        {v: v for v in C.sources},
        {e: e for e in C.edges},
    )
    return k_to_c, c_to_g


def pushout(m: Homomorphism, n: Homomorphism
            ) -> tuple[LinearHypergraph, Homomorphism, Homomorphism]:
    """Glue the codomains of ``m : K -> C`` and ``n : K -> R`` along K.

    Requires an edge-free K, embeddings, and boundary coherence; the
    violating vertex is reported otherwise.  Each edge of R keeps R's
    port words: C's and R's vertices that no edge of R attaches come
    first, in that order, then each edge of R's ports in R's order.
    """
    K, C = m.src, m.dst
    if K.edges:
        raise RewriteError("pushout interface must be edge-free")
    if not m.is_embedding() or not n.is_embedding():
        raise RewriteError("pushout needs a span of embeddings")
    R_orig = n.dst
    R = freshen(R_orig)
    lift = dict(zip(R_orig.targets + R_orig.sources + R_orig.edges,
                    R.targets + R.sources + R.edges))
    n_t = {k: lift[v] for k, v in n.vmap_t.items()}
    n_s = {k: lift[v] for k, v in n.vmap_s.items()}

    rep_t = {n_t[k]: m.vmap_t[k] for k in K.targets}
    rep_s = {n_s[k]: m.vmap_s[k] for k in K.sources}
    ends = [(k, C.left[m.vmap_t[k]], R.left[n_t[k]]) for k in K.targets]
    ends += [(k, C.right[m.vmap_s[k]], R.right[n_s[k]]) for k in K.sources]
    for k, c_edge, r_edge in ends:
        if c_edge is not INTERFACE and r_edge is not INTERFACE:
            raise RewriteError(
                f"not boundary coherent: interface vertex {k} is"
                " edge-attached on both sides")

    r_only_t = tuple(v for v in R.targets if v not in rep_t)
    r_only_s = tuple(v for v in R.sources if v not in rep_s)

    left = {v: C.left[v] for v in C.targets}
    for k in K.targets:
        if C.left[m.vmap_t[k]] is INTERFACE:
            left[m.vmap_t[k]] = R.left[n_t[k]]
    left.update((v, R.left[v]) for v in r_only_t)

    right = {v: C.right[v] for v in C.sources}
    for k in K.sources:
        if C.right[m.vmap_s[k]] is INTERFACE:
            right[m.vmap_s[k]] = R.right[n_s[k]]
    right.update((v, R.right[v]) for v in r_only_s)

    conn = dict(C.conn)
    for v in r_only_t:
        s = R.conn[v]
        conn[v] = rep_s.get(s, s)

    rtgts, rsrcs = R.view.tgts, R.view.srcs
    ports_t = tuple(rep_t.get(v, v) for e in R.edges for v in rtgts[e])
    ports_s = tuple(rep_s.get(v, v) for e in R.edges for v in rsrcs[e])
    moved_t, moved_s = set(ports_t), set(ports_s)
    H = LinearHypergraph(
        targets=tuple(v for v in C.targets + r_only_t
                      if v not in moved_t) + ports_t,
        sources=tuple(v for v in C.sources + r_only_s
                      if v not in moved_s) + ports_s,
        edges=C.edges + R.edges,
        left=left,
        right=right,
        conn=conn,
        labels={**C.labels, **R.labels},
        vtlabels={**C.vtlabels, **{v: R.vtlabels[v] for v in r_only_t}},
        vslabels={**C.vslabels, **{v: R.vslabels[v] for v in r_only_s}},
    )
    c_to_h = Homomorphism(C, H, {v: v for v in C.targets},
                          {v: v for v in C.sources},
                          {e: e for e in C.edges})
    r_to_h = Homomorphism(
        R_orig, H,
        {v: rep_t.get(lift[v], lift[v]) for v in R_orig.targets},
        {v: rep_s.get(lift[v], lift[v]) for v in R_orig.sources},
        {e: lift[e] for e in R_orig.edges},
    )
    return H, c_to_h, r_to_h


# ---------------------------------------------------------------------------
# Steps and the driver
# ---------------------------------------------------------------------------

def apply_rewrite(G: LinearHypergraph, rule: RewriteRule,
                  match: Matching) -> LinearHypergraph:
    """One DPO step at the given match, on a copy of ``match.host`` (G
    or an expansion of it), by :meth:`_Host.rewrite`: it gives what
    :func:`pushout_complement`, :func:`pushout` and
    :func:`~linhyp.graphs.smooth` give and raises what they raise."""
    if not match.embedding.is_embedding():
        raise RewriteError("pushout complement needs embeddings")
    m = match.embedding
    host = _Host(match.host)
    host.rewrite(rule, m.vmap_t, m.vmap_s, m.emap)
    return host.freeze()


@dataclass(frozen=True)
class Step:
    index: int
    rule: str
    edges: tuple[int, ...]

    def __str__(self) -> str:
        return f"step {self.index}: rule {self.rule} at edges {list(self.edges)}"


@dataclass
class NormalizeResult:
    graph: LinearHypergraph
    steps: list[Step] = field(default_factory=list)
    exhausted: bool = False


class _StepPlan:
    """What a DPO step of one rule does at any match, worked out once
    from the span ``L <- K -> R``, so that a step only looks the match
    up and writes the host (Ehrig, Ehrig, Prange & Taentzer, 2006, give
    the gluing conditions as properties of the rule).

    ``error`` is the error the span raises at every match, in the
    order :func:`pushout_complement` and :func:`pushout` check: a left
    leg that is not an embedding, an interface with edges, a right leg
    that is not an embedding.  The other fields are set only when it is
    None.

    A step gives R's elements their host ids in one list of slots,
    ``img``: fresh ids for R's new targets, new sources and edges, in
    that order (``fresh`` of them), then the host images of ``keep_t``
    and ``keep_s``, L's elements that K maps to, in K's order, then
    INTERFACE, so slot -1 stands for it.

    - ``check_t`` and ``check_s`` pair a K vertex with its L vertex
      where that L vertex is on the interface and R's is attached: only
      there can the host be attached too, which boundary coherence
      forbids.
    - ``kill_t``, ``kill_s`` and ``kill_e`` are L's elements outside K's
      image, which the step deletes.
    - ``glue_t`` and ``glue_s`` give the slots of a kept vertex and of
      the edge R attaches it to (or -1), where L or R attaches it.
    - ``new_t``, ``new_s``, ``links`` and ``edges`` make R's new
      elements in R's stored order: their slots, the slots of their
      edges, ports and wires, and their labels.
    """

    def __init__(self, rule: RewriteRule) -> None:
        K, L, R = rule.K, rule.L, rule.R
        ll, rl = rule.left_leg, rule.right_leg
        self.error = (
            "pushout complement needs embeddings" if not ll.is_embedding()
            else "pushout interface must be edge-free" if K.edges
            else "pushout needs a span of embeddings"
            if not rl.is_embedding() else None)
        if self.error is not None:
            return
        self.keep_t = [ll.vmap_t[k] for k in K.targets]
        self.keep_s = [ll.vmap_s[k] for k in K.sources]
        kept_t, kept_s = set(self.keep_t), set(self.keep_s)
        self.kill_t = [v for v in L.targets if v not in kept_t]
        self.kill_s = [v for v in L.sources if v not in kept_s]
        self.kill_e = list(L.edges)

        glued_t = {rl.vmap_t[k]: i for i, k in enumerate(K.targets)}
        glued_s = {rl.vmap_s[k]: i for i, k in enumerate(K.sources)}
        new_t = [v for v in R.targets if v not in glued_t]
        new_s = [v for v in R.sources if v not in glued_s]
        slots = itertools.count()
        slot_t = {v: next(slots) for v in new_t}
        slot_s = {v: next(slots) for v in new_s}
        slot_e = {e: next(slots) for e in R.edges}
        self.fresh = n = next(slots)
        slot_e[INTERFACE] = -1
        slot_t.update((v, n + i) for v, i in glued_t.items())
        n += len(K.targets)
        slot_s.update((v, n + i) for v, i in glued_s.items())

        self.check_t, self.glue_t = self._glue(
            K.targets, self.keep_t, L.left, rl.vmap_t, R.left, slot_t, slot_e)
        self.check_s, self.glue_s = self._glue(
            K.sources, self.keep_s, L.right, rl.vmap_s, R.right, slot_s,
            slot_e)
        self.new_t = [(slot_t[v], slot_e[R.left[v]], R.vtlabels[v])
                      for v in new_t]
        self.new_s = [(slot_s[v], slot_e[R.right[v]], R.vslabels[v])
                      for v in new_s]
        self.links = [(slot_t[v], slot_s[R.conn[v]]) for v in new_t]
        rtgts, rsrcs = R.view.tgts, R.view.srcs
        self.edges = [(slot_e[e], R.labels[e],
                       [slot_t[v] for v in rtgts[e]],
                       [slot_s[v] for v in rsrcs[e]]) for e in R.edges]

    @staticmethod
    def _glue(ks: Sequence[int], keep: list[int], l_side: dict, r_map: dict,
              r_side: dict, slot: dict, slot_e: dict
              ) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """The coherence checks and the attachments of K's targets (or
        of its sources), given each vertex's edge in L and in R."""
        check, glue = [], []
        for k, v in zip(ks, keep):
            r = r_map[k]
            r_edge = r_side[r]
            if l_side[v] is INTERFACE:
                if r_edge is INTERFACE:
                    continue
                check.append((k, v))
            glue.append((slot[r], slot_e[r_edge]))
        return check, glue


class _Host(GraphView):
    """A host graph that DPO steps rewrite in place: the one step engine
    behind :func:`normalize`, :func:`normal_forms` and :func:`apply_rewrite`.

    It keeps the tables of a :class:`GraphView` current, so the search
    reads it live; only the port index, which the search reads of the
    pattern and never of the host, is not kept.  ``targets``,
    ``sources`` and ``labels`` are insertion-ordered and list the
    vertices and edges in the stored order that
    :func:`pushout_complement`, :func:`pushout` and
    :func:`~linhyp.graphs.smooth` give, which the tests check it
    against: survivors keep their order and new elements follow in the
    order they are made, except that each edge of R moves its ports,
    glued ones too, to the end in R's order, so that it keeps R's port
    words.  ``edge_seq`` numbers the edges in stored order, for the
    search to sort by.
    """

    def __init__(self, G: LinearHypergraph) -> None:
        # every table is a mutable copy of the view's, in stored order
        v = G.view
        self.targets = dict.fromkeys(G.targets)
        self.sources = dict.fromkeys(G.sources)
        self.labels = {e: G.labels[e] for e in G.edges}
        self.left, self.right = dict(G.left), dict(G.right)
        self.conn, self.conn_inv = dict(G.conn), dict(v.conn_inv)
        self.vtlabels, self.vslabels = dict(G.vtlabels), dict(G.vslabels)
        self.tgts, self.srcs = dict(v.tgts), dict(v.srcs)
        self.by_label = {lab: dict.fromkeys(es)
                         for lab, es in v.by_label.items()}
        self.tick = itertools.count()
        self.edge_seq = {e: next(self.tick) for e in G.edges}

    def freeze(self) -> LinearHypergraph:
        return LinearHypergraph(
            targets=tuple(self.targets), sources=tuple(self.sources),
            edges=tuple(self.labels), left=self.left, right=self.right,
            conn=self.conn, labels=self.labels, vtlabels=self.vtlabels,
            vslabels=self.vslabels)

    # -- elements -----------------------------------------------------------

    def _add_target(self, t: int, e: int | None, lab: str) -> None:
        self.targets[t] = None
        self.left[t] = e
        self.vtlabels[t] = lab

    def _add_source(self, s: int, e: int | None, lab: str) -> None:
        self.sources[s] = None
        self.right[s] = e
        self.vslabels[s] = lab

    def _add_edge(self, e: int, lab: str, tgts: tuple[int, ...],
                  srcs: tuple[int, ...]) -> None:
        self.labels[e] = lab
        self.tgts[e] = tgts
        self.srcs[e] = srcs
        self.by_label.setdefault(lab, {})[e] = None
        self.edge_seq[e] = next(self.tick)

    def _link(self, t: int, s: int) -> None:
        self.conn[t] = s
        self.conn_inv[s] = t

    def _drop_target(self, t: int) -> None:
        del self.targets[t], self.left[t], self.vtlabels[t]

    def _drop_source(self, s: int) -> None:
        del self.sources[s], self.right[s], self.vslabels[s]

    def _drop_edge(self, e: int) -> None:
        lab = self.labels.pop(e)
        del self.by_label[lab][e], self.tgts[e], self.srcs[e]
        del self.edge_seq[e]
        if not self.by_label[lab]:
            del self.by_label[lab]

    # -- steps --------------------------------------------------------------

    def expand(self, w: int) -> tuple[int, int, int]:
        """Insert one identity edge on the wire leaving target ``w``, as
        :func:`~linhyp.graphs.expand` does; return its new target, source
        and edge."""
        t, s, e = fresh_ids(3)
        lab = self.vtlabels[w]
        self._add_target(t, e, lab)
        self._add_source(s, e, lab)
        self._add_edge(e, IDENTITY_LABEL, (t,), (s,))
        self._link(t, self.conn[w])
        self._link(w, s)
        return t, s, e

    def rewrite(self, rule: RewriteRule, vmap_t: dict[int, int],
                vmap_s: dict[int, int], emap: dict[int, int]) -> None:
        """One DPO step at a match of ``rule.L``, in O(|L| + |R|).

        Delete the image of L less K's, glue a fresh copy of R along K,
        and splice out the identity edges: the graph and the errors, in
        their order, of :func:`pushout_complement`, :func:`pushout` and
        :func:`~linhyp.graphs.smooth` at that match.  The match must be
        an embedding, as :func:`~linhyp.graphs.embeddings` yields it and
        :func:`apply_rewrite` checks it; the rule's part of the work is
        ``rule._step``'s.
        """
        p = rule._step
        if p.error is not None:
            raise RewriteError(p.error)
        left, right = self.left, self.right
        for k, v in p.check_t:
            if left[vmap_t[v]] is not INTERFACE:
                raise RewriteError(
                    f"not boundary coherent: interface vertex {k} is"
                    " edge-attached on both sides")
        for k, v in p.check_s:
            if right[vmap_s[v]] is not INTERFACE:
                raise RewriteError(
                    f"not boundary coherent: interface vertex {k} is"
                    " edge-attached on both sides")

        # the checks passed: change the host
        img = fresh_ids(p.fresh)
        img += map(vmap_t.__getitem__, p.keep_t)
        img += map(vmap_s.__getitem__, p.keep_s)
        img.append(INTERFACE)
        for t in map(vmap_t.__getitem__, p.kill_t):
            del self.conn_inv[self.conn.pop(t)]
            self._drop_target(t)
        for s in map(vmap_s.__getitem__, p.kill_s):
            self._drop_source(s)
        for e in map(emap.__getitem__, p.kill_e):
            self._drop_edge(e)
        for i, j in p.glue_t:
            left[img[i]] = img[j]
        for i, j in p.glue_s:
            right[img[i]] = img[j]
        for i, j, lab in p.new_t:
            self._add_target(img[i], img[j], lab)
        for i, j, lab in p.new_s:
            self._add_source(img[i], img[j], lab)
        for i, j in p.links:
            self._link(img[i], img[j])
        targets, sources = self.targets, self.sources
        for i, lab, ts, ss in p.edges:
            ts = tuple([img[j] for j in ts])
            ss = tuple([img[j] for j in ss])
            for v in ts:  # the edge's ports go last, in R's order
                targets[v] = targets.pop(v)
            for v in ss:
                sources[v] = sources.pop(v)
            self._add_edge(img[i], lab, ts, ss)
        self.smooth()

    def smooth(self) -> None:
        """Remove every identity edge, splicing the wire through it, as
        :func:`~linhyp.graphs.smooth` does.  After the first step the
        only identity edges are those the last step made."""
        for e in list(self.by_label.get(IDENTITY_LABEL, ())):
            (t,), (s,) = self.tgts[e], self.srcs[e]
            before = self.conn_inv.pop(s)
            after = self.conn.pop(t)
            if before != t:  # else a loop of this identity edge alone
                self._link(before, after)
            self._drop_target(t)
            self._drop_source(s)
            self._drop_edge(e)


def normalize(G: LinearHypergraph, rules: Sequence[RewriteRule],
              max_steps: int = 10000) -> NormalizeResult:
    """Apply rules until no rule matches or the step budget runs out.

    Each step takes the first rule's first match under the canonical
    order, so runs are reproducible; :func:`normal_forms` explores every
    match order instead.  Matches are drawn lazily, so a step searches
    no further than its first match, and a rule is not searched at all
    while the host lacks one of its edge labels.  The search for each
    component of a left side starts at its edge whose label is rarest in
    the host, which leaves the order of matches unchanged (see
    :func:`~linhyp.graphs.embeddings`).  The host is copied once and each
    step changes it in place (:meth:`_Host.rewrite`), in O(|L| + |R|)
    beyond the search; it takes the same steps to the same graph as
    :func:`apply_rewrite` at the first of :func:`matchings`.

    ``exhausted`` is set when ``max_steps`` steps are taken and some rule
    still matches; a run that reaches its normal form on the last step
    allowed is not exhausted.
    """
    # a rule whose left side is the empty graph matches everywhere and
    # rewrites nothing; the driver would never terminate on it
    rules = [r for r in rules if r.L.targets or r.L.edges]
    host = _Host(G)
    steps: list[Step] = []
    while True:
        for rule in rules:
            if host.by_label.keys() >= rule.labels:
                pattern, chains = rule._search
                found = next(embeddings(pattern, host, True), None)
                if found is not None:
                    break
        else:
            return NormalizeResult(host.freeze() if steps else G, steps)
        if len(steps) >= max_steps:
            return NormalizeResult(host.freeze() if steps else G, steps,
                                   exhausted=True)
        vmap_t, vmap_s, emap = _complete(rule.L, chains, found, host.expand)
        steps.append(Step(len(steps) + 1, rule.name,
                          tuple(sorted(emap.values()))))
        host.rewrite(rule, vmap_t, vmap_s, emap)


def normal_forms(G: LinearHypergraph, rules: Sequence[RewriteRule],
                 max_steps: int = 10000,
                 max_states: int = 2000) -> tuple[list[LinearHypergraph], bool]:
    """Breadth-first exploration of every rewrite order.

    Returns the normal forms reached (deduplicated up to isomorphism)
    and whether the state bound cut the search short.  A state's
    successors are its steps at every match, in :func:`matchings` order,
    each on a fresh :class:`_Host` copy of the state.
    """
    rules = [r for r in rules if r.L.targets or r.L.edges]
    seen = {save_graph(G)}  # canonical files: one per isomorphism class
    frontier = deque([G])
    nfs: list[LinearHypergraph] = []
    expansions = 0
    exhausted = False
    while frontier:
        cur = frontier.popleft()
        succs = []
        for rule in rules:
            pattern, chains = rule._search
            for found in embeddings(pattern, cur.view, True):
                host = _Host(cur)
                host.rewrite(rule,
                             *_complete(rule.L, chains, found, host.expand))
                succs.append(host.freeze())
        if not succs:
            nfs.append(cur)
            continue
        expansions += 1
        if expansions > max_steps or len(seen) > max_states:
            exhausted = True
            break
        for s in succs:
            key = save_graph(s)
            if key not in seen:
                seen.add(key)
                frontier.append(s)
    return nfs, exhausted
