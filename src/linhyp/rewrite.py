"""Double-pushout rewriting on linear hypergraphs.

A rule is a span ``L <- K -> R`` with an edge-free interface ``K``.  A
step finds an embedding of ``L`` in a host graph, removes ``L`` up to the
interface (pushout complement), and glues ``R`` back in (pushout).
Rules whose interface legs would collapse a straight-through wire are
saturated with identity edges first; matching such rules transparently
expands the host on the wires the identity edges need.  Both matching and
rewriting work up to the host's own identity edges: the host is smoothed
first.  A match is an embedding of L into the graph it lands in.  The
driver (``_reduce``) completes its matches on the host it rewrites
(``graphs._Host``); :func:`find_matchings` and :func:`normal_forms`
complete theirs one way (``_matches``), on a fresh copy for each match
that splits host wires, which :func:`normal_forms` then rewrites.  Every
step is made in place on such a copy, by one function compiled per rule
from its plan (``_StepPlan``, ``_compile_step``); the pushout
constructions build the same graph and are kept as its reference.
"""
from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count, islice
from typing import Callable, Iterator, Sequence

from .graphs import (IDENTITY_LABEL, INTERFACE, Found, Homomorphism,
                     LinearHypergraph, _Host, above, embeddings, expand,
                     next_id, smooth)
from .interp import interpret
from .ops import identity as identity_graph
from .serialize import save_graph
from .terms import (ParseError, Signature, Term, TypeMismatch, _is_name,
                    _read_lines, parse_term, type_of)


class RewriteError(Exception):
    pass


@dataclass(frozen=True)
class RewriteRule:
    """The rule ``L => R`` between two graphs of one type, as the span
    ``L <- K -> R`` built on construction.  Each side is saturated: every
    straight-through wire gets an identity edge.  K is the edge-free
    identity graph of the type, and each leg maps K's i-th input and
    j-th output wire to the side's.  Both legs are then embeddings, and
    L leaves a K vertex on its interface exactly where R does, so the
    gluing conditions hold at every embedding of L (Ehrig, Ehrig, Prange
    & Taentzer, 2006): no step of a rule is refused."""
    name: str
    L: LinearHypergraph
    R: LinearHypergraph
    K: LinearHypergraph = field(init=False, compare=False)
    left_leg: Homomorphism = field(init=False, compare=False)
    right_leg: Homomorphism = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if (self.L.dom(), self.L.cod()) != (self.R.dom(), self.R.cod()):
            raise TypeMismatch("rule sides must share a type")
        L, R = _saturated(self.L), _saturated(self.R)
        K = identity_graph(L.dom() + L.cod())
        for name, value in (("L", L), ("R", R), ("K", K),
                            ("left_leg", _interface_leg(K, L)),
                            ("right_leg", _interface_leg(K, R))):
            object.__setattr__(self, name, value)

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

    @cached_property
    def _stepper(self) -> Callable[..., None]:
        """That step compiled (:func:`_compile_step`), on the rule's first
        step."""
        return _compile_step(self._step)


class RuleSet(tuple):
    """Rules in their order of priority, and a label index that fills as
    hosts ask it; it holds only the rules, so it goes with them."""

    def __init__(self, rules: Sequence[RewriteRule] = ()) -> None:
        self._by_labels: dict[frozenset[str], tuple[RewriteRule, ...]] = {}

    def for_labels(self, labels: dict[str, object]) -> tuple[RewriteRule, ...]:
        """In order, the rules whose labels are all keys of ``labels`` (a
        host's ``by_label``), less any empty left side: it matches forever."""
        key = frozenset(labels)
        rules = self._by_labels.get(key)
        if rules is None:
            rules = self._by_labels[key] = tuple(
                r for r in self
                if r.labels <= key and (r.L.targets or r.L.edges))
        return rules


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

def _interface_leg(K: LinearHypergraph, X: LinearHypergraph) -> Homomorphism:
    """Map the i-th input wire of K to X's i-th input wire, and the j-th
    output wire to X's j-th output wire."""
    m = len(X.dom())
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
            vmap_t[kt] = X.inv[outs[j]]
    return Homomorphism(K, X, vmap_t, vmap_s, {})


def _saturated(X: LinearHypergraph) -> LinearHypergraph:
    """X with an identity edge on each straight-through wire, or X itself
    when it has none."""
    outs = set(X.outputs())
    for t in [t for t in X.inputs() if X.conn[t] in outs]:
        X = expand(X, t)
    return X


def rule_from_terms(lhs: Term, rhs: Term, sig: Signature,
                    name: str = "rule") -> RewriteRule:
    """Compile a pair of terms into a rule."""
    if type_of(lhs, sig) != type_of(rhs, sig):
        raise TypeMismatch("rule sides must share a type")
    return RewriteRule(name, interpret(lhs, sig), interpret(rhs, sig))


def parse_rules(text: str, sig: Signature) -> list[RewriteRule]:
    """Rule file: one ``name : lhs => rhs`` line per rule, each with its
    own name: generator-style names joined by ``-`` (``copy-nat``).
    Errors name their line and keep their class; a parse error gives
    its position in the line as written."""
    rules: dict[str, RewriteRule] = {}

    def read(_: int, line: str) -> None:
        try:
            name_part, rest = line.split(":", 1)
            lhs_part, rhs_part = rest.split("=>", 1)
        except ValueError:
            raise RewriteError("expected 'name : lhs => rhs'")
        name = name_part.strip()
        if not all(map(_is_name, name.split("-"))):
            raise RewriteError(f"{name!r} is not a rule name (names made of"
                               " letters, digits and '_', joined by '-')")
        if name in rules:
            raise RewriteError(f"duplicate rule name {name!r}")
        # each side is parsed where it stands in the line, blanks before
        # it, so that a parse error gives its position in the line
        at = len(name_part) + 1
        lhs = parse_term(" " * at + lhs_part.rstrip(), sig)
        at += len(lhs_part) + len("=>")
        rhs = parse_term(" " * at + rhs_part.rstrip(), sig)
        rules[name] = rule_from_terms(lhs, rhs, sig, name)

    _read_lines(text, read, (RewriteError, ParseError, TypeMismatch))
    return list(rules.values())


# ---------------------------------------------------------------------------
# Matches
# ---------------------------------------------------------------------------

def _identity_chains(L: LinearHypergraph) -> list[tuple[int, list[int]]]:
    """Maximal runs of identity edges, each anchored at the surviving
    target vertex that feeds the run."""
    tgts, srcs, conn_inv = L.tgts, L.srcs, L.inv
    id_edges = [e for e in L.edges if L.labels[e] == IDENTITY_LABEL]

    def is_ident(e: int | None) -> bool:
        return e is not INTERFACE and L.labels[e] == IDENTITY_LABEL

    heads = [e for e in id_edges
             if not is_ident(L.left[conn_inv[srcs[e][0]]])]
    chains: list[tuple[int, list[int]]] = []
    for h in heads:  # no two runs meet: an edge has one edge before it
        chain = [h]
        while is_ident(nxt := L.right[L.conn[tgts[chain[-1]][0]]]):
            chain.append(nxt)
        chains.append((conn_inv[srcs[h][0]], chain))
    if sum(len(chain) for _, chain in chains) != len(id_edges):
        raise RewriteError(
            "left side contains a closed loop of identity edges; it cannot"
            " anchor a match")
    return chains


def _pattern(L: LinearHypergraph
             ) -> tuple[LinearHypergraph, list[tuple[int, list[int]]]]:
    """The graph the search matches for L: L itself or, when L carries
    identity edges, L smoothed (kept on L, so that its searches are
    compiled once), with the identity chains that matching expands the
    host along."""
    if IDENTITY_LABEL not in L.labels.values():
        return L, []
    return L._smoothed, _identity_chains(L)


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
    for t0, chain in chains:
        cur = vmap_t[t0]
        for e in chain:
            cur, vmap_s[L.srcs[e][0]], emap[e] = split(cur)
            vmap_t[L.tgts[e][0]] = cur
    return vmap_t, vmap_s, emap


def _matches(L: LinearHypergraph, search: tuple,
             G: LinearHypergraph) -> Iterator[tuple]:
    """Each map of L into G up to homeomorphism that
    :func:`~linhyp.graphs.embeddings` finds for L's ``search`` (its
    :func:`_pattern`), in its order, completed (:func:`_complete`): the
    host it lands in, and L's maps of targets, sources and edges into
    that host.  A map that needs no split lands in G itself, and its host
    is None; any other lands in a fresh :class:`_Host` copy of G, split
    where the map needs it and left live, for the caller to freeze or
    rewrite."""
    pattern, chains = search
    for found in embeddings(pattern, G):
        if found[3] or chains:
            host = _Host(G)
            yield host, _complete(L, chains, found, host.expand)
        else:
            yield None, found[:3]


def find_matchings(L: LinearHypergraph,
                   G: LinearHypergraph) -> list[Homomorphism]:
    """All ways the pattern L embeds into G up to wire homeomorphism, in
    the order of :func:`~linhyp.graphs.embeddings`: the matches
    :func:`normal_forms` rewrites, in its order.

    G is smoothed first, as the drivers smooth their input.  Each match
    is an embedding into the smoothed G or, where it splits host wires,
    into a copy of its own, expanded where L carries identity edges or
    where two of L's boundary wires share one host wire (a loop through
    the redex).
    """
    G = smooth(G)
    return [Homomorphism(L, G if host is None else host.freeze(), *maps)
            for host, maps in _matches(L, _pattern(L), G)]


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
    R's elements take ids above C's.
    """
    K, C = m.src, m.dst
    if K.edges:
        raise RewriteError("pushout interface must be edge-free")
    if not m.is_embedding() or not n.is_embedding():
        raise RewriteError("pushout needs a span of embeddings")
    R_orig = n.dst
    R = above(R_orig, C)
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
            raise RewriteError(f"not boundary coherent: interface vertex {k}"
                               " is edge-attached on both sides")

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

    ports_t = tuple(rep_t.get(v, v) for e in R.edges for v in R.tgts[e])
    ports_s = tuple(rep_s.get(v, v) for e in R.edges for v in R.srcs[e])
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

def apply_rewrite(rule: RewriteRule, match: Homomorphism) -> LinearHypergraph:
    """One DPO step at the given match, by :meth:`_Host.rewrite`: the
    graph :func:`pushout_complement`, :func:`pushout` and
    :func:`~linhyp.graphs.smooth` build.

    The step is taken on a copy of ``match.dst``, the graph the match
    lands in (see :func:`find_matchings`).  The match must be an
    embedding of the rule's left side, or of a graph equal to it, and is
    refused otherwise, as :func:`pushout_complement` refuses it; the
    rule's span passes every other check of the pushouts."""
    if match.src != rule.L:
        raise RewriteError(f"not a match of rule {rule.name}'s left side")
    if not match.is_embedding():
        raise RewriteError("pushout complement needs embeddings")
    host = _Host(match.dst)
    host.rewrite(rule, match.vmap_t, match.vmap_s, match.emap)
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
    the gluing conditions as properties of the rule; a
    :class:`RewriteRule`'s span meets them at every embedding).

    A step gives R's elements their host ids through numbered slots:
    new host ids for R's new targets, new sources and edges, in that
    order (``fresh`` of them), then the host images of ``keep_t`` and
    ``keep_s``, L's elements that K maps to, in K's order.

    - ``kill_t``, ``kill_s`` and ``kill_e`` are L's elements outside K's
      image, which the step deletes; ``kill_e`` pairs each edge with
      its label.
    - ``glue_t`` and ``glue_s`` give the slots of a kept vertex and of
      the edge R attaches it to, where R attaches it (and L, which
      attaches the same K vertices).
    - ``new_t``, ``new_s``, ``links`` and ``edges`` make R's new
      elements in R's stored order: their slots, the slots of their
      edges (R attaches each of them), ports and wires, and their
      labels.
    """

    def __init__(self, rule: RewriteRule) -> None:
        K, L, R = rule.K, rule.L, rule.R
        ll, rl = rule.left_leg, rule.right_leg
        self.keep_t = [ll.vmap_t[k] for k in K.targets]
        self.keep_s = [ll.vmap_s[k] for k in K.sources]
        kept_t, kept_s = set(self.keep_t), set(self.keep_s)
        self.kill_t = [v for v in L.targets if v not in kept_t]
        self.kill_s = [v for v in L.sources if v not in kept_s]
        self.kill_e = [(e, L.labels[e]) for e in L.edges]

        glued_t = {rl.vmap_t[k]: i for i, k in enumerate(K.targets)}
        glued_s = {rl.vmap_s[k]: i for i, k in enumerate(K.sources)}
        new_t = [v for v in R.targets if v not in glued_t]
        new_s = [v for v in R.sources if v not in glued_s]
        slots = count()
        slot_t = {v: next(slots) for v in new_t}
        slot_s = {v: next(slots) for v in new_s}
        slot_e = {e: next(slots) for e in R.edges}
        self.fresh = n = next(slots)
        slot_t.update((v, n + i) for v, i in glued_t.items())
        n += len(K.targets)
        slot_s.update((v, n + i) for v, i in glued_s.items())

        self.glue_t = [(slot_t[v], slot_e[R.left[v]]) for v in glued_t
                       if R.left[v] is not INTERFACE]
        self.glue_s = [(slot_s[v], slot_e[R.right[v]]) for v in glued_s
                       if R.right[v] is not INTERFACE]
        self.new_t = [(slot_t[v], slot_e[R.left[v]], R.vtlabels[v])
                      for v in new_t]
        self.new_s = [(slot_s[v], slot_e[R.right[v]], R.vslabels[v])
                      for v in new_s]
        self.links = [(slot_t[v], slot_s[R.conn[v]]) for v in new_t]
        self.edges = [(slot_e[e], R.labels[e],
                       [slot_t[v] for v in R.tgts[e]],
                       [slot_s[v] for v in R.srcs[e]]) for e in R.edges]


def _compile_step(p: _StepPlan) -> Callable[..., None]:
    """The step ``p`` plans, emitted as one straight-line Python
    function ``step(H, vmap_t, vmap_s, emap)`` that rewrites the
    :class:`_Host` H in place at a match.

    Each slot is a local: the fresh ids come from one ``islice`` of
    ``H.new_ids``, a kept vertex's from the match.  The step deletes,
    glues and inserts over the host's tables bound to locals, writing
    each table in the order the plan gives: a killed edge's
    ``by_label`` bucket is fetched once per label, as L gives it, and
    dropped once empty; a fresh vertex of R enters ``targets`` or
    ``sources`` with its edge, where a glued port is moved.  The step
    smooths last, when an identity edge is left.  As in
    :func:`~linhyp.graphs._compile_search`, the source holds only
    keywords, local names, table names and port counts: ids and labels
    are bound to it as constants, and it holds no reference to the rule.
    """
    # bound, by value
    consts: dict = {islice: "islice", IDENTITY_LABEL: "IDENTITY_LABEL"}
    body: list[str] = []

    def const(c) -> str:
        if c not in consts:
            consts[c] = f"k{len(consts)}"
        return consts[c]

    def x(i: int) -> str:  # a slot's local
        return f"x{i}"

    def word(slots: Sequence[int]) -> str:
        return f"({''.join(x(j) + ', ' for j in slots)})"

    if p.fresh:
        body.append(f"{word(range(p.fresh))} = islice(H.new_ids, {p.fresh})")
    loads = len(body)  # where the kept slots the step uses are loaded
    for v in p.kill_t:
        body += [f"y = vmap_t[{const(v)}]", "del inv[conn.pop(y)]",
                 "del targets[y], left[y], vtlabels[y]"]
    for v in p.kill_s:
        body += [f"y = vmap_s[{const(v)}]",
                 "del sources[y], right[y], vslabels[y]"]
    killed: dict[str, list[int]] = {}
    for e, lab in p.kill_e:
        killed.setdefault(lab, []).append(e)
    for lab, es in killed.items():
        body.append(f"b = by_label[{const(lab)}]")
        for e in es:
            body += [f"y = emap[{const(e)}]",
                     "del labels[y], tgts[y], srcs[y], edge_seq[y], b[y]"]
        body.append(f"if not b: del by_label[{const(lab)}]")
    body += [f"left[{x(i)}] = {x(j)}" for i, j in p.glue_t]
    body += [f"right[{x(i)}] = {x(j)}" for i, j in p.glue_s]
    for order, side, labs, new in (("targets", "left", "vtlabels", p.new_t),
                                   ("sources", "right", "vslabels", p.new_s)):
        for i, j, lab in new:  # it enters ``order`` with its edge
            body += [f"{side}[{x(i)}] = {x(j)}", f"{labs}[{x(i)}] = {const(lab)}"]
    body += [f"conn[{x(i)}], inv[{x(j)}] = {x(j)}, {x(i)}"
             for i, j in p.links]
    for i, lab, ts, ss in p.edges:
        for order, ports in (("targets", ts), ("sources", ss)):
            for j in ports:  # the edge's ports go last, in R's order
                if j >= p.fresh:
                    body.append(f"del {order}[{x(j)}]")
                body.append(f"{order}[{x(j)}] = None")
        body += [f"labels[{x(i)}] = {const(lab)}",
                 f"tgts[{x(i)}], srcs[{x(i)}] = {word(ts)}, {word(ss)}",
                 f"by_label.setdefault({const(lab)}, {{}})[{x(i)}] = None",
                 f"edge_seq[{x(i)}] = next(tick)"]
    body.append("if IDENTITY_LABEL in by_label: H.smooth()")
    used = set(re.findall(r"\w+", "\n".join(body)))
    keep = [("vmap_t", v) for v in p.keep_t] + [("vmap_s", v) for v in p.keep_s]
    body[loads:loads] = [f"{x(i)} = {vmap}[{const(v)}]" for i, (vmap, v)
                         in enumerate(keep, p.fresh) if x(i) in used]
    tables = [t for t in ("targets", "sources", "labels", "left", "right",
                          "conn", "inv", "vtlabels", "vslabels", "tgts",
                          "srcs", "by_label", "edge_seq", "tick") if t in used]
    source = "\n".join(
        [f"def _bind({', '.join(consts.values())}):",
         "    def step(H, vmap_t, vmap_s, emap):",
         f"        {', '.join(tables)} = H.{', H.'.join(tables)}"]
        + ["        " + line for line in body] + ["    return step"])
    scope: dict = {}
    exec(compile(source, "<compiled step>", "exec"), scope)
    return scope.pop("_bind")(*consts)


def _reduce(host: _Host, rules: RuleSet,
            max_steps: int) -> tuple[list[Step], bool]:
    """The driver of :func:`normalize` and of each round of
    :func:`~linhyp.circuits.evaluate`: smooth ``host``, then rewrite it
    in place; return the steps and whether a rule still matched when
    they ran out.  Smoothing restarts ``new_ids`` above the largest id
    left, where a copy of the smoothed host would start them."""
    if IDENTITY_LABEL in host.by_label:
        host.smooth()
        host.new_ids = count(next_id(host))
    steps: list[Step] = []
    while True:
        for rule in rules.for_labels(host.by_label):
            pattern, chains = rule._search
            found = next(embeddings(pattern, host), None)
            if found is not None:
                break
        else:
            return steps, False
        if len(steps) >= max_steps:
            return steps, True
        vmap_t, vmap_s, emap = _complete(rule.L, chains, found, host.expand)
        steps.append(Step(len(steps) + 1, rule.name,
                          tuple(sorted(emap.values()))))
        host.rewrite(rule, vmap_t, vmap_s, emap)


def normalize(G: LinearHypergraph, rules: Sequence[RewriteRule],
              max_steps: int = 10000) -> NormalizeResult:
    """Apply rules until no rule matches or the step budget runs out.

    Each step takes the first rule's first match under the canonical
    order, so runs are reproducible; :func:`normal_forms` explores every
    match order instead.  Matches are drawn lazily, a :class:`RuleSet`
    label index skips each rule whose labels the host lacks, and each
    component of a left side is searched from its rarest label in the
    host, which keeps the order (see :func:`~linhyp.graphs.embeddings`).
    G is copied once and smoothed, and each step changes the copy in
    place (:meth:`_Host.rewrite`), in O(|L| + |R|) beyond the search: the
    steps and graph of :func:`apply_rewrite` at the first of
    :func:`find_matchings`.  An unchanged G is returned itself.

    ``exhausted`` is set when ``max_steps`` steps are taken and some rule
    still matches, not when the last step allowed reaches a normal form.
    """
    rules = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    host = _Host(G)
    steps, exhausted = _reduce(host, rules, max_steps)
    if steps or IDENTITY_LABEL in G.by_label:
        G = host.freeze()
    return NormalizeResult(G, steps, exhausted)


def normal_forms(G: LinearHypergraph, rules: Sequence[RewriteRule],
                 max_steps: int = 10000,
                 max_states: int = 2000) -> tuple[list[LinearHypergraph], bool]:
    """Breadth-first exploration of every rewrite order.

    Returns the normal forms reached (deduplicated up to isomorphism)
    and whether the state bound cut the search short; ``([], False)``
    means every rewrite sequence returns to a state already seen.  A
    state's successors are its steps at every match, in
    :func:`find_matchings` order, each on one fresh :class:`_Host` copy
    of the state: the copy the match was completed on where it splits
    host wires.  As in :func:`normalize`, the input is smoothed first,
    and the label index skips each rule whose edge labels a state lacks.
    """
    rules = rules if isinstance(rules, RuleSet) else RuleSet(rules)
    G = smooth(G)
    seen = {save_graph(G)}  # canonical files: one per isomorphism class
    frontier = deque([G])
    nfs: list[LinearHypergraph] = []
    expansions = 0
    exhausted = False
    while frontier:
        cur = frontier.popleft()
        succs = []
        for rule in rules.for_labels(cur.by_label):
            for host, maps in _matches(rule.L, rule._search, cur):
                if host is None:
                    host = _Host(cur)
                host.rewrite(rule, *maps)
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
