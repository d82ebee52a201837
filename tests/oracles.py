"""Independent oracles the implementation is checked against.

Everything here is brute force or direct dataflow: no code path is shared
with the algorithms under test, except in ``normalize_by_enumeration``,
the list-based rewriting driver that the lazy one must agree with,
``evaluate_by_unfolding_all_wires``, the term-level evaluator that the
graph-level one must agree with, ``embeddings_from_first_edge``, the
embedding search whose order of maps the library's must keep,
``canonical_labelling_by_port_search``, the labelling whose codes the
library's must keep, ``feedback_wires_by_labelled_walk``, the cut the
library's must keep, which it finds from the canonical labelling for
every graph, and ``embeds``, which checks a match on the host
``normalize`` rewrites with the commuting check of
``Homomorphism.is_embedding``.  ``shuffle_by_insertion`` is the
quadratic wiring term that the library's merge sort replaced.
``is_isomorphism_by_embedding`` checks an isomorphism witness through
``is_embedding``, where the library checks it in one pass, and
``equal_mod_stmc_typed_first`` types both sides with ``type_of`` before
interpreting them, where the library lets ``interpret`` type them.

``apply_by_pushouts`` and ``normal_forms_by_pushouts`` share matching
with the library but build each DPO step from the paper's constructions,
``pushout_complement``, ``pushout`` and ``smooth``, which the library
keeps as the reference for its one in-place step engine (``smooth`` is
that engine's splice, checked against ``smooth_by_splicing``).
``rewrite_by_plan`` is that engine's step interpreted from the rule's
plan, which the library compiles instead.  ``normalize_by_scan`` and
``normal_forms_by_scan`` choose each step's rules by testing every
rule's labels against the host, where the library asks its rule set's
label index.
``boundary_coherent`` and ``glue_simple`` state the gluing condition and
glue in plain simple hypergraphs (``SimpleHypergraph``, ``to_simple``).
``tables_from_scratch`` derives a graph's port tables, port index and
``conn`` inverse edge by edge, for ``GraphView`` to be checked against,
and ``tables_in_order`` lists a view's tables, for the tables handed to
a view to be checked against ``GraphView``'s own.
``graph_to_dict`` and ``graph_from_dict_per_entry`` encode and decode a
graph file entry by entry, for the bulk writer and loader of
``linhyp.serialize`` to be checked against, and ``to_dot_of_canonical``
draws a graph from its renumbered copy, for ``to_dot`` to be checked
against.

The file also holds the paper's alternative constructions, which the
library does not need but the tests compare against it: the term-level
staging and global trace form of the completeness proof (``stage``,
``global_trace_form``, ``is_trace_free``), the inductive composite swap
``swap_recursive``, and ``trace_mono``, the trace that keeps its loop
vertices behind identity edges.  They are plain recursive folds, meant
for small terms.  ``compose_by_rewiring``, ``trace_by_single_wires``
and ``smooth_by_splicing`` write out on their own the three splices
that the library makes with one in-place splice (``graphs._Host.plug``);
the library's must give the same tables, ids and errors.

Last come the builders and checks only the tests use: ``id_source``
numbers the ids of a graph built by hand, ``random_graph``
draws a well-formed graph, ``feedback_ladder`` builds a circuit whose
feedback takes one round per rung, ``gate_from_fn`` tabulates a gate,
``check_coherence`` extracts a graph along many edge orders, and
``log_log_slope`` fits a size ladder's times.
"""
from __future__ import annotations

import itertools
import math
import random
from collections import Counter, deque
from collections.abc import Iterator
from dataclasses import dataclass

from linhyp import Homomorphism, LinearHypergraph, is_homomorphism, ops
from linhyp.circuits import (DELAY, FORK, JOIN, STUB, UNPRODUCTIVE,
                             CircuitSignature, Gate, ValueLattice, eval_rules,
                             read_value_word, value_row)
from linhyp.extract import extract_term
from linhyp.graphs import (IDENTITY_LABEL, INTERFACE, Found, GraphView,
                           _walk, above, canonical, canonical_labelling,
                           commutes, expand, find_isomorphism, smooth)
from linhyp.interp import interpret
from linhyp.rewrite import (NormalizeResult, RewriteError, Step, _complete,
                            _Host, embeddings, find_matchings, normalize,
                            pushout, pushout_complement)
from linhyp.serialize import save_graph
from linhyp.terms import (ANON, Gen, Id, Seq, Signature, Swap, Tensor, Term,
                          Trace, TypeMismatch, Word, as_word, type_of)


def is_isomorphism_by_embedding(h: Homomorphism) -> bool:
    """``Homomorphism.is_isomorphism`` checked the long way: an embedding
    (``is_homomorphism``, whose sets and scans check the keys and images,
    and three injective maps) onto carriers of G's sizes that keeps the
    inputs and outputs in order."""
    F, G = h.src, h.dst
    if not h.is_embedding():
        return False
    if (len(F.targets) != len(G.targets)
            or len(F.sources) != len(G.sources)
            or len(F.edges) != len(G.edges)):
        return False
    fin, gin = F.inputs(), G.inputs()
    fout, gout = F.outputs(), G.outputs()
    if len(fin) != len(gin) or len(fout) != len(gout):
        return False
    if any(h.vmap_t[a] != b for a, b in zip(fin, gin)):
        return False
    if any(h.vmap_s[a] != b for a, b in zip(fout, gout)):
        return False
    return True


def equal_mod_stmc_typed_first(s: Term, t: Term, sig: Signature) -> bool:
    """``equal_mod_stmc`` with both sides typed by ``type_of`` before
    either is interpreted, so every type error is the one it words."""
    if type_of(s, sig) != type_of(t, sig):
        raise TypeMismatch("terms to compare must share a type")
    return find_isomorphism(interpret(s, sig), interpret(t, sig)) is not None


def brute_force_isomorphism(F: LinearHypergraph,
                            G: LinearHypergraph) -> Homomorphism | None:
    """Try every interface-order-preserving bijection triple."""
    if (len(F.targets) != len(G.targets) or len(F.sources) != len(G.sources)
            or len(F.edges) != len(G.edges)):
        return None
    fin, gin = F.inputs(), G.inputs()
    fout, gout = F.outputs(), G.outputs()
    if len(fin) != len(gin) or len(fout) != len(gout):
        return None
    for perm_t in itertools.permutations(G.targets):
        vmap_t = dict(zip(F.targets, perm_t))
        if any(vmap_t[a] != b for a, b in zip(fin, gin)):
            continue
        for perm_s in itertools.permutations(G.sources):
            vmap_s = dict(zip(F.sources, perm_s))
            if any(vmap_s[a] != b for a, b in zip(fout, gout)):
                continue
            for perm_e in itertools.permutations(G.edges):
                h = Homomorphism(F, G, vmap_t, vmap_s,
                                 dict(zip(F.edges, perm_e)))
                if is_homomorphism(h) and h.is_isomorphism():
                    return h
    return None


def interpret_by_combinators(t: Term, sig: Signature) -> LinearHypergraph:
    """The graph of a term as a recursive fold of the graph combinators,
    each of which copies its operands onto fresh ids.  Its leaves are
    ``interpret``'s own graphs, so it checks the combinators' splices;
    ``tests/test_ops.py`` pins the leaves by their tables."""
    if isinstance(t, Gen):
        return ops.generator(t.name, sig)
    if isinstance(t, Id):
        return ops.identity(t.word)
    if isinstance(t, Swap):
        return ops.swap(t.upper, t.lower)
    if isinstance(t, Seq):
        return ops.compose(interpret_by_combinators(t.left, sig),
                           interpret_by_combinators(t.right, sig))
    if isinstance(t, Tensor):
        return ops.tensor(interpret_by_combinators(t.top, sig),
                          interpret_by_combinators(t.bottom, sig))
    if isinstance(t, Trace):
        return ops.trace(t.loop, interpret_by_combinators(t.body, sig))
    raise TypeMismatch(f"not a term: {t!r}", t)


def brute_force_matchings(L: LinearHypergraph,
                          G: LinearHypergraph) -> list[Homomorphism]:
    """Embeddings found by enumerating target injections directly.

    The source map is forced through the wiring, the edge map through the
    ports; left sides with 0 -> 0 edges are enumerated separately.
    """
    out = []
    ltgts, lsrcs = L.port_tables()
    portless = [e for e in L.edges if not ltgts[e] and not lsrcs[e]]
    located = [e for e in L.edges if ltgts[e] or lsrcs[e]]
    for imgs in itertools.permutations(G.targets, len(L.targets)):
        vmap_t = dict(zip(L.targets, imgs))
        vmap_s = {L.conn[t]: G.conn[vmap_t[t]] for t in L.targets}
        emap: dict[int, int] = {}
        ok = True
        for e in located:
            if ltgts[e]:
                d = G.left[vmap_t[ltgts[e][0]]]
            else:
                d = G.right[vmap_s[lsrcs[e][0]]]
            if d is INTERFACE:
                ok = False
                break
            emap[e] = d
        if not ok:
            continue
        free = [d for d in G.edges if d not in set(emap.values())]
        for extra in itertools.permutations(free, len(portless)):
            full = dict(emap)
            full.update(zip(portless, extra))
            if len(set(full.values())) != len(full):
                continue
            h = Homomorphism(L, G, dict(vmap_t), dict(vmap_s), full)
            if is_homomorphism(h) and h.is_embedding():
                out.append(h)
    return out


class _Conflict(Exception):
    """A partial map that no embedding extends."""


def embeddings_from_first_edge(L: LinearHypergraph,
                               G: GraphView) -> Iterator[Found]:
    """The embedding search up to homeomorphism with no search plan: it
    pins each edge component of L by its first edge in stored order,
    trying every edge of G with that label in stored order, and copies
    its partial map for each candidate.  :func:`linhyp.graphs.embeddings` must yield the same
    maps in the same order."""
    lv = L.view
    ltgts, lsrcs, lconn_inv = lv.tgts, lv.srcs, lv.conn_inv
    l_port_t = {v: (e, i) for e in L.edges for i, v in enumerate(ltgts[e])}
    l_port_s = {v: (e, i) for e in L.edges for i, v in enumerate(lsrcs[e])}
    gtgts, gsrcs, gconn_inv = G.tgts, G.srcs, G.conn_inv

    # the first edge in stored order of each wire-connected component
    anchors: list[int] = []
    placed: set[int] = set()
    for e in L.edges:
        if e not in placed:
            anchors.append(e)
            placed.add(e)
            stack = [e]
            while stack:
                x = stack.pop()
                for d in ([L.right[L.conn[v]] for v in ltgts[x]]
                          + [L.left[lconn_inv[s]] for s in lsrcs[x]]):
                    if d is not INTERFACE and d not in placed:
                        placed.add(d)
                        stack.append(d)

    bare_wires = [t for t in L.targets
                  if L.left[t] is INTERFACE
                  and L.right[L.conn[t]] is INTERFACE]
    # boundary wires whose loose end is bound last
    out_wires = [t for t in L.targets
                 if L.left[t] is not INTERFACE
                 and L.right[L.conn[t]] is INTERFACE]
    in_wires = [t for t in L.targets
                if L.left[t] is INTERFACE
                and L.right[L.conn[t]] is not INTERFACE]

    def put(state, kind: str, a: int, b: int) -> None:
        table, used = state[kind]
        if a in table:
            if table[a] != b:
                raise _Conflict
            return
        if b in used:
            raise _Conflict
        table[a] = b
        used.add(b)
        state["agenda"].append((kind, a))

    def propagate(state) -> None:
        agenda = state["agenda"]
        tmap, smap, emap = state["t"][0], state["s"][0], state["e"][0]
        while agenda:
            kind, a = agenda.pop()
            if kind == "t":
                b = tmap[a]
                if L.vtlabels[a] != G.vtlabels[b]:
                    raise _Conflict
                partner = L.conn[a]
                defer = (L.left[a] is not INTERFACE
                         and L.right[partner] is INTERFACE)
                if not defer:
                    put(state, "s", partner, G.conn[b])
                if a in l_port_t:
                    e, i = l_port_t[a]
                    d = G.left[b]
                    if d is INTERFACE or G.labels[d] != L.labels[e]:
                        raise _Conflict
                    if len(gtgts[d]) <= i or gtgts[d][i] != b:
                        raise _Conflict
                    put(state, "e", e, d)
            elif kind == "s":
                b = smap[a]
                if L.vslabels[a] != G.vslabels[b]:
                    raise _Conflict
                partner = lconn_inv[a]
                defer = (L.right[a] is not INTERFACE
                         and L.left[partner] is INTERFACE)
                if not defer:
                    put(state, "t", partner, gconn_inv[b])
                if a in l_port_s:
                    e, i = l_port_s[a]
                    d = G.right[b]
                    if d is INTERFACE or G.labels[d] != L.labels[e]:
                        raise _Conflict
                    if len(gsrcs[d]) <= i or gsrcs[d][i] != b:
                        raise _Conflict
                    put(state, "e", e, d)
            else:
                d = emap[a]
                if G.labels[d] != L.labels[a]:
                    raise _Conflict
                if (len(gtgts[d]) != len(ltgts[a])
                        or len(gsrcs[d]) != len(lsrcs[a])):
                    raise _Conflict
                for u, w in zip(ltgts[a], gtgts[d]):
                    put(state, "t", u, w)
                for u, w in zip(lsrcs[a], gsrcs[d]):
                    put(state, "s", u, w)

    def extend(state, kind: str, a: int, b: int):
        """A copy of ``state`` with ``a -> b`` added and propagated, or
        None on a clash."""
        (tmap, used_t), (smap, used_s), (emap, used_e) = (
            state["t"], state["s"], state["e"])
        trial = {"t": (dict(tmap), set(used_t)), "s": (dict(smap), set(used_s)),
                 "e": (dict(emap), set(used_e)), "agenda": []}
        try:
            put(trial, kind, a, b)
            propagate(trial)
        except _Conflict:
            return None
        return trial

    def assign_components(idx: int, state):
        used_e = state["e"][1]
        if idx == len(anchors):
            yield from assign_bare(0, state)
            return
        anchor = anchors[idx]
        for d in G.by_label.get(L.labels[anchor], ()):
            if d in used_e:
                continue
            trial = extend(state, "e", anchor, d)
            if trial is not None:
                yield from assign_components(idx + 1, trial)

    def assign_bare(idx: int, state):
        if idx == len(bare_wires):
            found = finish(state)
            if found is not None:
                yield found
            return
        t = bare_wires[idx]
        used_t, used_s = state["t"][1], state["s"][1]
        for tg in G.targets:
            if tg in used_t or G.conn[tg] in used_s:
                continue
            if G.vtlabels[tg] != L.vtlabels[t]:
                continue
            trial = extend(state, "t", t, tg)
            if trial is not None:
                yield from assign_bare(idx + 1, trial)

    def finish(state) -> Found | None:
        tmap, smap, emap = (dict(state[k][0]) for k in "tse")
        splits: list[tuple[int, int, int]] = []
        if not resolve_boundary(
                tmap, smap, set(state["t"][1]), set(state["s"][1]), splits):
            return None
        if (len(tmap) + len(splits) != len(L.targets)
                or len(smap) + len(splits) != len(L.sources)):
            return None
        return tmap, smap, emap, splits

    def resolve_boundary(tmap, smap, used_t, used_s, splits) -> bool:
        """Bind the loose ends of boundary wires, listing a split where
        an out-wire's host wire immediately re-enters an in-wire."""
        pending_in = {}
        for a in in_wires:
            b = L.conn[a]
            if b not in smap:
                return False
            pending_in[gconn_inv[smap[b]]] = a
        for c in out_wires:
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

    yield from assign_components(0, {"t": ({}, set()), "s": ({}, set()),
                                     "e": ({}, set()), "agenda": []})


def normalize_by_enumeration(G: LinearHypergraph, rules,
                             max_steps: int = 10000) -> NormalizeResult:
    """The rewriting driver as an exhaustive list search: each step lists
    every match of each rule in turn and takes the first rule's first
    match.  It shares matching with the driver under test, and builds
    each step's graph with the pushout constructions
    (:func:`apply_by_pushouts`), not in place.  Its graph comes back
    smoothed, as the driver's does, also when it takes no step."""
    rules = [r for r in rules if r.L.targets or r.L.edges]
    current = G
    steps: list[Step] = []
    while True:
        hit = None
        for rule in rules:
            ms = find_matchings(rule.L, current)
            if ms:
                hit = (rule, ms[0])
                break
        if hit is None or len(steps) >= max_steps:
            return NormalizeResult(smooth(current), steps,
                                   exhausted=hit is not None)
        rule, match = hit
        matched_edges = tuple(sorted(match.emap.values()))
        current = apply_by_pushouts(rule, match)
        steps.append(Step(len(steps) + 1, rule.name, matched_edges))


def normalize_by_scan(G: LinearHypergraph, rules,
                      max_steps: int = 10000) -> NormalizeResult:
    """``normalize`` choosing each step's rule by testing every rule's
    labels against the host's, in order, instead of asking the rule
    set's label index; the step engine is the library's."""
    rules = [r for r in rules if r.L.targets or r.L.edges]
    host = _Host(G)
    steps: list[Step] = []
    while True:
        for rule in rules:
            if host.by_label.keys() >= rule.labels:
                pattern, chains = rule._search
                found = next(embeddings(pattern, host), None)
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


def normal_forms_by_scan(G: LinearHypergraph, rules, max_steps: int = 10000,
                         max_states: int = 2000
                         ) -> tuple[list[LinearHypergraph], bool]:
    """``normal_forms`` with each state's rules chosen by the scan of
    :func:`normalize_by_scan`."""
    rules = [r for r in rules if r.L.targets or r.L.edges]
    seen = {save_graph(G)}
    frontier = deque([G])
    nfs: list[LinearHypergraph] = []
    expansions = 0
    while frontier:
        cur = frontier.popleft()
        succs = []
        for rule in rules:
            if not cur.view.by_label.keys() >= rule.labels:
                continue
            pattern, chains = rule._search
            for found in embeddings(pattern, cur.view):
                host = _Host(cur)
                host.rewrite(rule,
                             *_complete(rule.L, chains, found, host.expand))
                succs.append(host.freeze())
        if not succs:
            nfs.append(cur)
            continue
        expansions += 1
        if expansions > max_steps or len(seen) > max_states:
            return nfs, True
        for s in succs:
            key = save_graph(s)
            if key not in seen:
                seen.add(key)
                frontier.append(s)
    return nfs, False


def apply_by_pushouts(rule, match: Homomorphism) -> LinearHypergraph:
    """One DPO step at the given match: complement, glue, smooth."""
    k_to_c, _ = pushout_complement(rule.left_leg, match)
    H, _, _ = pushout(k_to_c, rule.right_leg)
    return smooth(H)


def rewrite_by_plan(host, rule, vmap_t: dict[int, int],
                    vmap_s: dict[int, int], emap: dict[int, int]) -> None:
    """``_Host.rewrite`` as a loop over ``rule._step``, the plan the
    library compiles each rule's step from: one list of slots, one
    element at a time, each killed edge's label read from the host."""
    p = rule._step
    if p.error is not None:
        raise RewriteError(p.error)
    left, right, conn, conn_inv = host.left, host.right, host.conn, host.conn_inv
    targets, sources, by_label = host.targets, host.sources, host.by_label
    for side, vmap, checks in ((left, vmap_t, p.check_t),
                               (right, vmap_s, p.check_s)):
        for k, v in checks:
            if side[vmap[v]] is not INTERFACE:
                raise RewriteError(
                    f"not boundary coherent: interface vertex {k} is"
                    " edge-attached on both sides")
    # the checks passed: change the host
    img = list(itertools.islice(host.new_ids, p.fresh))
    img += map(vmap_t.__getitem__, p.keep_t)
    img += map(vmap_s.__getitem__, p.keep_s)
    img.append(INTERFACE)
    for t in map(vmap_t.__getitem__, p.kill_t):
        del conn_inv[conn.pop(t)]
        del targets[t], left[t], host.vtlabels[t]
    for s in map(vmap_s.__getitem__, p.kill_s):
        del sources[s], right[s], host.vslabels[s]
    for e in (emap[e] for e, _ in p.kill_e):
        lab = host.labels.pop(e)
        del by_label[lab][e], host.tgts[e], host.srcs[e], host.edge_seq[e]
        if not by_label[lab]:
            del by_label[lab]
    for i, j in p.glue_t:
        left[img[i]] = img[j]
    for i, j in p.glue_s:
        right[img[i]] = img[j]
    for i, j, lab in p.new_t:
        targets[img[i]], left[img[i]], host.vtlabels[img[i]] = None, img[j], lab
    for i, j, lab in p.new_s:
        sources[img[i]], right[img[i]], host.vslabels[img[i]] = (None, img[j],
                                                                 lab)
    for i, j in p.links:
        conn[img[i]], conn_inv[img[j]] = img[j], img[i]
    for i, lab, ts, ss in p.edges:
        ts = tuple([img[j] for j in ts])
        ss = tuple([img[j] for j in ss])
        for v in ts:  # the edge's ports go last, in R's order
            targets[v] = targets.pop(v)
        for v in ss:
            sources[v] = sources.pop(v)
        e = img[i]
        host.labels[e], host.tgts[e], host.srcs[e] = lab, ts, ss
        by_label.setdefault(lab, {})[e] = None
        host.edge_seq[e] = next(host.tick)
    host.smooth()


def normal_forms_by_pushouts(G: LinearHypergraph, rules,
                             max_steps: int = 10000, max_states: int = 2000
                             ) -> tuple[list[LinearHypergraph], bool]:
    """``normal_forms`` with every match listed first and every step
    built by :func:`apply_by_pushouts`.  Its states are smoothed, as the
    driver's are: G's own identity edges are left to ``find_matchings``,
    and only the key and a normal form of G are smoothed here."""
    rules = [r for r in rules if r.L.targets or r.L.edges]
    seen = {save_graph(smooth(G))}  # canonical files: one per class
    frontier = deque([G])
    nfs: list[LinearHypergraph] = []
    expansions = 0
    exhausted = False
    while frontier:
        cur = frontier.popleft()
        succs = []
        for rule in rules:
            for match in find_matchings(rule.L, cur):
                succs.append(apply_by_pushouts(rule, match))
        if not succs:
            nfs.append(smooth(cur))
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


@dataclass(frozen=True)
class SimpleHypergraph:
    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    src: dict[int, tuple[int, ...]]
    tgt: dict[int, tuple[int, ...]]
    labels: dict[int, str]

    def is_linear_shape(self) -> bool:
        """Every vertex occurs at most once among all edge sources, and
        at most once among all edge targets."""
        for table in (self.src, self.tgt):
            seen: set[int] = set()
            for e in self.edges:
                for v in table[e]:
                    if v in seen:
                        return False
                    seen.add(v)
        return True


def to_simple(H: LinearHypergraph) -> SimpleHypergraph:
    """Collapse each wire onto its source endpoint."""
    tgts, srcs = H.port_tables()
    return SimpleHypergraph(
        vertices=H.sources,
        edges=H.edges,
        src={e: srcs[e] for e in H.edges},
        tgt={e: tuple(H.conn[v] for v in tgts[e]) for e in H.edges},
        labels=dict(H.labels),
    )


def tables_from_scratch(H: LinearHypergraph) -> tuple:
    """What ``H.view`` derives, read off the vertex lists one edge at a
    time: the port tables, each port's index in its edge's port tuple,
    and the inverse of ``conn``."""
    tgts = {e: tuple(v for v in H.targets if H.left[v] == e) for e in H.edges}
    srcs = {e: tuple(v for v in H.sources if H.right[v] == e)
            for e in H.edges}
    index = tuple({v: ports.index(v) for ports in side.values() for v in ports}
                  for side in (tgts, srcs))
    return tgts, srcs, index, {H.conn[t]: t for t in H.targets}


def tables_in_order(view) -> tuple:
    """A view's port tables and ``conn`` inverse as lists of entries in
    insertion order: to compare tables handed to a view with those
    ``GraphView(H)`` derives."""
    return tuple(list(t.items()) for t in (view.tgts, view.srcs,
                                          view.conn_inv))


def view_tables(H: LinearHypergraph) -> tuple:
    """The tables ``H.view`` holds, in :func:`tables_from_scratch`'s
    shape."""
    v = H.view
    return v.tgts, v.srcs, v.port_index, v.conn_inv


def boundary_coherent(m: Homomorphism, n: Homomorphism) -> bool:
    """Every input of the shared domain is an input under at least one
    leg, and dually for outputs."""
    F = m.src
    for v in F.inputs():
        if (m.dst.left[m.vmap_t[v]] is not INTERFACE
                and n.dst.left[n.vmap_t[v]] is not INTERFACE):
            return False
    for v in F.outputs():
        if (m.dst.right[m.vmap_s[v]] is not INTERFACE
                and n.dst.right[n.vmap_s[v]] is not INTERFACE):
            return False
    return True


def glue_simple(m: Homomorphism, n: Homomorphism) -> SimpleHypergraph:
    """The pushout computed in plain simple hypergraphs.

    Always exists; used to witness that non-boundary-coherent spans glue
    to something that is no longer linear."""
    K = m.src
    IC, IR = to_simple(m.dst), to_simple(n.dst)
    rep = {n.vmap_s[k]: m.vmap_s[k] for k in K.sources}
    vertices = IC.vertices + tuple(v for v in IR.vertices if v not in rep)

    def r_img(v: int) -> int:
        return rep.get(v, v)

    src = {**{e: IC.src[e] for e in IC.edges},
           **{e: tuple(r_img(v) for v in IR.src[e]) for e in IR.edges}}
    tgt = {**{e: IC.tgt[e] for e in IC.edges},
           **{e: tuple(r_img(v) for v in IR.tgt[e]) for e in IR.edges}}
    return SimpleHypergraph(
        vertices=vertices,
        edges=IC.edges + IR.edges,
        src=src, tgt=tgt,
        labels={**IC.labels, **IR.labels},
    )


def embeds(L: LinearHypergraph, host, vmap_t: dict[int, int],
           vmap_s: dict[int, int], emap: dict[int, int]) -> bool:
    """``Homomorphism.is_embedding`` for a map of L into a host that
    ``normalize`` rewrites in place, checked on L's image only: the
    check the in-place step leaves to the search."""
    return (vmap_t.keys() == set(L.targets)
            and vmap_s.keys() == set(L.sources)
            and emap.keys() == set(L.edges)
            and all(v in host.targets for v in vmap_t.values())
            and all(v in host.sources for v in vmap_s.values())
            and all(e in host.labels for e in emap.values())
            and len(set(vmap_t.values())) == len(vmap_t)
            and len(set(vmap_s.values())) == len(vmap_s)
            and len(set(emap.values())) == len(emap)
            and commutes(L, host, vmap_t, vmap_s, emap))


def _powerset(xs):
    xs = list(xs)
    for r in range(len(xs) + 1):
        yield from itertools.combinations(xs, r)


def brute_force_complements(left_leg: Homomorphism, match: Homomorphism
                            ) -> list[LinearHypergraph]:
    """Every complement candidate that closes the pushout square.

    Candidates keep an arbitrary subset of the matched vertices; the rest
    of the structure is forced (edges of the match must go, severed wires
    reroute to the interface).  A candidate qualifies when it is a valid
    graph, the interface maps into it so the square commutes, and it
    meets the matched copy exactly in the interface image.
    """
    from linhyp import validate

    K, L, G = left_leg.src, left_leg.dst, match.dst
    img_t = {match.vmap_t[v] for v in L.targets}
    img_s = {match.vmap_s[v] for v in L.sources}
    kimg_t = {match.vmap_t[left_leg.vmap_t[k]] for k in K.targets}
    kimg_s = {match.vmap_s[left_leg.vmap_s[k]] for k in K.sources}
    kill_e = {match.emap[e] for e in L.edges}
    results = []
    for keep_t in _powerset(sorted(img_t)):
        for keep_s in _powerset(sorted(img_s)):
            tset = (set(G.targets) - img_t) | set(keep_t)
            sset = (set(G.sources) - img_s) | set(keep_s)
            if any(G.conn[t] not in sset for t in tset):
                continue
            targets = tuple(v for v in G.targets if v in tset)
            sources = tuple(v for v in G.sources if v in sset)
            C = LinearHypergraph(
                targets=targets,
                sources=sources,
                edges=tuple(e for e in G.edges if e not in kill_e),
                left={v: (INTERFACE if G.left[v] in kill_e else G.left[v])
                      for v in targets},
                right={v: (INTERFACE if G.right[v] in kill_e else G.right[v])
                       for v in sources},
                conn={t: G.conn[t] for t in targets},
                labels={e: l for e, l in G.labels.items() if e not in kill_e},
                vtlabels={v: G.vtlabels[v] for v in targets},
                vslabels={v: G.vslabels[v] for v in sources},
            )
            if validate(C):
                continue
            # the square commutes only if the interface image sits inside C
            if not (kimg_t <= tset and kimg_s <= sset):
                continue
            k_to_c = Homomorphism(
                K, C,
                {k: match.vmap_t[left_leg.vmap_t[k]] for k in K.targets},
                {k: match.vmap_s[left_leg.vmap_s[k]] for k in K.sources},
                {})
            if not is_homomorphism(k_to_c):
                continue
            # pullback condition: C meets the match exactly in K's image
            if set(keep_t) != kimg_t or set(keep_s) != kimg_s:
                continue
            results.append(C)
    return results


def dataflow_fixed_point(H: LinearHypergraph, inputs: tuple[str, ...],
                         csig: CircuitSignature) -> tuple[str, ...]:
    """Least-fixed-point evaluation by monotone iteration on the wires."""
    lat = csig.lattice
    if any(H.labels[e] == DELAY for e in H.edges):
        raise ValueError("oracle does not model delays")
    tgts, srcs = H.port_tables()
    conn_inv = H.conn_inv()
    val = {t: lat.bottom for t in H.targets}
    ins = H.inputs()
    assert len(ins) == len(inputs)

    def wire_in(s: int) -> str:
        return val[conn_inv[s]]

    for _ in range(len(H.targets) * len(lat.values) + 2):
        changed = False

        def raise_to(t: int, v: str) -> None:
            nonlocal changed
            j = lat.join(val[t], v)
            if j != val[t]:
                val[t] = j
                changed = True

        for t, v in zip(ins, inputs):
            raise_to(t, v)
        for e in H.edges:
            lab = H.labels[e]
            iv = tuple(wire_in(s) for s in srcs[e])
            outs = tgts[e]
            if lab in lat.values:
                raise_to(outs[0], lab)
            elif lab == FORK:
                raise_to(outs[0], iv[0])
                raise_to(outs[1], iv[0])
            elif lab == JOIN:
                raise_to(outs[0], lat.join(iv[0], iv[1]))
            elif lab == STUB:
                pass
            elif lab in csig.gates:
                raise_to(outs[0], csig.gates[lab].table[iv])
            else:
                raise ValueError(f"oracle cannot run edge {lab!r}")
        if not changed:
            break
    return tuple(wire_in(s) for s in H.outputs())


def feedback_wires_by_labelled_walk(H: LinearHypergraph) -> list[int]:
    """The cut :func:`linhyp.circuits.feedback_wires` must return: the
    wires that close a cycle in a depth-first walk over H's edges from
    producer to consumer, rooted in ``canonical_labelling`` order, each
    named by its producer end; computed for every graph, loop-free or
    not."""
    tgts = H.view.tgts
    _, _, order = canonical_labelling(H)
    done: set[int] = set()
    cut: list[int] = []
    for root in order:
        if root in done:
            continue
        on_path = {root}
        stack = [(root, iter(tgts[root]))]
        while stack:
            e, ports = stack[-1]
            for t in ports:
                d = H.right[H.conn[t]]
                if d in on_path:
                    cut.append(t)
                elif d is not INTERFACE and d not in done:
                    on_path.add(d)
                    stack.append((d, iter(tgts[d])))
                    break
            else:
                stack.pop()
                on_path.remove(e)
                done.add(e)
    return cut


def evaluate_by_unfolding_all_wires(circuit: Term | LinearHypergraph,
                                    inputs: tuple[str, ...],
                                    csig: CircuitSignature,
                                    max_unfoldings: int = 64,
                                    max_steps: int = 10000):
    """The evaluator that cuts every wire: the circuit, closed with its
    input values, is cut open at its global trace by ``extract_term``,
    which traces the output wires of every edge, and the loop values are
    iterated from bottom, one round per ``interpret`` and ``normalize``
    of the whole body.  Values move one edge deeper per round, so a
    circuit of depth d needs d + 1 rounds."""
    sig = csig.signature()
    H = interpret(circuit, sig) if isinstance(circuit, Term) else circuit
    n = len(H.outputs())
    closed = ops.compose(interpret(value_row(tuple(inputs)), sig), H)
    traced = extract_term(closed)
    x = len(traced.loop)
    rules = eval_rules(csig)
    w = (csig.lattice.bottom,) * x
    for _ in range(max_unfoldings):
        probe = Seq(value_row(w), traced.body) if x else traced.body
        result = normalize(interpret(probe, sig), rules, max_steps=max_steps)
        if result.exhausted:
            return UNPRODUCTIVE
        vals = read_value_word(result.graph, csig)
        if vals is None or len(vals) != x + n:
            return UNPRODUCTIVE
        w_next, outs = vals[:x], vals[x:]
        if w_next == w:
            return outs
        w = w_next
    return UNPRODUCTIVE


def enumerate_graphs(sig, max_t: int) -> list[LinearHypergraph]:
    """Every graph (one per id-layout) with at most ``max_t`` vertices per
    side over the given plain signature: all edge multisets that fit, all
    wirings."""
    gens = list(sig.generators)
    out = []
    multisets: list[tuple[str, ...]] = [()]
    for size in range(1, max_t + 1):
        for combo in itertools.combinations_with_replacement(gens, size):
            multisets.append(combo)
    for labels in multisets:
        sum_dom = sum(len(sig.dom(l)) for l in labels)
        sum_cod = sum(len(sig.cod(l)) for l in labels)
        lo = max(sum_dom, sum_cod)
        for total in range(lo, max_t + 1):
            m = total - sum_cod
            n = total - sum_dom
            take = id_source()
            edges = take(len(labels))
            targets = take(m)
            left: dict[int, int | None] = {v: INTERFACE for v in targets}
            sources: list[int] = []
            right: dict[int, int | None] = {}
            for e, lab in zip(edges, labels):
                ps = take(len(sig.dom(lab)))
                pt = take(len(sig.cod(lab)))
                for v in ps:
                    right[v] = e
                for v in pt:
                    left[v] = e
                sources.extend(ps)
                targets.extend(pt)
            outs = take(n)
            for v in outs:
                right[v] = INTERFACE
            sources.extend(outs)
            for wiring in itertools.permutations(sources):
                out.append(LinearHypergraph(
                    targets=tuple(targets),
                    sources=tuple(sources),
                    edges=tuple(edges),
                    left=dict(left),
                    right=dict(right),
                    conn=dict(zip(targets, wiring)),
                    labels=dict(zip(edges, labels)),
                    vtlabels={v: ANON for v in targets},
                    vslabels={v: ANON for v in sources},
                ))
    return out


# ---------------------------------------------------------------------------
# The paper's alternative constructions
# ---------------------------------------------------------------------------

def is_trace_free(t: Term) -> bool:
    if isinstance(t, Trace):
        return False
    if isinstance(t, Seq):
        return is_trace_free(t.left) and is_trace_free(t.right)
    if isinstance(t, Tensor):
        return is_trace_free(t.top) and is_trace_free(t.bottom)
    return True


def _norm_atom(t: Term) -> Term:
    if isinstance(t, Swap):
        if t.upper == ():
            return Id(t.lower)
        if t.lower == ():
            return Id(t.upper)
    return t


def _smart_tensor(parts: list[Term]) -> Term:
    flat: list[Term] = []
    for p in parts:
        p = _norm_atom(p)
        if isinstance(p, Id) and p.word == ():
            continue
        if flat and isinstance(flat[-1], Id) and isinstance(p, Id):
            flat[-1] = Id(flat[-1].word + p.word)
        else:
            flat.append(p)
    if not flat:
        return Id(())
    t = flat[0]
    for p in flat[1:]:
        t = Tensor(t, p)
    return t


def _smart_seq(parts: list[Term], dom: Word) -> Term:
    parts = [p for p in parts if not isinstance(p, Id)]
    if not parts:
        return Id(dom)
    t = parts[0]
    for p in parts[1:]:
        t = Seq(t, p)
    return t


def stage(t: Term, sig: Signature) -> Term:
    """Rewrite a trace-free term as a chain of one-box slices.

    Each slice is ``Id(m) * k * Id(n)`` with a single non-identity ``k``
    (a generator or a swap); trivial padding is dropped.  The result is
    equal to ``t`` modulo the traced monoidal equations.
    """
    if not is_trace_free(t):
        raise TypeMismatch("stage requires a trace-free term", t)
    dom, _ = type_of(t, sig)

    def slices(u: Term) -> list[tuple[Word, Term, Word]]:
        if isinstance(u, Id):
            return []
        if isinstance(u, (Gen, Swap)):
            return [((), u, ())]
        if isinstance(u, Seq):
            return slices(u.left) + slices(u.right)
        if isinstance(u, Tensor):
            _, tc = type_of(u.top, sig)
            bd, _ = type_of(u.bottom, sig)
            top = [(m, k, n + bd) for (m, k, n) in slices(u.top)]
            bottom = [(tc + m, k, n) for (m, k, n) in slices(u.bottom)]
            return top + bottom
        raise TypeMismatch(f"cannot stage {u!r}", u)

    return _smart_seq([_smart_tensor([Id(m), k, Id(n)])
                       for m, k, n in slices(t)], dom)


def global_trace_form(t: Term, sig: Signature) -> tuple[Word, Term]:
    """Pull every trace in ``t`` to a single outermost one.

    Returns ``(x, body)`` with ``body`` trace-free and ``Trace(x, body)``
    equal to ``t`` modulo the traced monoidal equations.
    """
    type_of(t, sig)

    def go(u: Term) -> tuple[Word, Term]:
        if isinstance(u, (Gen, Id, Swap)):
            return (), u
        if isinstance(u, Trace):
            x, body = go(u.body)
            return x + u.loop, body
        if isinstance(u, Seq):
            p, f = go(u.left)
            q, g = go(u.right)
            m, k = type_of(u.left, sig)
            # f : p+m -> p+k, g : q+k -> q+n
            body = _smart_seq([
                _smart_tensor([Id(p), Swap(q, m)]),
                _smart_tensor([f, Id(q)]),
                _smart_tensor([Id(p), Swap(k, q)]),
                _smart_tensor([Id(p), g]),
            ], p + q + m)
            return p + q, body
        if isinstance(u, Tensor):
            p, f = go(u.top)
            q, g = go(u.bottom)
            a, b = type_of(u.top, sig)
            c, d = type_of(u.bottom, sig)
            # f : p+a -> p+b, g : q+c -> q+d
            body = _smart_seq([
                _smart_tensor([Id(p), Swap(q, a), Id(c)]),
                _smart_tensor([f, g]),
                _smart_tensor([Id(p), Swap(b, q), Id(d)]),
            ], p + q + a + c)
            return p + q, body
        raise TypeMismatch(f"not a term: {u!r}", u)

    x, body = go(t)
    type_of(Trace(x, body) if x else body, sig)
    return x, body


def swap_recursive(m: int, n: int) -> LinearHypergraph:
    """The inductive build of composite swaps from single crossings, to
    compare with the direct ``ops.swap`` up to isomorphism."""
    if m == 0:
        return ops.identity(n)
    if n == 0:
        return ops.identity(m)
    if m == 1 and n == 1:
        return ops.swap(1, 1)
    compose, tensor, identity, cross = (ops.compose, ops.tensor,
                                        ops.identity, ops.swap(1, 1))
    if n == 1:
        return compose(tensor(identity(m - 1), cross),
                       tensor(swap_recursive(m - 1, 1), identity(1)))
    if m == 1:
        return compose(tensor(swap_recursive(1, n - 1), identity(1)),
                       tensor(identity(n - 1), cross))
    return compose(
        compose(
            tensor(tensor(identity(m - 1), swap_recursive(1, n - 1)),
                   identity(1)),
            tensor(swap_recursive(m - 1, n - 1), cross)),
        tensor(tensor(identity(n - 1), swap_recursive(m - 1, 1)), identity(1)))


def trace_mono(x: int | str | Word, F: LinearHypergraph
               ) -> tuple[LinearHypergraph, Homomorphism]:
    """Trace that keeps the traced vertices alive behind identity edges.

    Each of the first ``x`` input wires gets an identity edge, then the
    plain trace closes the loops.  Returns the traced graph together with
    an embedding of ``F`` into it; smoothing the result gives the plain
    trace.
    """
    loop_in = F.inputs()[:len(as_word(x))]
    loop_out = F.outputs()[:len(loop_in)]
    E = F
    for t in loop_in:
        E = expand(E, t)
    H = ops.trace(x, E)
    # trace keeps E's ids and drops the loop vertices, keeping the order
    # of the rest; F's loop vertices live on as the ports of
    # the identity edges, which expand appended in loop order
    ren = dict(zip([v for v in E.targets if v not in loop_in], H.targets))
    ren.update(zip([v for v in E.sources if v not in loop_out], H.sources))
    ren.update(zip(E.edges, H.edges))
    ren.update(zip(loop_in, (ren[v] for v in E.targets[len(F.targets):])))
    ren.update(zip(loop_out, (ren[v] for v in E.sources[len(F.sources):])))
    return H, Homomorphism(F, H, {v: ren[v] for v in F.targets},
                           {v: ren[v] for v in F.sources},
                           {e: ren[e] for e in F.edges})


def compose_by_rewiring(F: LinearHypergraph, G: LinearHypergraph
                        ) -> LinearHypergraph:
    """Composition rewired by hand: each target of ``F`` whose wire ends
    at an output of ``F`` is wired to where the input of ``G`` beside it
    went, and the rest of both graphs is copied."""
    if F.cod() != G.dom():
        raise TypeMismatch(
            f"cannot compose: {F.cod()} does not match {G.dom()}")
    G = above(G, F)
    f_outs = F.outputs()
    g_ins = G.inputs()
    out_pos = {v: i for i, v in enumerate(f_outs)}
    dead_s = set(f_outs)
    dead_t = set(g_ins)

    conn: dict[int, int] = {}
    for t in F.targets:
        s = F.conn[t]
        if s in dead_s:
            conn[t] = G.conn[g_ins[out_pos[s]]]
        else:
            conn[t] = s
    for t in G.targets:
        if t not in dead_t:
            conn[t] = G.conn[t]

    return LinearHypergraph(
        targets=F.targets + tuple(t for t in G.targets if t not in dead_t),
        sources=tuple(s for s in F.sources if s not in dead_s) + G.sources,
        edges=F.edges + G.edges,
        left={**F.left, **{v: e for v, e in G.left.items() if v not in dead_t}},
        right={**{v: e for v, e in F.right.items() if v not in dead_s}, **G.right},
        conn=conn,
        labels={**F.labels, **G.labels},
        vtlabels={**F.vtlabels,
                  **{v: l for v, l in G.vtlabels.items() if v not in dead_t}},
        vslabels={**{v: l for v, l in F.vslabels.items() if v not in dead_s},
                  **G.vslabels},
    )


def _trace_once(F: LinearHypergraph) -> LinearHypergraph:
    ins, outs = F.inputs(), F.outputs()
    if not ins or not outs or F.vtlabels[ins[0]] != F.vslabels[outs[0]]:
        raise TypeMismatch("trace needs matching first input and output wires")
    t0, s0 = ins[0], outs[0]
    loop_to = F.conn[t0]
    conn = {}
    for t in F.targets:
        if t == t0:
            continue
        s = F.conn[t]
        conn[t] = loop_to if s == s0 else s
    return LinearHypergraph(
        targets=tuple(v for v in F.targets if v != t0),
        sources=tuple(v for v in F.sources if v != s0),
        edges=F.edges,
        left={v: e for v, e in F.left.items() if v != t0},
        right={v: e for v, e in F.right.items() if v != s0},
        conn=conn,
        labels=dict(F.labels),
        vtlabels={v: l for v, l in F.vtlabels.items() if v != t0},
        vslabels={v: l for v, l in F.vslabels.items() if v != s0},
    )


def trace_by_single_wires(x: int | str | Word, F: LinearHypergraph
                          ) -> LinearHypergraph:
    """Trace by repeated single-wire tracing: one copy of the graph per
    traced wire, so quadratic in the number of wires."""
    w = as_word(x)
    if F.dom()[:len(w)] != w or F.cod()[:len(w)] != w:
        raise TypeMismatch(
            f"cannot trace {w} out of a {F.dom()} -> {F.cod()} graph")
    for _ in range(len(w)):
        F = _trace_once(F)
    return F


def smooth_by_splicing(H: LinearHypergraph) -> LinearHypergraph:
    """Every identity edge removed one at a time, splicing the wire
    through it in a copy of ``conn`` and its inverse."""
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


def shuffle_by_insertion(H: LinearHypergraph) -> Term:
    """The wiring term of an untangled graph, one wire per step.

    Each step pulls the wire feeding the next source to the top and
    spells out the remaining wires, so n wires give Θ(n) nested steps and
    Θ(n²) total word length.  Meant for a few hundred wires at most.
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


def canonical_labelling_by_port_search(H: LinearHypergraph
                                       ) -> tuple[list[int], list[int],
                                                  list[int]]:
    """The canonical labelling with each far port's index found by a
    search of its edge's port tuple, as before the port-index tables."""
    tgts, srcs = H.port_tables()
    conn_inv = H.conn_inv()

    def code(order: list[int]) -> tuple:
        num = {e: i for i, e in enumerate(order)}
        return tuple((H.labels[e], len(tgts[e]), tuple(
            (num[H.right[s]], srcs[H.right[s]].index(s), H.vslabels[s])
            for s in [H.conn[v] for v in tgts[e]]) + tuple(
            (num[H.left[t]], tgts[H.left[t]].index(t), H.vtlabels[t])
            for t in [conn_inv[s] for s in srcs[e]])) for e in order)

    ins, outs = H.inputs(), H.outputs()
    seen: set[int] = set()
    edges = _walk(H, tgts, srcs, conn_inv, [H.right[H.conn[t]] for t in ins]
                  + [H.left[conn_inv[s]] for s in outs], seen)
    coded = []
    for e in H.edges:
        if e not in seen:
            comp = _walk(H, tgts, srcs, conn_inv, (e,), seen)
            count = Counter(H.labels[a] for a in comp)
            rare = min(count, key=lambda lab: (count[lab], lab))
            coded.append(min((code(w), w) for w in (
                comp if a == e else _walk(H, tgts, srcs, conn_inv, (a,), set())
                for a in comp if H.labels[a] == rare)))
    for _, order in sorted(coded):
        edges += order
    targets = [*ins, *(v for e in edges for v in tgts[e])]
    sources = [*(v for e in edges for v in srcs[e]), *outs]
    return targets, sources, edges


# ---------------------------------------------------------------------------
# Graph files entry by entry
# ---------------------------------------------------------------------------

def graph_to_dict(H: LinearHypergraph) -> dict:
    """The parsed form of H's graph file with H's own ids: what
    ``save_graph(H, canonicalize=False)`` writes is ``json.dumps`` of it
    with ``indent=2``."""
    def side(x: int | None):
        return "interface" if x is INTERFACE else x

    data: dict = {
        "targets": list(H.targets),
        "sources": list(H.sources),
        "edges": [{"id": e, "label": H.labels[e]} for e in H.edges],
        "left": {str(v): side(H.left[v]) for v in H.targets},
        "right": {str(v): side(H.right[v]) for v in H.sources},
        "conn": {str(t): H.conn[t] for t in H.targets},
    }
    if any(l != ANON for l in H.vtlabels.values()):
        data["vtlabels"] = {str(v): H.vtlabels[v] for v in H.targets}
        data["vslabels"] = {str(v): H.vslabels[v] for v in H.sources}
    return data


def _escaped(label: str) -> str:
    """``label`` in a quoted DOT string, a backslash before each quote
    and backslash."""
    return "".join("\\" + c if c in '"\\' else c for c in label)


def to_dot_of_canonical(H: LinearHypergraph) -> str:
    """``serialize.to_dot`` drawn from ``canonical(H)``, the renumbered
    copy of H, whose ids are the numbers it draws."""
    G = canonical(H)
    lines = ["digraph G {", "  rankdir=LR;",
             '  node [fontname="monospace"];']
    ins, outs = G.inputs(), G.outputs()
    if ins:
        lines.append('  IN [label="in", shape=plaintext, fontcolor=grey];')
    if outs:
        lines.append('  OUT [label="out", shape=plaintext, fontcolor=grey];')
    for t in G.targets:
        label = G.vtlabels[t]
        text = "" if label == ANON else _escaped(label)
        lines.append(f'  w{t} [label="{text}", shape=point];')
    for e in G.edges:
        lab = G.labels[e]
        if lab == IDENTITY_LABEL:
            lines.append(f'  e{e} [label="", shape=diamond, color=grey];')
        else:
            lines.append(f'  e{e} [label="{_escaped(lab)}", shape=box];')
    view = G.view
    tgts, srcs, conn_inv = view.tgts, view.srcs, view.conn_inv
    for i, t in enumerate(ins):
        lines.append(f"  IN -> w{t} [taillabel={i}, color=grey];")
    for i, s in enumerate(outs):
        lines.append(f"  w{conn_inv[s]} -> OUT [headlabel={i}, color=grey];")
    for e in G.edges:
        for i, s in enumerate(srcs[e]):
            lines.append(f"  w{conn_inv[s]} -> e{e} [headlabel={i}];")
        for i, t in enumerate(tgts[e]):
            lines.append(f"  e{e} -> w{t} [taillabel={i}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


_KINDS = {int: "an integer id", str: "a string", list: "an array",
          dict: "an object"}


def graph_from_dict_per_entry(data) -> LinearHypergraph:
    """``serialize.graph_from_dict`` entry by entry: every key and value is
    converted and type-checked on its own, and the first bad one raises
    ``ValueError("not a graph file: …")``; ``null`` passes only in
    ``left`` and ``right``, as the interface.  The library's bulk checks
    must accept the same files, build the same graphs and word the same
    errors."""
    def bad(what: str) -> ValueError:
        return ValueError(f"not a graph file: {what}")

    def check(xs: list, kind: type, where: str) -> list:
        if set(map(type, xs)) - {kind}:
            x = next(x for x in xs if type(x) is not kind)
            raise bad(f"{where}: {x!r} is not {_KINDS[kind]}")
        return xs

    def get(name: str, kind: type, optional: bool = False):
        if name not in data and not optional:
            raise bad(f"no {name!r}")
        return check([data.get(name, kind())], kind, name)[0]

    def table(name: str, kind: type, optional: bool = False,
              sides: bool = False) -> dict:
        d = get(name, dict, optional)
        try:
            keys = [int(k) if k.removeprefix("-").isdecimal() else k
                    for k in d]
        except ValueError:  # more digits than ``int`` converts
            raise bad(f"{name}: a key is not an integer id") from None
        if list(map(str, check(keys, int, name))) != list(d):
            raise bad(f"{name}: a key is not an integer id")
        values = list(d.values())
        if sides:
            values = [INTERFACE if v == "interface" else v for v in values]
            check([v for v in values if v is not INTERFACE], kind, name)
        else:  # null is no id and no label
            check(values, kind, name)
        return dict(zip(keys, values))

    check([data], dict, "the file")
    edges = check(get("edges", list), dict, "edges")
    if not all("id" in e and "label" in e for e in edges):
        raise bad("an edge lacks its id or label")
    edge_ids = check([e["id"] for e in edges], int, "edges")
    return LinearHypergraph(
        targets=tuple(check(get("targets", list), int, "targets")),
        sources=tuple(check(get("sources", list), int, "sources")),
        edges=tuple(edge_ids),
        left=table("left", int, sides=True),
        right=table("right", int, sides=True),
        conn=table("conn", int),
        labels=dict(zip(edge_ids, check([e["label"] for e in edges], str,
                                        "edges"))),
        vtlabels=table("vtlabels", str, optional=True),
        vslabels=table("vslabels", str, optional=True),
    )


# Builders and checks that only the tests use
# ---------------------------------------------------------------------------

def id_source(start: int = 0):
    """A function that hands out consecutive ids from ``start`` on, ``n``
    at a time, as a list: the ids of one graph built by hand.  Ids need
    only be distinct within their graph."""
    ids = itertools.count(start)
    return lambda n: list(itertools.islice(ids, n))


def random_graph(rng: random.Random, sig: Signature,
                 max_edges: int = 4, max_extra_wires: int = 3
                 ) -> LinearHypergraph:
    """A random well-formed graph over a plain signature.

    Edge labels are drawn from the signature, interface wires are added,
    and the wiring is a uniformly random bijection; every such bijection
    gives a valid graph.
    """
    gens = list(sig.generators)
    k = rng.randint(0, max_edges)
    labels = [rng.choice(gens) for _ in range(k)]
    sum_dom = sum(len(sig.dom(l)) for l in labels)
    sum_cod = sum(len(sig.cod(l)) for l in labels)
    m = max(0, sum_dom - sum_cod) + rng.randint(0, max_extra_wires)
    n = m + sum_cod - sum_dom

    take = id_source()
    edges = take(k)
    targets: list[int] = take(m)
    left: dict[int, int | None] = {v: INTERFACE for v in targets}
    sources: list[int] = []
    right: dict[int, int | None] = {}
    for e, lab in zip(edges, labels):
        ports_s = take(len(sig.dom(lab)))
        ports_t = take(len(sig.cod(lab)))
        for v in ports_s:
            right[v] = e
        for v in ports_t:
            left[v] = e
        sources.extend(ports_s)
        targets.extend(ports_t)
    outs = take(n)
    for v in outs:
        right[v] = INTERFACE
    sources.extend(outs)

    shuffled = sources[:]
    rng.shuffle(shuffled)
    return LinearHypergraph(
        targets=tuple(targets),
        sources=tuple(sources),
        edges=tuple(edges),
        left=left,
        right=right,
        conn=dict(zip(targets, shuffled)),
        labels=dict(zip(edges, labels)),
        vtlabels={v: ANON for v in targets},
        vslabels={v: ANON for v in sources},
    )


def feedback_ladder(k: int, gate: str = "org") -> Term:
    """``k`` rungs ``gate ; fork`` : 2 -> 2 in a row, of type 2 -> 2.
    Each rung's second output feeds the next rung's second input, and
    each rung's first output feeds back to the previous rung's first
    input.  The ladder's first input is the first rung's second input,
    its second input the last rung's first, and its outputs are the
    first rung's first output and the last rung's second.  A depth-first walk from the first rung cuts the
    ``k - 1`` backward wires, so a value entering the last rung moves
    back one cut wire per round of ``evaluate``."""
    rung = Seq(Gen(gate), Gen(FORK))
    t = Seq(Swap(1, 1), rung)
    for _ in range(k - 1):
        # (a_i, b_1, a_{i+1}) -> (c_{i+1}, c_1, d_{i+1}), traced on the
        # feedback c_{i+1} -> a_i
        t = Trace(1, Seq(Seq(Seq(Seq(Tensor(Swap(1, 1), Id(1)),
                                     Tensor(t, Id(1))),
                                 Tensor(Id(1), Swap(1, 1))),
                             Tensor(Id(1), rung)),
                         Tensor(Swap(1, 1), Id(1))))
    return t


def gate_from_fn(name: str, arity: int, fn, lattice: ValueLattice) -> Gate:
    """The gate whose truth table is ``fn`` on every row of values."""
    table = {vs: fn(*vs)
             for vs in itertools.product(lattice.values, repeat=arity)}
    return Gate(name, arity, table)


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


def log_log_slope(points) -> float:
    """The least-squares slope of log time against log size."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))
