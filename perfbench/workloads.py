"""Seeded workloads: the inputs, the job each input runs, and its check.

Every job calls the public linhyp functions that the matching CLI command
calls, looked up on the ``linhyp`` package at call time so that the traced
run sees them.  A workload is built in two parts.  ``build_*`` makes the
inputs from the seed alone with the benchmark's own code, once and
untimed.  ``Workload.prepare`` is the set-up the program does before the
first job, and only that: parsing the signature, rule and lattice files,
compiling the rules and writing the input files the CLI would read.  It
is what ``setup_s`` times.  Checks run after the job, outside its timed
region, against the independent references in ``reference.py``.

Pools are stratified: a job's stratum and size come from fixed ladders
that are the same for every seed, and only the content is random.  The
seed therefore changes what is computed but not how much, which keeps
the figures of different seeds comparable.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import linhyp as L
from linhyp import Gen, Id, Seq, Swap, Tensor, Trace

import reference as ref


@dataclass
class Job:
    kind: str
    edges: int
    loops: int
    run: Callable[[], object]
    check: Callable[[object], str | None]


@dataclass
class Workload:
    """The jobs, and the program's set-up.  ``prepare`` stores what it
    makes in ``ctx``, where the jobs read it when they run."""
    jobs: list[Job]
    prepare: Callable[[], None]


def _once(memo: dict, compute: Callable[[], object]):
    """The reference answer of one job, computed at its first check."""
    if "value" not in memo:
        memo["value"] = compute()
    return memo["value"]


def _sig_text(gens: dict[str, tuple[int, int]]) -> str:
    return "".join(f"{g} : {m} -> {n}\n" for g, (m, n) in gens.items())


def _gen_count(t) -> int:
    kind = type(t).__name__
    if kind == "Gen":
        return 1
    if kind in ("Seq", "Tensor"):
        a, b = ((t.left, t.right) if kind == "Seq" else (t.top, t.bottom))
        return _gen_count(a) + _gen_count(b)
    if kind == "Trace":
        return _gen_count(t.body)
    return 0


def _chain(labels: list[str]):
    t = Gen(labels[0])
    for lab in labels[1:]:
        t = Seq(t, Gen(lab))
    return t


def _tensor_all(parts: list):
    t = parts[0]
    for p in parts[1:]:
        t = Tensor(t, p)
    return t


def _ladder_order(rng: random.Random, ladder: list, count: int) -> list:
    """``count`` values cycling through the whole ladder, each cycle in a
    seeded order."""
    out: list = []
    while len(out) < count:
        cycle = list(ladder)
        rng.shuffle(cycle)
        out.extend(cycle)
    return out[:count]


# A copy of the idea of ``linhyp.laws.random_term``, kept on purpose: the
# inputs come from the benchmark's own code, so a change to the program
# cannot change what the benchmark runs.
def random_term(rng: random.Random, gens: dict[str, tuple[int, int]],
                m: int, n: int, depth: int, traces: bool = True):
    """A random well-typed term of type ``m -> n``.

    ``gens`` must contain a ``0 -> 1`` and a ``1 -> 0`` generator, which
    realize any type at depth zero.
    """
    exact = [g for g, ty in gens.items() if ty == (m, n)]
    moves: list[str] = []
    if m == n:
        moves += ["id", "swap"] if m else ["id"]
    moves += ["gen"] * 3 if exact else []
    if depth > 0:
        moves += ["seq", "seq", "tensor", "tensor"] + (["trace"] if traces else [])
    if not moves:
        sink = next(g for g, ty in gens.items() if ty == (1, 0))
        source = next(g for g, ty in gens.items() if ty == (0, 1))
        parts = [Gen(sink)] * m + [Gen(source)] * n
        if not parts:
            return Id(0)
        if m and n:
            return Seq(_tensor_all(parts[:m]), _tensor_all(parts[m:]))
        return _tensor_all(parts)
    move = rng.choice(moves)
    if move == "gen":
        return Gen(rng.choice(exact))
    if move == "id":
        return Id(m)
    if move == "swap":
        a = rng.randint(1, m)
        return Swap(a, m - a)
    if move == "seq":
        k = rng.randint(0, 2)
        return Seq(random_term(rng, gens, m, k, depth - 1, traces),
                   random_term(rng, gens, k, n, depth - 1, traces))
    if move == "tensor":
        m1, n1 = rng.randint(0, m), rng.randint(0, n)
        return Tensor(random_term(rng, gens, m1, n1, depth - 1, traces),
                      random_term(rng, gens, m - m1, n - n1, depth - 1, traces))
    x = rng.randint(1, 2)
    return Trace(x, random_term(rng, gens, x + m, x + n, depth - 1, traces))


def _code_of_term(t, gens):
    return ref.canonical_code(ref.from_term(t, gens))


def _code_of_graph(H):
    return ref.canonical_code(ref.from_graph(H))


# ---------------------------------------------------------------------------
# roundtrip: interpret + extract + iso, and equal_mod_stmc verdicts
# ---------------------------------------------------------------------------

LAW_GENS = {"f": (1, 1), "g": (1, 2), "h": (2, 2), "k": (2, 1),
            "u": (0, 1), "z": (1, 0)}

# 2 -> 2 blocks with their generator counts; composites chain them
# left-nested, which is the shape that makes ``compose`` quadratic
_BLOCKS = [
    (Gen("h"), 1),
    (Tensor(Gen("f"), Gen("f")), 2),
    (Seq(Gen("k"), Gen("g")), 2),
    (Seq(Swap(1, 1), Gen("h")), 1),
    (Seq(Tensor(Gen("f"), Id(1)), Gen("h")), 2),
    (Tensor(Seq(Gen("z"), Gen("u")), Id(1)), 2),
]

# generator counts of the composites.  At 400 generators the extracted
# term of a composite is nested deeper than the default recursion limit
# (every 400-generator composite fails, every 360-generator one passes),
# so the ladder stops at 300.
COMPOSITE_LADDER = [100, 129, 157, 186, 214, 243, 271, 300]
# 24 of the 270 jobs are composites, three per rung, spread evenly.  A
# composite takes 0.1-1 s and a small term a few ms, so the 24 are the
# slowest jobs and the 95th percentile (rank 257 of 270) falls in the
# middle of the 186-generator rung.  job_p95_ms thus measures a
# mid-ladder composite, where compose is quadratic, and job_p50_ms the
# small terms.
ROUNDTRIP_POOL = 270
COMPOSITES = 3 * len(COMPOSITE_LADDER)
# generator-count buckets for the random terms of each depth, spanning
# the bulk of what that depth produces
TERM_BUCKETS = {
    4: [(1, 2), (3, 5), (6, 9), (10, 14), (15, 20)],
    5: [(1, 2), (3, 6), (7, 12), (13, 19), (20, 28)],
    6: [(1, 3), (4, 9), (10, 17), (18, 27), (28, 40)],
    7: [(1, 4), (5, 12), (13, 22), (23, 35), (36, 55)],
}
_SMALL_STRATA = ["term-d4", "term-d5", "term-d6", "term-d7",
                 "axiom", "perturbed"]


def _sized_term(rng: random.Random, depth: int, lo: int, hi: int):
    while True:
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        t = random_term(rng, LAW_GENS, m, n, depth=depth)
        if lo <= _gen_count(t) <= hi:
            return t


def composite(rng: random.Random, size: int):
    """A left-nested chain of blocks with ``size`` generators.  Blocks come
    in shuffled rounds of all six, so composites of one size have the same
    mix of blocks, and about the same cost, at every seed."""
    t, count = _BLOCKS[0]
    round_: list = []
    while count < size:
        if not round_:
            round_ = list(_BLOCKS)
            rng.shuffle(round_)
        block, c = round_.pop()
        if count + c > size:
            block, c = _BLOCKS[0]
        t, count = Seq(t, block), count + c
    return t


def _is_composite(i: int) -> bool:
    return (i + 1) * COMPOSITES // ROUNDTRIP_POOL > i * COMPOSITES // ROUNDTRIP_POOL


def _axiom_instance(rng: random.Random):
    """Two sides of one randomly instantiated traced symmetric monoidal
    law; they are equal by the law."""
    def rt(m, n):
        return random_term(rng, LAW_GENS, m, n, depth=2)

    m, n, p, q = (rng.randint(0, 2) for _ in range(4))
    law = rng.randrange(8)
    if law == 0:
        F, G, H = rt(m, n), rt(n, p), rt(p, q)
        return Seq(Seq(F, G), H), Seq(F, Seq(G, H))
    if law == 1:
        F, G, H, K = rt(m, n), rt(p, q), rt(n, 1), rt(q, 2)
        return (Seq(Tensor(F, G), Tensor(H, K)),
                Tensor(Seq(F, H), Seq(G, K)))
    if law == 2:
        F, G = rt(m, n), rt(p, q)
        return Seq(Tensor(F, G), Swap(n, q)), Seq(Swap(m, p), Tensor(G, F))
    if law == 3:
        X, G, H = rt(1 + m, 1 + n), rt(p, m), rt(n, q)
        return (Seq(Seq(G, Trace(1, X)), H),
                Trace(1, Seq(Seq(Tensor(Id(1), G), X), Tensor(Id(1), H))))
    if law == 4:
        X, G = rt(1 + m, 1 + n), rt(p, q)
        return Trace(1, Tensor(X, G)), Tensor(Trace(1, X), G)
    if law == 5:
        x = rng.randint(1, 2)
        F = rt(x, n)
        return Seq(Trace(x, Swap(x, x)), F), F
    if law == 6:
        A, X = rt(1, 1), rt(1 + m, 1 + n)
        return (Trace(1, Seq(Tensor(A, Id(m)), X)),
                Trace(1, Seq(X, Tensor(A, Id(n)))))
    Y = rt(2 + m, 2 + n)
    return (Trace(1, Trace(1, Y)),
            Trace(1, Trace(1, Seq(Seq(Tensor(Swap(1, 1), Id(m)), Y),
                                  Tensor(Swap(1, 1), Id(n))))))


def _perturb(t, m: int, n: int):
    """A small edit of ``t`` of the same type; it may or may not change
    the graph, and the reference decides which."""
    if n >= 2:
        return Seq(t, Tensor(Swap(1, 1), Id(n - 2)))
    if n == 1:
        return Seq(t, Gen("f"))
    if m >= 1:
        return Seq(Tensor(Gen("f"), Id(m - 1)), t)
    return Tensor(t, Trace(1, Gen("f")))


def _pipeline_job(kind: str, term, ctx: dict) -> Job:
    """CLI interpret -> extract -> interpret -> iso, on one term."""
    def run():
        sig = ctx["sig"]
        text = L.render_term(term)
        parsed = L.parse_term(text, sig)
        L.type_of(parsed, sig)
        H = L.interpret(parsed, sig)
        report = L.validate(H, sig)
        loaded = L.load_graph(L.save_graph(H))
        back = L.interpret(L.extract_term(loaded), sig)
        return H, report, loaded, back, L.find_isomorphism(loaded, back)

    memo: dict = {}

    def check(out) -> str | None:
        H, report, loaded, back, witness = out
        if report:
            return f"validate reported {report[:2]}"
        want = _once(memo, lambda: _code_of_term(term, LAW_GENS))
        if _code_of_graph(H) != want:
            return "interpretation differs from the reference graph"
        g_loaded, g_back = ref.from_graph(loaded), ref.from_graph(back)
        if ref.canonical_code(g_back) != want:
            return "round-trip graph is not isomorphic to the original"
        if witness is None:
            return "find_isomorphism found no witness for isomorphic graphs"
        if not ref.witness_is_isomorphism(g_loaded, g_back, loaded.edges,
                                          back.edges, witness.emap):
            return "find_isomorphism returned an invalid witness"
        return None

    return Job(kind, _gen_count(term), 0, run, check)


def _verdict_job(kind: str, lhs, rhs, ctx: dict, gens, known: bool | None,
                 loops: int = 0) -> Job:
    """equal_mod_stmc on a pair; ``known`` is the answer by construction,
    or None when the reference decides it."""
    def run():
        return L.equal_mod_stmc(lhs, rhs, ctx["sig"])

    memo: dict = {}

    def check(verdict) -> str | None:
        want = known
        if want is None:
            want = _once(memo, lambda: (
                _code_of_term(lhs, gens) == _code_of_term(rhs, gens)))
        return None if verdict == want else f"verdict {verdict}, expected {want}"

    return Job(kind, _gen_count(lhs), loops, run, check)


def build_roundtrip(seed: int) -> Workload:
    rng = random.Random(seed)
    ctx: dict = {}
    sig_text = _sig_text(LAW_GENS)
    per = ROUNDTRIP_POOL // len(_SMALL_STRATA) + 1
    buckets = {d: iter(_ladder_order(rng, b, per))
               for d, b in TERM_BUCKETS.items()}
    sizes = iter(_ladder_order(rng, COMPOSITE_LADDER, COMPOSITES))
    jobs: list[Job] = []
    small = 0
    for i in range(ROUNDTRIP_POOL):
        if _is_composite(i):
            jobs.append(_pipeline_job("composite", composite(rng, next(sizes)), ctx))
            continue
        kind = _SMALL_STRATA[small % len(_SMALL_STRATA)]
        small += 1
        if kind.startswith("term-d"):
            depth = int(kind[-1])
            t = _sized_term(rng, depth, *next(buckets[depth]))
            jobs.append(_pipeline_job(kind, t, ctx))
            continue
        lhs, rhs = _axiom_instance(rng)
        if kind == "axiom":
            jobs.append(_verdict_job(kind, lhs, rhs, ctx, LAW_GENS, True))
        else:
            g = ref.from_term(rhs, LAW_GENS)
            jobs.append(_verdict_job(kind, lhs, _perturb(rhs, g.n_in, g.n_out),
                                     ctx, LAW_GENS, None))

    def prepare():
        ctx["sig"] = L.parse_signature(sig_text)

    return Workload(jobs, prepare)


# ---------------------------------------------------------------------------
# rewrite: load a host graph and normalize it under a fixed rule file
# ---------------------------------------------------------------------------

REWRITE_GENS = {"f": (1, 1), "p": (1, 1), "c": (1, 2), "d": (1, 2),
                "s": (1, 0), "w": (1, 1)}

# each rule owns its labels, so every host family has a known closed form
# and step count whatever order `normalize` picks
REWRITE_RULES = """\
ff : f ; f => f
copy-nat : p ; c => c ; p * p
counit : d ; s * id 1 => id 1
"""

REWRITE_POOL = 100
# ladders of equal length: each stratum has 20 jobs, two whole cycles,
# and a mixed host takes the same rung of all three.  Ten rungs put each
# at 2% of the pool, so the 95th percentile falls inside a rung.
CHAIN_LADDER = [10, 15, 20, 26, 32, 38, 44, 50, 55, 60]
LOOP_LADDER = [2, 3, 4, 5, 6, 7, 8, 9, 10, 12]
FAN_LADDER = [3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
STRAIGHT_LADDER = [4, 5, 6, 8, 10, 12, 14, 16, 18, 20]
LOOPS_PER_HOST = 3
_REWRITE_STRATA = ["chain", "loops", "fan", "straight", "mixed"]


def _host_chain(n):
    return _chain(["f"] * n), Gen("f"), n - 1


def _host_loop(rng, length):
    """A loop of f's, optionally through one w; the last ``f ; f => f``
    step on a bare 2-loop needs matching up to homeomorphism."""
    if rng.random() < 0.5:
        return (Trace(1, _chain(["f"] * length)), Trace(1, Gen("f")),
                length - 1)
    return (Trace(1, _chain(["w"] + ["f"] * length)),
            Trace(1, Seq(Gen("w"), Gen("f"))), length - 1)


def _host_fan(n):
    """``p^n`` through two copies: the graph grows from n+2 to 3n+2 edges."""
    copies = Seq(Gen("c"), Tensor(Gen("c"), Id(1)))
    ps = _chain(["p"] * n)
    host = Seq(Seq(ps, Gen("c")), Tensor(Gen("c"), Id(1)))
    return host, Seq(copies, _tensor_all([ps, ps, ps])), 2 * n


def _host_straight(k):
    """``w`` then k copies of ``d ; s * id 1 ; w``; the counit rule's right
    side is a bare wire, so it is saturated with an identity edge."""
    redex = Seq(Seq(Gen("d"), Tensor(Gen("s"), Id(1))), Gen("w"))
    t = Gen("w")
    for _ in range(k):
        t = Seq(t, redex)
    return t, _chain(["w"] * (k + 1)), k


def _rewrite_job(kind, i, edges, expected, steps, ctx: dict) -> Job:
    """CLI rewrite: load_graph, normalize, save_graph."""
    def run():
        result = L.normalize(L.load_graph(ctx["hosts"][i]), ctx["rules"])
        return result, L.save_graph(result.graph)

    memo: dict = {}

    def check(out) -> str | None:
        result, _ = out
        if result.exhausted:
            return "step budget exhausted"
        if len(result.steps) != steps:
            return f"{len(result.steps)} steps, expected {steps}"
        want = _once(memo, lambda: _code_of_term(expected, REWRITE_GENS))
        if _code_of_graph(result.graph) != want:
            return "normal form is not isomorphic to the closed form"
        return None

    return Job(kind, edges, 0, run, check)


def build_rewrite(seed: int) -> Workload:
    rng = random.Random(seed)
    ctx: dict = {}
    sig_text = _sig_text(REWRITE_GENS)
    hosts = []
    per = REWRITE_POOL // len(_REWRITE_STRATA)
    rungs = {kind: iter(_ladder_order(rng, range(len(CHAIN_LADDER)), per))
             for kind in _REWRITE_STRATA if kind != "loops"}
    loops = iter(_ladder_order(rng, LOOP_LADDER, LOOPS_PER_HOST * per))
    jobs = []
    for i in range(REWRITE_POOL):
        kind = _REWRITE_STRATA[i % len(_REWRITE_STRATA)]
        if kind == "loops":
            parts = [_host_loop(rng, next(loops))
                     for _ in range(LOOPS_PER_HOST)]
        else:
            r = next(rungs[kind])
            parts = []
            if kind in ("chain", "mixed"):
                parts.append(_host_chain(CHAIN_LADDER[r]))
            if kind in ("fan", "mixed"):
                parts.append(_host_fan(FAN_LADDER[r]))
            if kind in ("straight", "mixed"):
                parts.append(_host_straight(STRAIGHT_LADDER[r]))
            rng.shuffle(parts)
        host = _tensor_all([h for h, _, _ in parts])
        expected = _tensor_all([e for _, e, _ in parts])
        steps = sum(s for _, _, s in parts)
        hosts.append(host)
        jobs.append(_rewrite_job(kind, i, _gen_count(host), expected,
                                 steps, ctx))

    def prepare():
        sig = L.parse_signature(sig_text)
        ctx["rules"] = L.parse_rules(REWRITE_RULES, sig)
        ctx["hosts"] = [L.save_graph(L.interpret(h, sig)) for h in hosts]

    return Workload(jobs, prepare)


# ---------------------------------------------------------------------------
# evaluate: random feedback circuits over two lattices
# ---------------------------------------------------------------------------

def _two_point():
    values = ("bot", "top")
    join = {(a, b): "top" if "top" in (a, b) else "bot"
            for a in values for b in values}
    gates = {
        "or": {(a, b): join[(a, b)] for a in values for b in values},
        "and": {(a, b): "top" if (a, b) == ("top", "top") else "bot"
                for a in values for b in values},
    }
    return values, "bot", join, gates


def _belnap():
    values = ("bot", "tt", "ff", "top")
    bits = {"bot": (0, 0), "tt": (1, 0), "ff": (0, 1), "top": (1, 1)}
    name = {b: v for v, b in bits.items()}

    def join(a, b):
        return name[(bits[a][0] | bits[b][0], bits[a][1] | bits[b][1])]

    def conj(a, b):
        return name[(bits[a][0] & bits[b][0], bits[a][1] | bits[b][1])]

    gates = {
        "andg": {(a, b): conj(a, b) for a in values for b in values},
        "notg": {(a,): name[(bits[a][1], bits[a][0])] for a in values},
    }
    return values, "bot", {(a, b): join(a, b) for a in values for b in values}, gates


LATTICES = {"two-point": _two_point(), "belnap": _belnap()}


def lattice_text(values, bottom, join, gates) -> str:
    """The lattice description file the CLI ``evaluate`` command reads."""
    lines = [f"values: {' '.join(values)}", f"bottom: {bottom}"]
    lines += [f"join: {a} {b} -> {c}" for (a, b), c in join.items()]
    for g, table in gates.items():
        lines += [f"gate {g} arity {len(row)}: {' '.join(row)} -> {out}"
                  for row, out in table.items()]
    return "\n".join(lines) + "\n"


# six strata of 48 jobs, four whole cycles of the edge ladder each
EVALUATE_POOL = 288
EDGE_LADDER = list(range(3, 15))
_EVALUATE_STRATA = [(lat, x) for lat in LATTICES for x in (0, 1, 2)]


def _circuit(rng, gens, edges: int, x: int):
    """A random circuit with exactly ``edges`` generators and ``x``
    feedback wires, built from a loop-free body."""
    while True:
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        body = random_term(rng, gens, x + m, x + n, depth=4, traces=False)
        if _gen_count(body) == edges:
            return Trace(x, body) if x else body


def _evaluate_job(kind, name, i, term, inputs, ctx: dict, gens) -> Job:
    """CLI evaluate: parse the circuit, run it, print the output word."""
    lat = LATTICES[name]

    def run():
        out = L.evaluate(L.parse_term(ctx["texts"][i], ctx["sigs"][name]),
                         inputs, ctx["csigs"][name])
        return out, (out if out is L.UNPRODUCTIVE else ",".join(out))

    memo: dict = {}

    def check(out) -> str | None:
        got, _ = out
        values, bottom, join, gates = lat
        want = _once(memo, lambda: ref.dataflow_fixed_point(
            ref.from_term(term, gens), inputs, bottom, join, gates, values))
        return None if got == want else f"output {got!r}, expected {want!r}"

    return Job(kind, _gen_count(term), 0, run, check)


def build_evaluate(seed: int) -> Workload:
    rng = random.Random(seed)
    ctx: dict = {}
    lattice_texts = {name: lattice_text(*lat) for name, lat in LATTICES.items()}
    gens = {}
    for name, (values, _, _, gates) in LATTICES.items():
        gens[name] = {v: (0, 1) for v in values}
        gens[name].update({g: (len(next(iter(t))), 1) for g, t in gates.items()})
        gens[name].update({"fork": (1, 2), "join": (2, 1), "stub": (1, 0)})
    per = EVALUATE_POOL // len(_EVALUATE_STRATA)
    ladders = {s: iter(_ladder_order(rng, EDGE_LADDER, per))
               for s in _EVALUATE_STRATA}
    jobs, terms = [], []
    for i in range(EVALUATE_POOL):
        lat, x = _EVALUATE_STRATA[i % len(_EVALUATE_STRATA)]
        term = _circuit(rng, gens[lat], next(ladders[(lat, x)]), x)
        m = ref.from_term(term, gens[lat]).n_in
        inputs = tuple(rng.choice(LATTICES[lat][0]) for _ in range(m))
        terms.append(term)
        jobs.append(_evaluate_job(f"{lat}-x{x}", lat, i, term, inputs, ctx,
                                  gens[lat]))

    def prepare():
        csigs = {name: L.parse_circuit_signature(text)
                 for name, text in lattice_texts.items()}
        ctx["csigs"] = csigs
        ctx["sigs"] = {name: csig.signature() for name, csig in csigs.items()}
        ctx["texts"] = [L.render_term(t) for t in terms]

    return Workload(jobs, prepare)


# ---------------------------------------------------------------------------
# iso-loops: equality of interface-free loop families
# ---------------------------------------------------------------------------

LOOP_GENS = {"f": (1, 1), "g": (1, 1)}
LOOP_COUNTS = (4, 5, 6)
ISO_POOL = 720
# per loop count: two isomorphic pairs, then the two orders of a
# non-isomorphic pair; the all-2-cycles side first is the slow order
_ISO_STRATA = [(k, v) for k in LOOP_COUNTS
               for v in ("iso", "iso", "uniform-first", "uniform-second")]


def _family(words: list[list[str]]):
    return _tensor_all([Trace(1, _chain(w)) for w in words])


def _iso_pair(rng, k):
    words = [[rng.choice("fg") for _ in range(rng.randint(1, 3))]
             for _ in range(k)]
    other = []
    for w in words:
        r = rng.randrange(len(w))
        other.append(w[r:] + w[:r])
    rng.shuffle(other)
    return _family(words), _family(other)


def _non_iso_pair(k, one, three, uniform_first):
    """All 2-cycles against a 1-cycle plus a 3-cycle plus 2-cycles: the
    same loop count, edge count and labels, different cycle lengths.
    Search time depends strongly on where the 1- and 3-cycles sit, so
    their positions come from a ladder of all placements."""
    lengths = [2] * k
    lengths[one], lengths[three] = 1, 3
    uniform = _family([["f", "f"]] * k)
    mixed = _family([["f"] * n for n in lengths])
    return (uniform, mixed) if uniform_first else (mixed, uniform)


def build_iso_loops(seed: int) -> Workload:
    rng = random.Random(seed)
    ctx: dict = {}
    sig_text = _sig_text(LOOP_GENS)
    per = ISO_POOL // len(_ISO_STRATA)
    placements = {s: iter(_ladder_order(
        rng, list(itertools.permutations(range(s[0]), 2)), per))
        for s in _ISO_STRATA if s[1] != "iso"}
    jobs = []
    for i in range(ISO_POOL):
        k, variant = _ISO_STRATA[i % len(_ISO_STRATA)]
        if variant == "iso":
            a, b = _iso_pair(rng, k)
        else:
            one, three = next(placements[(k, variant)])
            a, b = _non_iso_pair(k, one, three, variant == "uniform-first")
        jobs.append(_verdict_job(f"{k}-loops-{variant}", a, b, ctx,
                                 LOOP_GENS, variant == "iso", loops=k))

    def prepare():
        ctx["sig"] = L.parse_signature(sig_text)

    return Workload(jobs, prepare)


WORKLOADS = {
    "roundtrip": build_roundtrip,
    "rewrite": build_rewrite,
    "evaluate": build_evaluate,
    "iso-loops": build_iso_loops,
}
