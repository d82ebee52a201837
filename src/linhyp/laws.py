"""Randomized instance generation for the equational law suites.

The default signature for suites carries generators of every small shape
plus a source ``u : 0 -> 1`` and a sink ``z : 1 -> 0`` so that terms of
any type exist.
"""
from __future__ import annotations

import random

from .terms import (Gen, Id, Seq, Signature, Swap, Tensor, Term, Trace,
                    signature, tensor_all)


def law_signature() -> Signature:
    return signature({"f": (1, 1), "g": (1, 2), "h": (2, 2), "k": (2, 1),
                      "u": (0, 1), "z": (1, 0)})


def random_term(rng: random.Random, sig: Signature, m: int, n: int,
                depth: int = 3, traces: bool = True) -> Term:
    """A random well-typed term of arity ``m -> n`` (plain signatures)."""
    gens = list(sig.generators)
    named = [g for g in gens
             if len(sig.dom(g)) == m and len(sig.cod(g)) == n]
    choices: list[str] = []
    if m == n:
        choices += ["id"]
        if m >= 1:
            choices += ["swap"]
    if named:
        choices += ["gen", "gen", "gen"]
    if depth > 0:
        choices += ["seq", "ten", "seq", "ten"]
        if traces:
            choices += ["tr"]
    if not choices:
        choices = ["plumb"]
    pick = rng.choice(choices)
    if pick == "gen":
        return Gen(rng.choice(named))
    if pick == "id":
        return Id(m)
    if pick == "swap":
        a = rng.randint(0, m)
        body: Term = Seq(Swap(a, m - a), Swap(m - a, a))
        return body
    if pick == "seq":
        k = rng.randint(0, 2)
        return Seq(random_term(rng, sig, m, k, depth - 1, traces),
                   random_term(rng, sig, k, n, depth - 1, traces))
    if pick == "ten":
        m1 = rng.randint(0, m)
        n1 = rng.randint(0, n)
        return Tensor(random_term(rng, sig, m1, n1, depth - 1, traces),
                      random_term(rng, sig, m - m1, n - n1, depth - 1, traces))
    if pick == "tr":
        x = rng.randint(0, 2)
        return Trace(x, random_term(rng, sig, x + m, x + n, depth - 1, traces))
    # fall back for shapes with no generator: sink everything, source the rest
    sinks = [g for g in gens if (len(sig.dom(g)), len(sig.cod(g))) == (1, 0)]
    sources = [g for g in gens if (len(sig.dom(g)), len(sig.cod(g))) == (0, 1)]
    if (m and not sinks) or (n and not sources):
        raise ValueError(
            f"signature has no generators to realize a {m} -> {n} term")
    sink = tensor_all([Gen(rng.choice(sinks)) for _ in range(m)])
    source = tensor_all([Gen(rng.choice(sources)) for _ in range(n)])
    if m == 0:
        return source
    if n == 0:
        return sink
    return Seq(sink, source)


def axiom_schemes(rng: random.Random, sig: Signature
                  ) -> list[tuple[str, Term, Term]]:
    """One random instantiation of every monoidal and trace law."""
    def rt(m: int, n: int) -> Term:
        return random_term(rng, sig, m, n, depth=2)

    m, n, p, q = (rng.randint(0, 2) for _ in range(4))
    out: list[tuple[str, Term, Term]] = []
    F = rt(m, n)
    out.append(("left identity", Seq(Id(m), F), F))
    out.append(("right identity", Seq(F, Id(n)), F))
    G2, H2 = rt(n, p), rt(p, q)
    out.append(("associativity", Seq(Seq(F, G2), H2), Seq(F, Seq(G2, H2))))
    out.append(("tensor unit", Tensor(F, Id(0)), F))
    W = rt(1, 1)
    out.append(("tensor assoc",
                Tensor(Tensor(F, G2), W), Tensor(F, Tensor(G2, W))))
    F1, G1 = rt(m, n), rt(p, q)
    H1, K1 = rt(n, 1), rt(q, 2)
    out.append(("bifunctoriality",
                Seq(Tensor(F1, G1), Tensor(H1, K1)),
                Tensor(Seq(F1, H1), Seq(G1, K1))))
    G3 = rt(p, q)
    out.append(("swap naturality",
                Seq(Tensor(F, G3), Swap(n, q)),
                Seq(Swap(m, p), Tensor(G3, F))))
    out.append(("self-invertibility",
                Seq(Swap(m, n), Swap(n, m)), Id(m + n)))
    out.append(("hexagon",
                Seq(Tensor(Swap(m, n), Id(p)), Tensor(Id(n), Swap(m, p))),
                Swap(m, n + p)))
    X = rt(1 + m, 1 + n)
    G4, H4 = rt(p, m), rt(n, q)
    out.append(("tightening",
                Seq(Seq(G4, Trace(1, X)), H4),
                Trace(1, Seq(Seq(Tensor(Id(1), G4), X), Tensor(Id(1), H4)))))
    out.append(("superposing",
                Trace(1, Tensor(X, G3)), Tensor(Trace(1, X), G3)))
    x = rng.randint(0, 2)
    out.append(("yanking", Trace(x, Swap(x, x)), Id(x)))
    Y = rt(2 + m, 2 + n)
    out.append(("exchange",
                Trace(1, Trace(1, Y)),
                Trace(1, Trace(1, Seq(Seq(Tensor(Swap(1, 1), Id(m)), Y),
                                      Tensor(Swap(1, 1), Id(n)))))))
    return out
