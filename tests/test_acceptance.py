"""Acceptance suite: one test per criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.
"""
import itertools
import random
from contextlib import contextmanager

import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace,
                    CircuitSignature, Homomorphism, apply_rewrite, belnap,
                    canonical, circuit_rules, equal_mod_stmc, evaluate,
                    expand, extract_term, find_isomorphism, find_matchings,
                    identity, interpret, is_homomorphism,
                    isomorphic, parse_term, pushout, pushout_complement,
                    rule_from_terms, signature, smooth, two_point, type_of,
                    validate, value_row)
from linhyp.circuits import FORK, JOIN, STUB, DELAY, feedback_wires
from linhyp.graphs import IDENTITY_LABEL
from linhyp.laws import axiom_schemes, law_signature, random_term
from oracles import (boundary_coherent, brute_force_complements,
                     brute_force_isomorphism, check_coherence,
                     dataflow_fixed_point, enumerate_graphs, gate_from_fn,
                     glue_simple, random_graph)

SIG = law_signature()
SEED = 20240817


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {number:2d}. {title}: FAIL")
        raise
    print(f"[acceptance] {number:2d}. {title}: PASS")


@pytest.fixture(scope="module")
def axiom_runs():
    """200 randomized instantiations of every axiom scheme, with the
    interpreted sides kept for the well-formedness criterion."""
    rng = random.Random(SEED)
    runs = []
    for _ in range(200):
        for name, lhs, rhs in axiom_schemes(rng, SIG):
            gl = interpret(lhs, SIG)
            gr = interpret(rhs, SIG)
            runs.append((name, gl, gr))
    return runs


def test_criterion_1_stmc_axiom_suite(axiom_runs):
    with criterion(1, "STMC axiom suite, 200 instances per scheme"):
        per_scheme: dict[str, int] = {}
        for name, gl, gr in axiom_runs:
            assert find_isomorphism(gl, gr) is not None, name
            per_scheme[name] = per_scheme.get(name, 0) + 1
        assert len(per_scheme) == 13
        assert all(v == 200 for v in per_scheme.values())


def test_criterion_2_well_formedness(axiom_runs):
    with criterion(2, "constructor outputs validate across the suite"):
        for name, gl, gr in axiom_runs:
            assert validate(gl, SIG) == [], name
            assert validate(gr, SIG) == [], name


def test_criterion_3_definability_round_trip():
    with criterion(3, "definability: interpret(extract(H)) ~ H, 200 graphs"):
        rng = random.Random(SEED)
        done = 0
        while done < 200:
            H = random_graph(rng, SIG, max_edges=6, max_extra_wires=3)
            if len(H.targets) + len(H.sources) > 14:
                continue
            t = extract_term(H)
            assert find_isomorphism(interpret(t, SIG), H) is not None
            done += 1


def test_criterion_4_inverse_round_trip():
    with criterion(4, "inverse: extract(interpret(t)) ~ t, 200 terms"):
        rng = random.Random(SEED + 1)
        for _ in range(200):
            t = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2),
                            depth=rng.randint(0, 6))
            H = interpret(t, SIG)
            back = extract_term(H)
            assert equal_mod_stmc(back, t, SIG)


def test_criterion_5_coherence_exhaustive():
    with criterion(5, "coherence over all edge orders, |E| <= 4"):
        rng = random.Random(SEED + 2)
        for k in range(5):
            made = 0
            while made < 8:
                H = random_graph(rng, SIG, max_edges=4, max_extra_wires=2)
                if len(H.edges) != k:
                    continue
                assert check_coherence(H, SIG, max_orders=24)
                made += 1


def test_criterion_6_isomorphism_oracle():
    with criterion(6, "isomorphism agrees with brute force"):
        two_gen = signature({"a": (1, 1), "b": (2, 1)})
        family = enumerate_graphs(two_gen, max_t=3)
        assert len(family) > 30
        for F in family:
            assert len(F.targets) + len(F.sources) <= 6
            assert len(F.edges) <= 3
        canon = {id(F): canonical(F) for F in family}
        for F, G in itertools.product(family, family):
            fast = find_isomorphism(F, G)
            slow = brute_force_isomorphism(F, G)
            assert (fast is None) == (slow is None)
            assert (canon[id(F)] == canon[id(G)]) == (slow is not None)
            if fast is not None:
                assert is_homomorphism(fast) and fast.is_isomorphism()
        rng = random.Random(SEED + 3)
        for _ in range(500):
            H = random_graph(rng, SIG, max_edges=5, max_extra_wires=3)
            from linhyp import freshen
            w = find_isomorphism(H, freshen(H))
            assert w is not None
            assert is_homomorphism(w) and w.is_isomorphism()


def test_criterion_7_dpo_correctness():
    with criterion(7, "DPO: figure step, complement oracle, coherence"):
        csig = signature({"join": (2, 1), "f": (1, 1), "copy": (1, 2)})
        G = interpret(parse_term(
            "tr 1 (join * f ; swap 1 1 ; copy * id 1)", csig), csig)
        rule = rule_from_terms(parse_term("f ; copy", csig),
                               parse_term("copy ; f * f", csig),
                               csig, "copy-nat")
        ms = find_matchings(rule.L, G)
        assert len(ms) == 1
        H = apply_rewrite(rule, ms[0])
        expected = interpret(parse_term(
            "tr 1 (join * (copy ; f * f) ; swap 1 2)", csig), csig)
        assert isomorphic(H, expected)

        # pushout complements match the exhaustive oracle on small hosts
        rng = random.Random(SEED + 4)
        cases = 0
        while cases < 15:
            l = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2),
                            depth=1, traces=False)
            L = interpret(l, SIG)
            if not L.edges or len(L.targets) > 3:
                continue
            host_extra = random_term(rng, SIG, 1, 1, depth=0, traces=False)
            from linhyp import tensor
            Gh = tensor(L, interpret(host_extra, SIG))
            if len(Gh.targets) > 6:
                continue
            probe = rule_from_terms(l, l, SIG, "probe")
            found = find_matchings(probe.L, Gh)
            if not found:
                continue
            cases += 1
            for m in found[:2]:
                k_to_c, c_to_g = pushout_complement(probe.left_leg,
                                                    m)
                candidates = brute_force_complements(probe.left_leg,
                                                     m)
                assert len(candidates) == 1
                assert candidates[0] == k_to_c.dst
                assert is_homomorphism(k_to_c) and is_homomorphism(c_to_g)

        # boundary coherence, both directions
        for _ in range(20):
            K = identity(1)
            F1 = interpret(Gen("f"), SIG)
            G1 = interpret(Gen("g"), SIG)
            into_output = lambda X: Homomorphism(
                K, X, {K.targets[0]: X.conn_inv()[X.outputs()[0]]},
                {K.sources[0]: X.outputs()[0]}, {})
            into_input = lambda X: Homomorphism(
                K, X, {K.targets[0]: X.inputs()[0]},
                {K.sources[0]: X.conn[X.inputs()[0]]}, {})
            bad_m, bad_n = into_output(F1), into_output(G1)
            assert not boundary_coherent(bad_m, bad_n)
            assert not glue_simple(bad_m, bad_n).is_linear_shape()
            good_m, good_n = into_input(identity(1)), into_output(G1)
            assert boundary_coherent(good_m, good_n)
            H2, _, _ = pushout(good_m, good_n)
            assert validate(H2) == []
            assert glue_simple(good_m, good_n).is_linear_shape()


def test_criterion_8_term_graph_parity():
    with criterion(8, "term/graph rewriting parity, 100 triples"):
        rng = random.Random(SEED + 5)
        done = 0
        while done < 100:
            l = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2),
                            depth=1, traces=False)
            pre = rule_from_terms(l, l, SIG, "pre")
            if not pre.L.edges or any(
                    pre.L.labels[e] == IDENTITY_LABEL for e in pre.L.edges):
                continue
            dom_l, cod_l = type_of(l, SIG)
            r = random_term(rng, SIG, len(dom_l), len(cod_l),
                            depth=1, traces=False)
            n = rng.randint(0, 1)
            x = rng.randint(0, 1)
            f1 = random_term(rng, SIG, x + rng.randint(0, 1),
                             n + len(dom_l), depth=1, traces=False)
            f2 = random_term(rng, SIG, n + len(cod_l),
                             x + rng.randint(0, 1), depth=1, traces=False)
            mid_l = Tensor(Id(n), l) if n else l
            mid_r = Tensor(Id(n), r) if n else r
            t_before = Trace(x, Seq(Seq(f1, mid_l), f2))
            t_after = Trace(x, Seq(Seq(f1, mid_r), f2))
            rule = rule_from_terms(l, r, SIG, "probe")
            G = interpret(t_before, SIG)
            expected = interpret(t_after, SIG)
            ms = find_matchings(rule.L, G)
            assert ms, "subterm occurrence not found"
            # a lone match is the occurrence of l in C: it must give C[r]
            results = [isomorphic(apply_rewrite(rule, m), expected)
                       for m in ms]
            assert all(results) if len(ms) == 1 else any(results)
            done += 1


def _two_point_sig():
    lat = two_point()
    return CircuitSignature(lat, {
        "org": gate_from_fn("org", 2, lat.join, lat),
        "amp": gate_from_fn("amp", 1, lambda a: a, lat)})


def _four_point_sig():
    lat = belnap()
    enc = {"bot": (0, 0), "tt": (1, 0), "ff": (0, 1), "top": (1, 1)}
    dec = {v: k for k, v in enc.items()}

    def band(a, b):
        (t1, f1), (t2, f2) = enc[a], enc[b]
        return dec[(t1 & t2, f1 | f2)]

    def bnot(a):
        t, f = enc[a]
        return dec[(f, t)]

    return CircuitSignature(lat, {
        "andg": gate_from_fn("andg", 2, band, lat),
        "notg": gate_from_fn("notg", 1, bnot, lat)})


def test_criterion_9_circuits():
    with criterion(9, "circuit axioms and evaluator vs dataflow oracle"):
        for csig in (_two_point_sig(), _four_point_sig()):
            sig = csig.signature()
            lat = csig.lattice
            rules = {r.name: r for r in circuit_rules(csig)}

            def one_step(rule, term, expect):
                g = interpret(term, sig)
                ms = find_matchings(rule.L, g)
                assert ms, rule.name
                assert isomorphic(apply_rewrite(rule, ms[0]),
                                  interpret(expect, sig)), rule.name

            for v in lat.values:
                one_step(rules[f"fork-{v}"], Seq(Gen(v), Gen(FORK)),
                         Tensor(Gen(v), Gen(v)))
                one_step(rules[f"stub-{v}"], Seq(Gen(v), Gen(STUB)), Id(0))
                for w in lat.values:
                    one_step(rules[f"join-{v}-{w}"],
                             Seq(Tensor(Gen(v), Gen(w)), Gen(JOIN)),
                             Gen(lat.join(v, w)))
            for gate in csig.gates.values():
                for row in itertools.product(lat.values, repeat=gate.arity):
                    one_step(rules[f"{gate.name}-" + "-".join(row)],
                             Seq(value_row(row), Gen(gate.name)),
                             Gen(gate.table[row]))
            one_step(rules["delay-bot"], Seq(Gen(lat.bottom), Gen(DELAY)),
                     Gen(lat.bottom))

        # evaluator agreement: loop-free then feedback
        csig = _two_point_sig()
        sig = csig.signature()
        names = (list(csig.lattice.values) + list(csig.gates)
                 + [FORK, JOIN, STUB])
        gen_sig = signature({nm: (len(sig.dom(nm)), len(sig.cod(nm)))
                             for nm in names})
        rng = random.Random(SEED + 6)

        def loop_free(max_edges):
            while True:
                m, n = rng.randint(0, 2), rng.randint(0, 2)
                t = random_term(rng, gen_sig, m, n, depth=3, traces=False)
                H = interpret(t, sig)
                if 1 <= len(H.edges) <= max_edges:
                    return t, H

        for _ in range(60):
            t, H = loop_free(4)
            inputs = tuple(rng.choice(csig.lattice.values)
                           for _ in range(len(H.dom())))
            assert evaluate(t, inputs, csig) == dataflow_fixed_point(
                H, inputs, csig)

        done = 0
        while done < 50:
            t, H = loop_free(6)
            looped = Trace(min(len(H.dom()), len(H.cod())), t)
            Hl = interpret(looped, sig)
            if not feedback_wires(Hl):  # the trace closed no cycle
                continue
            inputs = tuple(rng.choice(csig.lattice.values)
                           for _ in range(len(Hl.dom())))
            got = evaluate(looped, inputs, csig)
            want = dataflow_fixed_point(Hl, inputs, csig)
            assert got == want  # the oracle always converges on monotone
            done += 1           # gates, so UNPRODUCTIVE would be a mismatch


def test_criterion_10_homeomorphism():
    with criterion(10, "smooth/expand round trip and the bare-wire rule"):
        rng = random.Random(SEED + 7)
        for _ in range(200):
            H = random_graph(rng, SIG, max_edges=4, max_extra_wires=3)
            if not H.targets:
                continue
            w = H.targets[rng.randrange(len(H.targets))]
            assert isomorphic(smooth(expand(H, w)), H)

        # the Remark flow: insert an edge on a bare wire
        csig = signature({"f": (1, 1), "copy": (1, 2)})
        rule = rule_from_terms(Id(1), Gen("f"), csig, "insert")
        assert any(rule.L.labels[e] == IDENTITY_LABEL for e in rule.L.edges)
        assert rule.left_leg.is_embedding()
        host = interpret(Gen("copy"), csig)
        ms = find_matchings(rule.L, host)
        assert len(ms) == 3
        results = [apply_rewrite(rule, m) for m in ms]
        expected = [interpret(parse_term(s, csig), csig)
                    for s in ("f ; copy", "copy ; f * id 1",
                              "copy ; id 1 * f")]
        for r in results:
            assert not any(r.labels[e] == IDENTITY_LABEL for e in r.edges)
        for e in expected:
            assert any(isomorphic(r, e) for r in results)
