import gc
import inspect
import itertools
import weakref

import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace, UNPRODUCTIVE,
                    CircuitSignature, ValueLattice, apply_rewrite,
                    belnap, cartesian_rules, circuit_rules, copy_term,
                    delete_term, evaluate, find_matchings,
                    interpret, isomorphic, merge_term,
                    normalize, parse_circuit_signature, parse_term,
                    two_point, type_of,
                    validate, value_row)
from linhyp.circuits import (DELAY, FORK, JOIN, STUB, LatticeError,
                             eval_rules, feedback_wires)
from linhyp.cli import main
from linhyp.terms import Swap
from linhyp.graphs import INTERFACE, GraphView, LinearHypergraph, expand
from linhyp.laws import random_term
from linhyp.terms import signature
from oracles import (dataflow_fixed_point, evaluate_by_unfolding_all_wires,
                     feedback_ladder, feedback_wires_by_labelled_walk,
                     gate_from_fn, tables_in_order)

# Belnap gates via the evidence-pair encoding: each value is a pair of
# "can be true" / "can be false" bits, and bitwise-monotone boolean maps
# lift to monotone gates.
_ENC = {"bot": (0, 0), "tt": (1, 0), "ff": (0, 1), "top": (1, 1)}
_DEC = {v: k for k, v in _ENC.items()}


def _band(a, b):
    (t1, f1), (t2, f2) = _ENC[a], _ENC[b]
    return _DEC[(t1 & t2, f1 | f2)]


def _bor(a, b):
    (t1, f1), (t2, f2) = _ENC[a], _ENC[b]
    return _DEC[(t1 | t2, f1 & f2)]


def _bnot(a):
    t, f = _ENC[a]
    return _DEC[(f, t)]


def two_point_sig():
    lat = two_point()
    return CircuitSignature(lat, {
        "org": gate_from_fn("org", 2, lat.join, lat),
        "amp": gate_from_fn("amp", 1, lambda a: a, lat),
    })


def belnap_sig():
    lat = belnap()
    return CircuitSignature(lat, {
        "andg": gate_from_fn("andg", 2, _band, lat),
        "org": gate_from_fn("org", 2, _bor, lat),
        "notg": gate_from_fn("notg", 1, _bnot, lat),
    })


def test_lattice_laws_enforced():
    with pytest.raises(LatticeError):
        ValueLattice(("a", "b"), "a",
                     {("a", "a"): "a", ("a", "b"): "a",
                      ("b", "a"): "b", ("b", "b"): "b"})  # not commutative
    with pytest.raises(LatticeError):
        ValueLattice(("a", "b"), "b",
                     {("a", "a"): "a", ("a", "b"): "b",
                      ("b", "a"): "b", ("b", "b"): "b"})  # bottom not unit


def test_monotonicity_rejected():
    lat = two_point()
    with pytest.raises(LatticeError):
        CircuitSignature(lat, {
            "bad": gate_from_fn("bad", 1,
                                lambda a: "bot" if a == "top" else "top",
                                lat)})


def test_reserved_names_rejected():
    lat = two_point()
    with pytest.raises(LatticeError):
        CircuitSignature(lat, {"fork": gate_from_fn("fork", 1, lambda a: a,
                                                    lat)})


def test_rule_sides_share_types():
    for csig in (two_point_sig(), belnap_sig()):
        for rule in circuit_rules(csig) + cartesian_rules(csig):
            assert rule.L.dom() == rule.R.dom()
            assert rule.L.cod() == rule.R.cod()
            assert validate(rule.L) == [] and validate(rule.R) == []


@pytest.mark.parametrize("make", [two_point_sig, belnap_sig])
def test_value_axioms_one_step(make):
    csig = make()
    sig = csig.signature()
    lat = csig.lattice
    rules = {r.name: r for r in circuit_rules(csig)}

    def one_step(rule, term, expect):
        G = interpret(term, sig)
        ms = find_matchings(rule.L, G)
        assert ms, rule.name
        H = apply_rewrite(rule, ms[0])
        assert isomorphic(H, interpret(expect, sig)), rule.name

    for v in lat.values:
        one_step(rules[f"fork-{v}"], Seq(Gen(v), Gen(FORK)),
                 Tensor(Gen(v), Gen(v)))
        one_step(rules[f"stub-{v}"], Seq(Gen(v), Gen(STUB)), Id(0))
    for v, w in itertools.product(lat.values, lat.values):
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
    one_step(rules["delay-stub"], Seq(Gen(DELAY), Gen(STUB)), Gen(STUB))


def test_cartesian_counit_normalizes_to_wire():
    csig = two_point_sig()
    sig = csig.signature()
    G = interpret(Seq(Gen(FORK), Tensor(Gen(STUB), Id(1))), sig)
    res = normalize(G, cartesian_rules(csig))
    assert isomorphic(res.graph, interpret(Id(1), sig))
    assert [s.rule for s in res.steps] == ["counit-l"]


def test_copy_unit_rule_is_empty_noop():
    csig = two_point_sig()
    rules = {r.name: r for r in cartesian_rules(csig)}
    unit = rules["copy-unit"]
    assert unit.L.targets == () and unit.R.targets == ()
    G = interpret(Gen("org"), csig.signature())
    ms = find_matchings(unit.L, G)
    assert len(ms) == 1
    assert isomorphic(apply_rewrite(unit, ms[0]), G)


def test_copy_naturality_is_the_worked_span():
    csig = two_point_sig()
    rules = {r.name: r for r in cartesian_rules(csig)}
    rule = rules["copy-nat-amp"]
    assert rule.K.edges == ()
    assert rule.left_leg.is_embedding() and rule.right_leg.is_embedding()
    sig = csig.signature()
    host = interpret(Seq(Seq(Gen("amp"), Gen(FORK)), Tensor(Gen(STUB), Id(1))),
                     sig)
    ms = find_matchings(rule.L, host)
    assert len(ms) == 1
    stepped = apply_rewrite(rule, ms[0])
    expect = interpret(
        Seq(Seq(Gen(FORK), Tensor(Gen("amp"), Gen("amp"))),
            Tensor(Gen(STUB), Id(1))), sig)
    assert isomorphic(stepped, expect)


def test_copy_delete_coherence_rules_are_isos():
    csig = two_point_sig()
    rules = {r.name: r for r in cartesian_rules(csig)}
    assert isomorphic(rules["copy-coherence"].L, rules["copy-coherence"].R)
    assert isomorphic(rules["del-coherence"].L, rules["del-coherence"].R)


def test_streaming_rule_reduces_equally_on_bottoms():
    csig = two_point_sig()
    sig = csig.signature()
    lat = csig.lattice
    rules = {r.name: r for r in circuit_rules(csig)}
    for gate in csig.gates.values():
        for row in itertools.product(lat.values, repeat=gate.arity):
            rule = rules[f"stream-{gate.name}-" + "-".join(row)]
            bots = value_row((lat.bottom,) * gate.arity)
            lhs = Seq(bots, _as_term_side(rule.L, csig))
            rhs = Seq(bots, _as_term_side(rule.R, csig))
            a = normalize(interpret(lhs, sig), eval_rules(csig))
            b = normalize(interpret(rhs, sig), eval_rules(csig))
            assert not a.exhausted and not b.exhausted
            assert isomorphic(a.graph, b.graph)


def _as_term_side(graph_side, csig):
    from linhyp import extract_term
    return extract_term(graph_side)


def test_streaming_has_two_gate_copies():
    csig = two_point_sig()
    rules = {r.name: r for r in circuit_rules(csig)}
    rule = rules["stream-amp-bot"]
    assert sum(1 for e in rule.R.edges
               if rule.R.labels[e] == "amp") == 2


def test_gc_rule_erases_stubbed_gate():
    csig = two_point_sig()
    sig = csig.signature()
    G = interpret(Seq(Gen("org"), Gen(STUB)), sig)
    res = normalize(G, circuit_rules(csig))
    assert isomorphic(res.graph,
                      interpret(Tensor(Gen(STUB), Gen(STUB)), sig))


def test_join_of_values_normalizes_to_single_value():
    csig = two_point_sig()
    sig = csig.signature()
    G = interpret(Seq(Tensor(Gen("top"), Gen("bot")), Gen(JOIN)), sig)
    res = normalize(G, circuit_rules(csig))
    assert [s.rule for s in res.steps] == ["join-top-bot"]
    assert isomorphic(res.graph, interpret(Gen("top"), sig))


def test_confluence_probe_on_small_circuit():
    """Exhaustive exploration of a three-redex circuit reaches a single
    normal form up to isomorphism (a desk-scale observation, not a
    theorem)."""
    from linhyp import normal_forms
    csig = two_point_sig()
    sig = csig.signature()
    t = Seq(Seq(Tensor(Gen("top"), Gen("bot")), Gen("org")), Gen(FORK))
    nfs, exhausted = normal_forms(interpret(t, sig), eval_rules(csig))
    assert not exhausted
    assert len(nfs) == 1
    assert isomorphic(nfs[0], interpret(Tensor(Gen("top"), Gen("top")), sig))


def test_evaluate_fork_and_identity():
    csig = two_point_sig()
    assert evaluate(Seq(Gen("top"), Gen(FORK)), (), csig) == ("top", "top")
    assert evaluate(Id(2), ("top", "bot"), csig) == ("top", "bot")


def test_evaluate_round_may_use_its_whole_step_budget():
    """``top ; fork`` reaches its values in one step, by ``fork-top``."""
    csig = two_point_sig()
    circuit = Seq(Gen("top"), Gen(FORK))
    assert evaluate(circuit, (), csig, max_steps=1) == ("top", "top")
    assert evaluate(circuit, (), csig, max_steps=0) is UNPRODUCTIVE


@pytest.mark.parametrize("term", ["id 1", "amp"])
def test_evaluate_a_circuit_with_an_identity_edge(term):
    """A circuit graph may carry identity edges (``validate`` accepts
    them): with one on its input wire, ``id 1`` and the one-input gate
    give what they give without it."""
    csig = two_point_sig()
    C = interpret(parse_term(term, csig.signature()), csig.signature())
    for v in ("bot", "top"):
        assert evaluate(expand(C, C.targets[0]), (v,), csig) == (v,)
        assert evaluate(C, (v,), csig) == (v,)


def test_evaluate_checks_inputs():
    csig = two_point_sig()
    with pytest.raises(ValueError):
        evaluate(Id(2), ("top",), csig)
    with pytest.raises(ValueError):
        evaluate(Id(1), ("purple",), csig)


def test_evaluate_feedback_reaches_fixed_point():
    csig = two_point_sig()
    # x = or(x, input): identity on the 2-point lattice
    loop = Trace(1, Seq(Seq(Gen("org"), Gen(FORK)), Id(2)))
    assert evaluate(loop, ("top",), csig) == ("top",)
    assert evaluate(loop, ("bot",), csig) == ("bot",)
    # x = join(x, top) with no inputs: the cut lands on the join -> fork
    # wire, so the output reads bottom until a second round
    late = Trace(1, Seq(Seq(Tensor(Id(1), Gen("top")), Gen(JOIN)),
                        Gen(FORK)))
    assert evaluate(late, (), csig) == ("top",)


@pytest.mark.parametrize("k", [3, 70])
def test_evaluate_takes_as_many_rounds_as_the_ladder_needs(k, monkeypatch):
    """On a ladder of ``k`` rungs ``org ; fork`` whose ``k - 1`` backward
    wires are cut, ``top`` entering the last rung moves back one cut wire
    per round: ``k`` rounds in all.  A fixed cap of 64 rounds reported
    ``UNPRODUCTIVE`` from k = 65 on; the bound (|values| - 1) * |cut| + 1
    is exactly ``k`` here."""
    csig = two_point_sig()
    ladder = feedback_ladder(k)
    assert len(feedback_wires(interpret(ladder, csig.signature()))) == k - 1
    rounds = _count_normalize(monkeypatch)
    assert evaluate(ladder, ("bot", "top"), csig) == ("top", "top")
    assert len(rounds) == k
    assert evaluate(ladder, ("bot", "bot"), csig) == ("bot", "bot")
    assert "max_unfoldings" not in inspect.signature(evaluate).parameters


def test_evaluate_delay_loop_unproductive():
    csig = two_point_sig()
    # feeding top into a delay never reduces
    stuck = Seq(Gen("top"), Gen(DELAY))
    assert evaluate(stuck, (), csig) is UNPRODUCTIVE
    assert evaluate_by_unfolding_all_wires(stuck, (), csig) is UNPRODUCTIVE
    # unless its output is discarded: ``delay-stub`` erases it, where
    # cutting every wire left it stuck on a cut wire
    dropped = Seq(stuck, Gen(STUB))
    assert evaluate(dropped, (), csig) == ()
    assert evaluate_by_unfolding_all_wires(dropped, (), csig) is UNPRODUCTIVE


def _gen_sig(csig, extra=()):
    sig = csig.signature()
    names = (list(csig.lattice.values) + list(csig.gates)
             + [FORK, JOIN, STUB, *extra])
    return signature({n: (len(sig.dom(n)), len(sig.cod(n))) for n in names})


def _random_loop_free(rng, csig, gates_max=4, wires_max=2):
    sig = csig.signature()
    gen_sig = _gen_sig(csig)
    while True:
        m, n = rng.randint(0, wires_max), rng.randint(0, wires_max)
        t = random_term(rng, gen_sig, m, n, depth=3, traces=False)
        H = interpret(t, sig)
        if 1 <= len(H.edges) <= gates_max + 4:
            return t, H


def _random_feedback(rng, csig, x):
    """A random circuit with ``x`` fed-back wires, at least one of which
    closes a cycle, and its input values."""
    while True:
        t, H = _random_loop_free(rng, csig, gates_max=6, wires_max=x + 1)
        if min(len(H.dom()), len(H.cod())) < x:
            continue
        looped = Trace(x, t)
        inputs = tuple(rng.choice(csig.lattice.values)
                       for _ in range(len(H.dom()) - x))
        if feedback_wires(interpret(looped, csig.signature())):
            return looped, inputs


def _height(lat):
    """The length of the longest strictly rising chain of values."""
    rank = {v: 0 for v in lat.values}
    for _ in lat.values:
        for a, b in itertools.product(lat.values, lat.values):
            if a != b and lat.leq(a, b):
                rank[b] = max(rank[b], rank[a] + 1)
    return max(rank.values())


def _amp_chain(n):
    t = Gen("amp")
    for _ in range(n - 1):
        t = Seq(t, Gen("amp"))
    return t


def test_evaluate_matches_dataflow_oracle_loop_free(rng):
    for csig in (two_point_sig(), belnap_sig()):
        for _ in range(25):
            t, H = _random_loop_free(rng, csig)
            inputs = tuple(rng.choice(csig.lattice.values)
                           for _ in range(len(H.dom())))
            got = evaluate(t, inputs, csig)
            want = dataflow_fixed_point(H, inputs, csig)
            assert got == want


def test_evaluate_matches_dataflow_oracle_feedback(rng):
    for csig in (two_point_sig(), belnap_sig()):
        for i in range(30):
            looped, inputs = _random_feedback(rng, csig, 1 + i % 3)
            Hl = interpret(looped, csig.signature())
            got = evaluate(looped, inputs, csig)
            assert got == dataflow_fixed_point(Hl, inputs, csig)


@pytest.mark.parametrize("n", [63, 100, 200])
def test_evaluate_deep_chains_match_dataflow_oracle(n):
    # cutting every wire needs n + 1 rounds, more than the default 64
    csig = two_point_sig()
    chain = _amp_chain(n)
    H = interpret(chain, csig.signature())
    for v in csig.lattice.values:
        assert evaluate(chain, (v,), csig) == dataflow_fixed_point(
            H, (v,), csig) == (v,)


def _count_normalize(monkeypatch):
    """The graphs ``evaluate`` normalizes, one per round, as it calls
    ``normalize``."""
    import linhyp.circuits as circuits

    calls = []
    real = circuits.normalize

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(circuits, "normalize", counting)
    return calls


def test_evaluate_normalizes_once_without_feedback(monkeypatch, rng):
    calls = _count_normalize(monkeypatch)
    csig = two_point_sig()
    chain = _amp_chain(40)
    assert feedback_wires(interpret(chain, csig.signature())) == []
    assert evaluate(chain, ("top",), csig) == ("top",)
    assert len(calls) == 1
    for csig in (two_point_sig(), belnap_sig()):
        for _ in range(10):
            t, H = _random_loop_free(rng, csig)
            assert feedback_wires(H) == []
            del calls[:]
            inputs = tuple(rng.choice(csig.lattice.values)
                           for _ in range(len(H.dom())))
            evaluate(t, inputs, csig)
            assert len(calls) == 1


def test_evaluate_rounds_bounded_by_feedback(monkeypatch, rng):
    calls = _count_normalize(monkeypatch)
    seen = set()
    for csig in (two_point_sig(), belnap_sig()):
        height = _height(csig.lattice)
        done = 0
        while done < 20:
            looped, inputs = _random_feedback(rng, csig, 1 + done % 3)
            cut = feedback_wires(interpret(looped, csig.signature()))
            del calls[:]
            assert evaluate(looped, inputs, csig) is not UNPRODUCTIVE
            assert 1 <= len(calls) <= height * len(cut) + 1
            seen.add((len(cut), len(calls)))
            done += 1
    # the sample has two-wire cuts and meets the bound on Belnap
    assert {c for c, _ in seen} >= {1, 2}
    assert max(r for _, r in seen) == 3
    # x = or(x, input): one cut wire, at most two rounds on two points
    del calls[:]
    loop = Trace(1, Seq(Seq(Gen("org"), Gen(FORK)), Id(2)))
    assert evaluate(loop, ("top",), two_point_sig()) == ("top",)
    assert len(calls) == 2


def test_each_rounds_graph_gets_the_open_graphs_tables(monkeypatch, rng):
    """The open graph's port tables and ``conn`` inverse, built once from
    the circuit's, are those ``GraphView`` derives for each round's
    graph, entry for entry and in insertion order, on looped circuits
    with one to three cut wires and their inputs as value edges; an
    evaluation from a term derives no port table at all."""
    import linhyp.circuits as circuits

    rounds, checked = [], []
    real = circuits.normalize

    def recording(G, rules, max_steps):
        rounds.append(G)
        return real(G, rules, max_steps)

    monkeypatch.setattr(circuits, "normalize", recording)
    derived = []
    real_tables = LinearHypergraph.port_tables
    monkeypatch.setattr(LinearHypergraph, "port_tables",
                        lambda H: derived.append(H) or real_tables(H))
    for csig in (two_point_sig(), belnap_sig()):
        eval_rules(csig)  # compiling the rules derives their graphs' tables
        for x in (1, 2, 3, 1, 2, 3):
            looped, inputs = _random_feedback(rng, csig, x)
            del rounds[:], derived[:]
            evaluate(looped, inputs, csig)
            assert rounds and derived == []
            for G in rounds:
                assert tables_in_order(G.view) == tables_in_order(
                    GraphView(G))
            checked.append(len(rounds))
    assert max(checked) > 1  # a circuit that took more than one round


def test_each_rounds_open_graph_has_no_inputs_and_the_cut_outputs(
        monkeypatch, rng):
    """Each round's open graph, built in one ``_Host`` from the circuit's
    by cutting its input and feedback wires, is well formed over the
    circuit signature, has no inputs and has one output more per cut
    wire than the circuit, on looped circuits with one to three cut
    wires over both lattices."""
    rounds = _count_normalize(monkeypatch)
    seen = set()
    for csig in (two_point_sig(), belnap_sig()):
        for x in (1, 2, 3) * 4:
            looped, inputs = _random_feedback(rng, csig, x)
            H = interpret(looped, csig.signature())
            k = len(feedback_wires(H))
            del rounds[:]
            evaluate(looped, inputs, csig)
            for G in rounds:
                assert validate(G, csig.signature()) == []
                assert G.dom() == ()
                assert len(G.outputs()) == len(H.outputs()) + k
            seen.add((k, len(rounds)))
    # the sample has two-wire cuts and circuits that take several rounds
    assert {k for k, _ in seen} >= {1, 2} and max(r for _, r in seen) > 1


def test_a_rounds_graph_is_freed_without_the_collector(monkeypatch):
    """A round's graph shares the open graph's tables through its view
    and holds no cycle: once ``evaluate`` returns, it goes without the
    cyclic collector."""
    import linhyp.circuits as circuits

    refs = []
    real = circuits.normalize

    def recording(G, rules, max_steps):
        refs.append(weakref.ref(G))
        return real(G, rules, max_steps)

    monkeypatch.setattr(circuits, "normalize", recording)
    loop = Trace(1, Seq(Seq(Gen("org"), Gen(FORK)), Id(2)))
    csig = two_point_sig()
    eval_rules(csig)
    gc.disable()
    try:
        assert evaluate(loop, ("top",), csig) == ("top",)
        assert len(refs) == 2 and all(ref() is None for ref in refs)
    finally:
        gc.enable()


def _discarded(H, e):
    """Whether no circuit output lies downstream of edge ``e``."""
    tgts, _ = H.port_tables()
    seen, todo = {e}, [e]
    while todo:
        for t in tgts[todo.pop()]:
            d = H.right[H.conn[t]]
            if d is INTERFACE:
                return False
            if d not in seen:
                seen.add(d)
                todo.append(d)
    return True


def test_feedback_wires_agree_with_the_labelled_walk(monkeypatch, rng):
    """The cut is the labelled walk's on random circuits with 0-2 traced
    wires and on the looped circuits above, and a circuit with no cycle
    computes no canonical labelling."""
    import linhyp.graphs as graphs

    labelled = []
    real = graphs._canonical_labelling

    def counting(H):
        labelled.append(H)
        return real(H)

    monkeypatch.setattr(graphs, "_canonical_labelling", counting)
    circuits = [(two_point_sig(), Trace(1, Seq(Seq(Gen("org"), Gen(FORK)),
                                               Id(2)))),
                (two_point_sig(), Trace(1, Seq(Seq(Tensor(Id(1), Gen("top")),
                                                   Gen(JOIN)), Gen(FORK))))]
    for csig in (two_point_sig(), belnap_sig()):
        gen_sig = _gen_sig(csig, [DELAY])
        for i in range(120):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            t = random_term(rng, gen_sig, m, n, depth=3, traces=i % 2 == 0)
            x = rng.randint(0, min(m, n, 2))
            circuits.append((csig, Trace(x, t) if x else t))
        for x in (1, 2, 3):
            circuits.append((csig, _random_feedback(rng, csig, x)[0]))
    sizes = set()
    for csig, t in circuits:
        H = interpret(t, csig.signature())
        del labelled[:]
        cut = feedback_wires(H)
        assert labelled == ([H] if cut else [])
        assert cut == feedback_wires_by_labelled_walk(H)
        sizes.add(len(cut))
        if not cut and isinstance(t, Trace):
            sizes.add("traced, loop-free")
    assert sizes >= {0, 1, 2, "traced, loop-free"}


def test_evaluate_agrees_with_unfolding_all_wires(rng):
    # Cutting every wire leaves each delay's output on a cut wire, so a
    # delay whose output is discarded holds its input value for good and
    # the all-wire evaluator gives UNPRODUCTIVE where ``delay-stub``
    # would have erased it.  That is the only difference allowed.
    differences = 0
    for csig in (two_point_sig(), belnap_sig()):
        sig = csig.signature()
        gen_sig = _gen_sig(csig, [DELAY])
        for _ in range(150):
            m, n = rng.randint(0, 3), rng.randint(0, 3)
            t = random_term(rng, gen_sig, m, n, depth=3, traces=True)
            x = rng.randint(0, min(m, n, 3))
            if x:
                t = Trace(x, t)
            H = interpret(t, sig)
            inputs = tuple(rng.choice(csig.lattice.values)
                           for _ in range(len(H.dom())))
            got = evaluate(t, inputs, csig)
            want = evaluate_by_unfolding_all_wires(t, inputs, csig,
                                                   max_unfoldings=500)
            if got != want:
                differences += 1
                assert want is UNPRODUCTIVE and got is not UNPRODUCTIVE
                assert any(H.labels[e] == DELAY and _discarded(H, e)
                           for e in H.edges)
    assert differences  # the sample reaches the case


def test_merge_and_copy_helpers_type():
    csig = two_point_sig()
    sig = csig.signature()
    assert type_of(merge_term(3), sig) == (type_of(Id(6), sig)[0],
                                           type_of(Id(3), sig)[0])
    assert type_of(copy_term(3), sig) == (type_of(Id(3), sig)[0],
                                          type_of(Id(6), sig)[0])
    assert type_of(delete_term(2), sig) == (type_of(Id(2), sig)[0], ())
    # copy really duplicates a bus
    got = evaluate(copy_term(2), ("top", "bot"), csig)
    assert got == ("top", "bot", "top", "bot")
    got = evaluate(merge_term(2), ("top", "bot", "bot", "top"), csig)
    assert got == ("top", "top")


def test_parse_circuit_signature_roundtrip():
    text = """
    values: bot top
    bottom: bot
    join: bot bot -> bot
    join: bot top -> top
    join: top bot -> top
    join: top top -> top
    gate org arity 2: bot bot -> bot
    gate org arity 2: bot top -> top
    gate org arity 2: top bot -> top
    gate org arity 2: top top -> top
    """
    csig = parse_circuit_signature(text)
    assert csig.lattice.values == ("bot", "top")
    assert csig.gates["org"].table[("bot", "top")] == "top"
    assert evaluate(Gen("org"), ("bot", "top"), csig) == ("top",)


def test_parse_circuit_signature_errors():
    with pytest.raises(LatticeError):
        parse_circuit_signature("values: a b\n")  # no bottom
    with pytest.raises(LatticeError):
        parse_circuit_signature(
            "values: a\nbottom: a\njoin: a a -> a\ngate g arity 2: a -> a\n")


_TWO_POINT_TEXT = "\n".join(["values: bot top", "bottom: bot"] + [
    f"join: {a} {b} -> {'top' if 'top' in (a, b) else 'bot'}"
    for a in ("bot", "top") for b in ("bot", "top")] + [
    f"gate amp arity 1: {a} -> {a}" for a in ("bot", "top")]) + "\n"


@pytest.mark.parametrize("line,error", [
    ("values: bot top", "line 9: values: given twice"),
    ("bottom: top", "line 9: bottom: given twice"),
    ("join: top bot -> bot", "line 9: join top bot given twice"),
    ("gate amp arity 1: top -> bot", "line 9: gate amp row top given twice"),
], ids=["values", "bottom", "join", "gate"])
def test_parse_circuit_signature_refuses_repeats(line, error):
    """A declaration or a table row given twice is refused, naming its
    line, as rule and signature files refuse a name given twice; the
    last one used to win silently."""
    assert parse_circuit_signature(_TWO_POINT_TEXT).gates["amp"].table[
        ("top",)] == "top"
    with pytest.raises(LatticeError) as info:
        parse_circuit_signature(_TWO_POINT_TEXT + line + "\n")
    assert str(info.value) == error


_NAME_RULE = "(a letter or '_', then letters, digits or '_')"


@pytest.mark.parametrize("text,error", [
    (_TWO_POINT_TEXT + "join: x y -> bot\n",
     "join defined on (x, y), which are not both values"),
    (_TWO_POINT_TEXT + "gate amp arity 1: x -> top\n",
     "gate amp: row ('x',) is not a row of values"),
    (_TWO_POINT_TEXT.replace("values: bot top", "values: bot top 1x"),
     f"line 1: '1x' is not a value name {_NAME_RULE}"),
    (_TWO_POINT_TEXT + "gate 1x arity 1: bot -> bot\n",
     f"line 9: '1x' is not a gate name {_NAME_RULE}"),
    (_TWO_POINT_TEXT.replace("values: bot top", "values: bot top id"),
     "line 1: value name 'id' is reserved"),
    (_TWO_POINT_TEXT + "gate swap arity 1: bot -> bot\n",
     "line 9: gate name 'swap' is reserved"),
    (_TWO_POINT_TEXT + "gate tr arity 1: bot -> bot\n",
     "line 9: gate name 'tr' is reserved"),
], ids=["join-row", "gate-row", "value-1x", "gate-1x", "value-id",
        "gate-swap", "gate-tr"])
def test_a_lattice_file_refuses_what_no_term_can_use(text, error, tmp_path,
                                                     capsys):
    """A join or gate row over a name outside ``values:`` was kept as a
    dead table entry; a value or gate name no term can spell, or one the
    terms reserve, passed the parse and failed only later, without its
    line.  Each is refused, and ``linhyp evaluate`` exits 1 on it."""
    with pytest.raises(LatticeError) as info:
        parse_circuit_signature(text)
    assert str(info.value) == error
    (tmp_path / "bad.lattice").write_text(text)
    (tmp_path / "t.term").write_text("bot")
    code = main(["evaluate", str(tmp_path / "t.term"),
                 "--lattice", str(tmp_path / "bad.lattice")])
    assert code == 1 and capsys.readouterr().err == f"error: {error}\n"


def test_a_lattice_refuses_a_join_row_outside_its_values():
    table = {(a, b): max(a, b) for a in "ab" for b in "ab"}
    assert ValueLattice(("a", "b"), "a", table).join("a", "b") == "b"
    with pytest.raises(LatticeError) as info:
        ValueLattice(("a", "b"), "a", {**table, ("a", "c"): "b"})
    assert str(info.value) == ("join defined on (a, c), which are not both"
                               " values")


def test_a_lattice_refuses_a_repeated_value():
    with pytest.raises(LatticeError) as info:
        ValueLattice(("a", "b", "a"), "a", {
            (x, y): max(x, y) for x in "ab" for y in "ab"})
    assert str(info.value) == "duplicate value 'a'"
    with pytest.raises(LatticeError) as info:
        parse_circuit_signature("values: a a\nbottom: a\njoin: a a -> a\n")
    assert str(info.value) == "duplicate value 'a'"


def test_parse_circuit_signature_reads_only_decimal_arities():
    with pytest.raises(LatticeError) as info:
        parse_circuit_signature(
            "values: a\nbottom: a\njoin: a a -> a\ngate g arity ¹: a -> a\n")
    assert str(info.value) == "line 4: expected 'gate NAME arity N: row'"


def test_circuit_signature_is_built_once_per_lattice(monkeypatch):
    """``evaluate`` reads the term signature on every call; it is built
    and checked once per parsed lattice."""
    import linhyp.circuits as circuits

    built = []
    real = circuits.signature
    monkeypatch.setattr(circuits, "signature",
                        lambda gens: built.append(gens) or real(gens))
    csig = two_point_sig()
    sig = csig.signature()
    for value in ("bot", "top"):
        assert evaluate(Gen("amp"), (value,), csig) == (value,)
    assert csig.signature() is sig and len(built) == 1
    assert two_point_sig().signature() is not sig


def test_eval_rules_compile_once_on_first_use(monkeypatch):
    import linhyp.circuits as circuits

    compiled = []
    real = circuits.rule_from_terms

    def counting(*args, **kwargs):
        compiled.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(circuits, "rule_from_terms", counting)
    csig = parse_circuit_signature(_TWO_POINT_TEXT)
    csig.signature()
    assert compiled == []  # parsing compiles nothing
    rules = eval_rules(csig)
    assert isinstance(rules, tuple) and compiled
    count = len(compiled)
    assert eval_rules(csig) is rules
    assert evaluate(Gen("amp"), ("top",), csig) == ("top",)
    assert evaluate(Gen("amp"), ("bot",), csig) == ("bot",)
    assert len(compiled) == count
    # another signature object compiles its own rules
    other = parse_circuit_signature(_TWO_POINT_TEXT)
    assert eval_rules(other) is not rules
    assert [r.name for r in eval_rules(other)] == [r.name for r in rules]


def test_wiring_terms_are_left_nested_tensors():
    """The bus terms the rule families are built from, as trees."""
    a, b, c, stub, join = (Gen("a"), Gen("b"), Gen("c"), Gen(STUB),
                           Gen(JOIN))
    assert value_row(()) == Id(0)
    assert value_row(("a",)) == a
    assert value_row(["a", "b", "c"]) == Tensor(Tensor(a, b), c)
    assert delete_term(0) == Id(0)
    assert delete_term(1) == stub
    assert delete_term(3) == Tensor(Tensor(stub, stub), stub)
    assert merge_term(0) == Id(0)
    assert merge_term(1) == Seq(Id(2), join)
    assert merge_term(2) == Seq(
        Seq(Tensor(Tensor(Id(1), Swap(1, 1)), Id(1)), Tensor(Id(2), Id(2))),
        Tensor(join, join))


def _eval_rule_names(lat, gates):
    """The evaluator's rule names, in order, for a lattice and
    ``(gate, arity)`` pairs: value pushing, then the structural rules
    with a non-empty left side."""
    vals = lat.values
    return ([f"fork-{v}" for v in vals]
            + [f"join-{v}-{w}" for v in vals for w in vals]
            + [f"stub-{v}" for v in vals]
            + ["-".join((g, *row)) for g, n in gates
               for row in itertools.product(vals, repeat=n)]
            + ["delay-bot", "delay-stub"]
            + [f"gc-{g}" for g, _ in gates] + ["gc-join"]
            + [f"{kind}-nat-{g}" for g in [*(g for g, _ in gates), JOIN,
                                            DELAY]
               for kind in ("copy", "del")]
            + ["coassoc", "counit-l", "counit-r", "cocomm",
               "copy-coherence", "del-coherence"])


@pytest.mark.parametrize("make_sig,gates,count", [
    (two_point_sig, [("org", 2), ("amp", 1)], 33),
    (belnap_sig, [("andg", 2), ("org", 2), ("notg", 1)], 82),
], ids=["two-point", "belnap"])
def test_eval_rules_compile_only_the_rules_they_keep(monkeypatch, make_sig,
                                                      gates, count):
    """The evaluator's rules, by name and in order, are each compiled
    once: no streaming instance, delay-gate commutation or empty-sided
    unit rule is compiled only to be dropped."""
    import linhyp.circuits as circuits

    compiled = []
    real = circuits.rule_from_terms

    def counting(lhs, rhs, sig, name):
        compiled.append(name)
        return real(lhs, rhs, sig, name)

    monkeypatch.setattr(circuits, "rule_from_terms", counting)
    csig = make_sig()
    names = [r.name for r in eval_rules(csig)]
    assert names == _eval_rule_names(csig.lattice, gates)
    assert len(names) == count
    assert compiled == names
    axioms = {r.name for r in circuit_rules(csig)} - set(names)
    assert axioms == {f"delay-{g}" for g, _ in gates} | {
        "-".join(("stream", g, *row)) for g, n in gates
        for row in itertools.product(csig.lattice.values, repeat=n)}
