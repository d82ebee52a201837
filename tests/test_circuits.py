import copy
import gc
import inspect
import itertools
import weakref
from dataclasses import replace

import pytest

from linhyp import (Gen, Id, Seq, Tensor, Trace, UNPRODUCTIVE,
                    CircuitSignature, ValueLattice, apply_rewrite,
                    belnap, cartesian_rules, circuit_rules, copy_term,
                    delete_term, evaluate, find_matchings,
                    interpret, isomorphic, merge_term,
                    normalize, parse_circuit_signature, parse_term,
                    two_point, type_of,
                    validate, value_row)
from linhyp.circuits import (DELAY, FORK, JOIN, STUB, Gate, LatticeError,
                             eval_rules, feedback_wires, read_value_word)
from linhyp.cli import main
from linhyp.terms import Swap
from linhyp.graphs import IDENTITY_LABEL, INTERFACE, LinearHypergraph, expand
from linhyp.interp import _build
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
    rounds = _count_rounds(monkeypatch)
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


def test_a_term_and_its_graph_evaluate_alike(monkeypatch, rng):
    """``evaluate`` of a term, which reduces the host ``interpret``
    builds when the term is loop-free, and ``evaluate`` of the term's
    graph give the same word, which is the data-flow oracle's, in as
    many rounds, on loop-free circuits and circuits with one to three
    traced wires over both lattices; under a budget of two steps a
    round they give the same word or both UNPRODUCTIVE, in as many
    rounds; and ``feedback_wires`` gives the same cut on the built host
    as on the graph."""
    rounds = _count_rounds(monkeypatch)
    seen = set()
    for csig in (two_point_sig(), belnap_sig()):
        sig = csig.signature()
        for x in (0, 1, 2, 3) * 6:
            if x:
                t, inputs = _random_feedback(rng, csig, x)
                H = interpret(t, sig)
            else:
                t, H = _random_loop_free(rng, csig)
                inputs = tuple(rng.choice(csig.lattice.values)
                               for _ in range(len(H.dom())))
            cut = feedback_wires(H)
            assert feedback_wires(_build(t, sig)) == cut
            want = dataflow_fixed_point(H, inputs, csig)
            for max_steps in (10000, 2):
                del rounds[:]
                got = evaluate(t, inputs, csig, max_steps)
                n = len(rounds)
                del rounds[:]
                assert evaluate(H, inputs, csig, max_steps) == got
                assert len(rounds) == n
                assert max_steps == 2 or got == want
                seen.add((bool(cut), n, got is UNPRODUCTIVE))
    # loop-free and cyclic circuits, some taking several rounds, and
    # some UNPRODUCTIVE under the small budget
    assert {c for c, _, _ in seen} == {False, True}
    assert max(n for _, n, _ in seen) > 1
    assert {u for _, _, u in seen} == {False, True}


@pytest.mark.parametrize("n", [63, 100, 200])
def test_evaluate_deep_chains_match_dataflow_oracle(n):
    # cutting every wire needs n + 1 rounds, more than the default 64
    csig = two_point_sig()
    chain = _amp_chain(n)
    H = interpret(chain, csig.signature())
    for v in csig.lattice.values:
        assert evaluate(chain, (v,), csig) == dataflow_fixed_point(
            H, (v,), csig) == (v,)


def _count_rounds(monkeypatch, record=lambda host: host):
    """What ``record`` makes of each host ``evaluate`` hands the rewrite
    driver (``rewrite._reduce``), one per round, as it hands it over."""
    import linhyp.circuits as circuits

    calls = []
    real = circuits._reduce

    def counting(host, rules, max_steps):
        calls.append(record(host))
        return real(host, rules, max_steps)

    monkeypatch.setattr(circuits, "_reduce", counting)
    return calls


def _frozen_copy(host):
    """The graph of a host as it stands, holding copies of the host's
    tables, which the driver goes on to rewrite in place."""
    twin = copy.copy(host)
    twin.__dict__.update((name, dict(table)) for name, table
                         in vars(host).items() if isinstance(table, dict))
    return twin.freeze()


def test_evaluate_normalizes_once_without_feedback(monkeypatch, rng):
    calls = _count_rounds(monkeypatch)
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
    calls = _count_rounds(monkeypatch)
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


def count_host_copies(monkeypatch):
    """The ``_Host`` copies made and the hosts frozen, counted as they
    happen."""
    import linhyp.graphs as graphs

    made = {"hosts": 0, "freezes": 0}
    init, freeze = graphs._Host.__init__, graphs._Host.freeze

    def counting_init(self, G):
        made["hosts"] += 1
        init(self, G)

    def counting_freeze(self):
        made["freezes"] += 1
        return freeze(self)

    monkeypatch.setattr(graphs._Host, "__init__", counting_init)
    monkeypatch.setattr(graphs._Host, "freeze", counting_freeze)
    return made


def test_evaluate_copies_the_circuit_once_a_round_and_freezes_nothing(
        monkeypatch):
    """``evaluate`` makes one host of the circuit, the host ``interpret``
    builds a term in or a copy of a graph, and cuts its m inputs there
    once.  Each round but the last one the bound allows reduces a copy
    of that host, and that last round the host itself, each cutting only
    its k feedback wires: in n rounds, 1 + n hosts short of the bound
    and n at it, and m + k * n cuts, from a term and from its graph
    alike.  The host is frozen once, to be labelled, when it has a
    feedback wire, and else never.  On two points a loop-free chain
    takes its one round, ``tr 1 (org ; fork)`` two and a three-rung
    ladder three, each the bound; over Belnap ``tr 1 (org ; fork)``
    takes two of its four."""
    import linhyp.graphs as graphs

    two, four = two_point_sig(), belnap_sig()
    loop = Trace(1, Seq(Gen("org"), Gen(FORK)))
    # circuit, lattice, inputs, output word, rounds
    cases = [(_amp_chain(5), two, ("top",), ("top",), 1),
             (loop, two, ("top",), ("top",), 2),
             (feedback_ladder(3), two, ("bot", "top"), ("top", "top"), 3),
             (loop, four, ("tt",), ("tt",), 2)]
    circuits = []
    for circuit, csig, *_ in cases:
        eval_rules(csig)  # compiling the rules builds and freezes graphs
        G = interpret(circuit, csig.signature())
        circuits.append((G, len(feedback_wires(G))))
    rounds = _count_rounds(monkeypatch)
    made = count_host_copies(monkeypatch)
    cuts = []
    real_cut = graphs._Host.cut
    monkeypatch.setattr(graphs._Host, "cut", lambda self, w, label: (
        cuts.append(w) or real_cut(self, w, label)))
    at_bound = set()
    for (circuit, csig, inputs, want, n), (G, k) in zip(cases, circuits):
        bound = (len(csig.lattice.values) - 1) * k + 1
        want_made = {"hosts": n if n == bound else 1 + n,
                     "freezes": 1 if k else 0}
        for given in (circuit, G):
            del rounds[:], cuts[:]
            made.update(hosts=0, freezes=0)
            assert evaluate(given, inputs, csig) == want
            assert len(rounds) == n
            assert made == want_made
            assert len(cuts) == len(inputs) + k * n
        at_bound.add(n == bound)
    assert at_bound == {False, True}


def test_a_copy_of_a_live_host_is_the_copy_of_its_graph():
    """``_Host(h)`` of a live host ``h`` has the tables of
    ``_Host(h.freeze())``, in every stored order, ``by_label`` and
    ``edge_seq`` included, and draws the same first new id: for the
    host a term is built in, once indexed, and for a copy of its graph,
    each with a value edge cut into every input wire and every feedback
    wire, as ``evaluate`` cuts them."""
    from linhyp.graphs import _Host

    def tables(h):
        return ({name: list(table.items()) if isinstance(table, dict)
                 else table for name, table in vars(h).items()
                 if name not in ("tick", "new_ids", "by_label")},
                [(lab, list(es)) for lab, es in h.by_label.items()],
                next(h.new_ids))

    sig = two_point_sig().signature()
    terms = [_amp_chain(3), Trace(1, Seq(Gen("org"), Gen(FORK))),
             feedback_ladder(3), Tensor(Gen("top"), feedback_ladder(2))]
    for t in terms:
        built = _build(t, sig)
        built.index()
        for h in (built, _Host(interpret(t, sig))):
            for w in feedback_wires(h) + list(h.inputs()):
                h.cut(w, "top")
            assert tables(_Host(h)) == tables(_Host(h.freeze()))


def test_evaluate_graphs_with_identity_edges(rng):
    """Identity edges inserted by ``expand`` on random wires of random
    circuits, each feedback wire among them, change no value word: each
    round's host is smoothed in place before it is reduced.  The words
    are those of the circuit without them and of the data-flow oracle,
    over both lattices, loop-free and with one to three traced wires."""
    for csig in (two_point_sig(), belnap_sig()):
        sig = csig.signature()
        for i in range(24):
            if i % 4 == 0:
                t, H = _random_loop_free(rng, csig)
                inputs = tuple(rng.choice(csig.lattice.values)
                               for _ in range(len(H.dom())))
            else:
                t, inputs = _random_feedback(rng, csig, i % 4)
                H = interpret(t, sig)
            want = evaluate(t, inputs, csig)
            assert want == dataflow_fixed_point(H, inputs, csig)
            G = H
            for w in feedback_wires(H):
                G = expand(G, w)
            for _ in range(rng.randint(1, 3)):
                G = expand(G, rng.choice(G.targets))
            assert IDENTITY_LABEL in G.labels.values()
            assert evaluate(G, inputs, csig) == want


def _indexed_copy(host):
    """:func:`_frozen_copy` of a host, with copies of its edge indexes:
    ``by_label`` as lists, as a graph derives it, and ``edge_seq``."""
    return (_frozen_copy(host),
            {lab: list(es) for lab, es in host.by_label.items()},
            dict(host.edge_seq))


def test_each_rounds_graph_gets_the_open_graphs_tables(monkeypatch, rng):
    """The open graph's port tables and ``conn`` inverse, built once from
    the circuit's, and its edge indexes, are those a fresh ``replace(G)``
    derives for the graph of each round's host as it reaches the rewrite
    driver, all but the ``conn`` inverse entry for entry and in insertion
    order, on loop-free circuits, whose one round reduces the host
    ``interpret`` builds, and on looped circuits with one to three cut
    wires, their inputs as value edges; an evaluation from a term
    derives no port table at all."""
    checked = []
    rounds = _count_rounds(monkeypatch, _indexed_copy)
    derived = []
    real_tables = LinearHypergraph.port_tables
    monkeypatch.setattr(LinearHypergraph, "port_tables",
                        lambda H: derived.append(H) or real_tables(H))
    for csig in (two_point_sig(), belnap_sig()):
        eval_rules(csig)  # compiling the rules derives their graphs' tables
        for x in (0, 1, 2, 3, 0, 1, 2, 3):
            if x:
                circuit, inputs = _random_feedback(rng, csig, x)
            else:
                circuit, H = _random_loop_free(rng, csig)
                inputs = ("bot",) * len(H.dom())
            del rounds[:], derived[:]
            evaluate(circuit, inputs, csig)
            assert rounds and derived == []
            for G, by_label, edge_seq in rounds:
                fresh = replace(G)
                assert tables_in_order(G)[:2] == tables_in_order(fresh)[:2]
                assert G.inv == fresh.inv
                assert list(by_label.items()) == list(fresh.by_label.items())
                assert list(edge_seq.items()) == list(fresh.edge_seq.items())
            checked.append((x, len(rounds)))
    assert max(r for _, r in checked) > 1  # a circuit took several rounds
    assert {r for x, r in checked if x == 0} == {1}


def test_each_rounds_open_graph_has_no_inputs_and_the_cut_outputs(
        monkeypatch, rng):
    """Each round's open graph, built in one ``_Host`` from the circuit's
    by cutting its input and feedback wires, is well formed over the
    circuit signature, has no inputs and has one output more per cut
    wire than the circuit when it reaches the rewrite driver, on
    loop-free circuits, whose one round is the host ``interpret``
    builds, and on looped circuits with one to three cut wires, over
    both lattices."""
    rounds = _count_rounds(monkeypatch, _frozen_copy)
    seen = set()
    for csig in (two_point_sig(), belnap_sig()):
        for x in (0, 1, 2, 3) * 4:
            if x:
                circuit, inputs = _random_feedback(rng, csig, x)
            else:
                circuit, _ = _random_loop_free(rng, csig)
            H = interpret(circuit, csig.signature())
            if not x:
                inputs = tuple(rng.choice(csig.lattice.values)
                               for _ in range(len(H.dom())))
            k = len(feedback_wires(H))
            del rounds[:]
            evaluate(circuit, inputs, csig)
            for G in rounds:
                assert validate(G, csig.signature()) == []
                assert G.dom() == ()
                assert len(G.outputs()) == len(H.outputs()) + k
            seen.add((k, len(rounds)))
    # the sample has loop-free circuits, two-wire cuts and circuits that
    # take several rounds
    assert {k for k, _ in seen} >= {0, 1, 2} and max(r for _, r in seen) > 1


def test_a_rounds_graph_is_freed_without_the_collector(monkeypatch):
    """A round's host holds no cycle: once ``evaluate`` returns, each
    round's host goes without the cyclic collector, the host a loop-free
    term is built in too."""
    refs = _count_rounds(monkeypatch, weakref.ref)
    loop = Trace(1, Seq(Seq(Gen("org"), Gen(FORK)), Id(2)))
    csig = two_point_sig()
    eval_rules(csig)
    gc.disable()
    try:
        assert evaluate(loop, ("top",), csig) == ("top",)
        assert len(refs) == 2 and all(ref() is None for ref in refs)
        del refs[:]
        assert evaluate(_amp_chain(3), ("top",), csig) == ("top",)
        assert len(refs) == 1 and refs[0]() is None
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
     "line 9: join row uses 'x', which is not a value"),
    (_TWO_POINT_TEXT + "gate amp arity 1: x -> top\n",
     "line 9: gate amp row uses 'x', which is not a value"),
    ("join: bot x -> top\n" + _TWO_POINT_TEXT,
     "line 1: join row uses 'x', which is not a value"),
    (_TWO_POINT_TEXT + "gate buf arity 1: top -> x\n",
     "line 9: gate buf row uses 'x', which is not a value"),
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
    (_TWO_POINT_TEXT.replace("values: bot top", "values: bot top fork"),
     "line 1: value name 'fork' is reserved"),
    (_TWO_POINT_TEXT.replace("values: bot top", "values: bot join top"),
     "line 1: value name 'join' is reserved"),
    (_TWO_POINT_TEXT + "gate stub arity 1: bot -> bot\n",
     "line 9: gate name 'stub' is reserved"),
    (_TWO_POINT_TEXT + "gate delay arity 1: bot -> bot\n",
     "line 9: gate name 'delay' is reserved"),
], ids=["join-row", "gate-row", "join-row-first", "gate-result", "value-1x",
        "gate-1x", "value-id", "gate-swap", "gate-tr", "value-fork",
        "value-join", "gate-stub", "gate-delay"])
def test_a_lattice_file_refuses_what_no_term_can_use(text, error, tmp_path,
                                                     capsys):
    """A join or gate row over a name outside ``values:`` was kept as a
    dead table entry, and then refused without its line; a value or gate
    name no term can spell, or one the terms or the wiring generators
    reserve, passed the parse and failed only later, without its line.
    Each is refused, naming its line, also a row that comes before
    ``values:``, and ``linhyp evaluate`` exits 1 on it."""
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
    assert str(info.value) == "line 1: duplicate value 'a'"


def test_a_lattice_refuses_a_bottom_outside_its_values():
    with pytest.raises(LatticeError) as info:
        ValueLattice(("a", "b"), "c", {
            (x, y): max(x, y) for x in "ab" for y in "ab"})
    assert str(info.value) == "bottom 'c' is not a value"


def _outside(a, b):
    return "c" if a == b == "b" else max(a, b)


def _not_idempotent(a, b):
    return "a" if a == b == "b" else max(a, b)


def _not_associative(a, b):
    # x and y join to the bottom o, so (x x) y is o and x (x y) is x
    return b if a in ("o", b) else a if b == "o" else "o"


def _right(a, b):
    return b


def _top_first(a, b):
    # a semilattice whose top, not its bottom, comes first
    return "a" if "a" in (a, b) else "b"


def _lattice_text(values, join, rows=list):
    """A lattice file: the values, the first as bottom, and the join rows
    in ``rows`` of the row-major order."""
    return f"values: {' '.join(values)}\nbottom: {values[0]}\n" + "".join(
        rows([f"join: {a} {b} -> {join(a, b)}\n"
              for a in values for b in values]))


@pytest.mark.parametrize("values,join,error", [
    ("ab", _outside, "join(b, b) is not a value"),
    ("ab", _not_idempotent, "join not idempotent at b"),
    ("oxy", _not_associative, "join not associative at (x, x, y)"),
    ("ab", _right, "join not commutative at (a, b)"),
    ("ab", _top_first, "bottom is not a unit at b"),
], ids=["outside", "idempotent", "associative", "commutative", "unit"])
def test_a_lattice_refuses_a_join_that_is_no_semilattice(values, join,
                                                         error):
    with pytest.raises(LatticeError) as info:
        ValueLattice(tuple(values), values[0],
                     {(a, b): join(a, b) for a in values for b in values})
    assert str(info.value) == error


@pytest.mark.parametrize("gates,error", [
    ({"top": Gate("top", 1, {("bot",): "bot", ("top",): "top"})},
     "value and gate names overlap"),
    ({"g": Gate("g", 1, {("bot",): "bot"})}, "gate g: bad row ('top',)"),
    ({"g": Gate("g", 1, {("bot",): "bot", ("top",): "x"})},
     "gate g: bad row ('top',)"),
    ({"g": Gate("g", 1, {("bot",): "bot", ("top",): "top", ("x",): "top"})},
     "gate g: row ('x',) is not a row of values"),
    ({"g": Gate("g", 1, {("bot",): "top", ("top",): "bot"})},
     "gate g is not monotone: ('bot',) -> top but ('top',) -> bot"),
], ids=["overlap", "missing-row", "row-result", "row-outside", "monotone"])
def test_a_circuit_signature_refuses_a_bad_gate(gates, error):
    with pytest.raises(LatticeError) as info:
        CircuitSignature(two_point(), gates)
    assert str(info.value) == error


@pytest.mark.parametrize("text,error", [
    (_TWO_POINT_TEXT + "gate amp arity 2: bot bot -> bot\n",
     "line 9: gate amp arity changed"),
    (_TWO_POINT_TEXT + "gate top arity 1: bot -> bot\n",
     "line 9: value and gate names overlap"),
    (_TWO_POINT_TEXT + "gate g arity 1: bot -> bot\n",
     "line 9: gate g: bad row ('top',)"),
    (_TWO_POINT_TEXT + "gate g arity 1: bot -> top\n"
     "gate g arity 1: top -> bot\n",
     "line 9: gate g is not monotone: ('bot',) -> top but ('top',) -> bot"),
    (_lattice_text("ab", _not_idempotent), "line 6: join not idempotent at b"),
    (_lattice_text("ab", _right), "line 4: join not commutative at (a, b)"),
    (_lattice_text("ab", _right, reversed),
     "line 4: join not commutative at (a, b)"),
    (_lattice_text("ab", _top_first), "line 4: bottom is not a unit at b"),
    # the law reads rows x x (line 7), x y (8) and x o (6)
    (_lattice_text("oxy", _not_associative),
     "line 6: join not associative at (x, x, y)"),
    # now rows x y (line 6), x x (7) and x o (8)
    (_lattice_text("oxy", _not_associative, reversed),
     "line 6: join not associative at (x, x, y)"),
    ("# two a\nvalues: a a\nbottom: a\njoin: a a -> a\n",
     "line 2: duplicate value 'a'"),
    ("values: a\njoin: a a -> a\nbottom: c\n",
     "line 3: bottom 'c' is not a value"),
    # a gate may take a declaration's name, and its line is its own
    ("gate values arity 1: a -> a\nvalues: a a\nbottom: a\n"
     "join: a a -> a\n", "line 2: duplicate value 'a'"),
    ("values: a\ngate bottom arity 1: a -> a\nbottom: b\n"
     "join: a a -> a\n", "line 3: bottom 'b' is not a value"),
    (_TWO_POINT_TEXT + "gate values arity 1: bot -> bot\n",
     "line 9: gate values: bad row ('top',)"),
], ids=["arity-changed", "overlap", "missing-row", "monotone", "idempotent",
        "commutative", "commutative-reversed", "unit", "associative",
        "associative-reversed", "duplicate-value", "bottom-not-a-value",
        "gate-named-values", "gate-named-bottom", "gate-values-missing-row"])
def test_each_lattice_file_error_fails_evaluate(text, error, tmp_path,
                                                 capsys):
    """Each error a lattice file can reach is raised by the parser and
    by ``linhyp evaluate``, which exits 1 on it, naming a line: a row's
    error its row, a repeated value or a bottom outside the values its
    declaration, a join law's the first join row in the file that the
    law reads, and a gate table's the gate's first row."""
    with pytest.raises(LatticeError) as info:
        parse_circuit_signature(text)
    assert str(info.value) == error
    (tmp_path / "bad.lattice").write_text(text)
    (tmp_path / "t.term").write_text("id 0")
    code = main(["evaluate", str(tmp_path / "t.term"),
                 "--lattice", str(tmp_path / "bad.lattice")])
    assert code == 1 and capsys.readouterr().err == f"error: {error}\n"


def test_an_output_fed_straight_from_an_input_has_no_value():
    csig = two_point_sig()
    H = interpret(Tensor(Gen("top"), Id(1)), csig.signature())
    assert read_value_word(H, csig) is None
    assert read_value_word(H, csig, H.outputs()[:1]) == ("top",)


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


def test_a_short_gate_table_of_arity_40_is_refused_at_its_first_gap():
    """A gate table that lacks a row is refused at the first row it
    lacks, before all |values| ** arity rows are built: 2 ** 40 here.
    CI runs this under an address-space limit, where building them
    fails with MemoryError."""
    text = _TWO_POINT_TEXT.replace("gate amp arity 1: bot -> bot\n", "")
    text = text.replace("gate amp arity 1: top -> top\n",
                        "gate g arity 40: " + "bot " * 40 + "-> bot\n")
    with pytest.raises(LatticeError) as info:
        parse_circuit_signature(text)
    row = ("bot",) * 39 + ("top",)
    assert str(info.value) == f"line 7: gate g: bad row {row}"


def test_a_gate_arity_over_the_maximum_count_is_refused():
    for arity in ("1000001", "99999999999999999999"):
        with pytest.raises(LatticeError) as info:
            parse_circuit_signature(
                _TWO_POINT_TEXT + f"gate g arity {arity}: bot -> bot\n")
        assert str(info.value) == (f"line 9: count {arity} is over the"
                                   " maximum, 1000000")
