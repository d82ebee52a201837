import dataclasses
import random

import pytest

from linhyp import (Gen, Homomorphism, Id, Matching, ParseError, Seq, Swap,
                    Tensor, Trace, TypeMismatch, RewriteError, apply_rewrite,
                    find_matchings, identity, interpret, is_homomorphism,
                    isomorphic, normal_forms, normalize, parse_rules,
                    parse_term, pushout, pushout_complement, rule_from_terms,
                    saturate_rule, save_graph, tensor, validate)
from linhyp.circuits import eval_rules
from linhyp.graphs import IDENTITY_LABEL
from linhyp.laws import law_signature, random_term
from linhyp.terms import signature, type_of
from oracles import (apply_by_pushouts, boundary_coherent,
                     brute_force_complements, brute_force_matchings,
                     glue_simple, normal_forms_by_pushouts,
                     normalize_by_enumeration, random_graph,
                     tables_from_scratch, trace_mono, view_tables)
from test_circuits import belnap_sig, two_point_sig
from test_driver import RULES, _circuits, _host, _numbered

SIG = law_signature()
CSIG = signature({"join": (2, 1), "f": (1, 1), "copy": (1, 2)})


def copy_rule():
    return rule_from_terms(parse_term("f ; copy", CSIG),
                           parse_term("copy ; f * f", CSIG),
                           CSIG, "copy-nat-f")


def figure_host():
    return interpret(
        parse_term("tr 1 (join * f ; swap 1 1 ; copy * id 1)", CSIG), CSIG)


def test_rule_span_shape():
    rule = copy_rule()
    assert rule.K.edges == ()
    assert rule.left_leg.is_embedding()
    assert rule.right_leg.is_embedding()
    assert rule.L.dom() == rule.R.dom() and rule.L.cod() == rule.R.cod()
    assert is_homomorphism(rule.left_leg)
    assert is_homomorphism(rule.right_leg)


def test_rule_type_mismatch():
    with pytest.raises(Exception):
        rule_from_terms(Gen("f"), Gen("copy"), CSIG)


def test_trivial_rule_is_identity_up_to_iso():
    rule = rule_from_terms(parse_term("f ; copy", CSIG),
                           parse_term("f ; copy", CSIG), CSIG, "noop")
    G = figure_host()
    ms = find_matchings(rule.L, G)
    assert ms
    assert isomorphic(apply_rewrite(G, rule, ms[0]), G)


def test_bare_wire_rule_is_saturated():
    rule = rule_from_terms(Id(1), Gen("f"), CSIG, "grow")
    assert any(rule.L.labels[e] == IDENTITY_LABEL for e in rule.L.edges)
    assert rule.left_leg.is_embedding() and rule.right_leg.is_embedding()


def test_saturate_is_idempotent():
    rule = rule_from_terms(Id(1), Gen("f"), CSIG, "grow")
    again = saturate_rule(rule)
    assert len(again.L.edges) == len(rule.L.edges)
    assert len(again.R.edges) == len(rule.R.edges)
    untouched = copy_rule()
    assert saturate_rule(untouched) is untouched


def test_boundary_coherent_rule_legs():
    rule = copy_rule()
    G = figure_host()
    m = find_matchings(rule.L, G)[0]
    k_to_c, _ = pushout_complement(rule.left_leg, m.embedding)
    assert boundary_coherent(k_to_c, rule.right_leg)


def test_boundary_coherent_empty_is_vacuous():
    K = identity(0)
    F = interpret(Gen("f"), SIG)
    h = Homomorphism(K, F, {}, {}, {})
    assert boundary_coherent(h, h)


def _wire_onto_output(K, X):
    t_port = X.conn_inv()[X.outputs()[0]]
    return Homomorphism(K, X, {K.targets[0]: t_port},
                        {K.sources[0]: X.outputs()[0]}, {})


def _wire_onto_input(K, X):
    t0 = X.inputs()[0]
    return Homomorphism(K, X, {K.targets[0]: t0},
                        {K.sources[0]: X.conn[t0]}, {})


def test_non_boundary_coherent_glues_nonlinear():
    """Both legs plug the interface wire into edge ports: the pushout in
    plain hypergraphs exists but stops being linear."""
    K = identity(1)
    m = _wire_onto_output(K, interpret(Gen("f"), SIG))
    n = _wire_onto_output(K, interpret(Gen("g"), SIG))
    assert is_homomorphism(m) and is_homomorphism(n)
    assert not boundary_coherent(m, n)
    assert not glue_simple(m, n).is_linear_shape()
    with pytest.raises(RewriteError):
        pushout(m, n)


def test_boundary_coherent_pushout_is_linear(rng):
    """One side interface, the other attached: always glueable."""
    K = identity(1)
    m = _wire_onto_input(K, identity(1))     # stays on the interface
    n = _wire_onto_output(K, interpret(Gen("g"), SIG))
    assert boundary_coherent(m, n)
    H, c_to_h, r_to_h = pushout(m, n)
    assert validate(H) == []
    assert glue_simple(m, n).is_linear_shape()
    assert is_homomorphism(c_to_h) and is_homomorphism(r_to_h)


def test_pushout_identity_leg_gives_rhs():
    rule = copy_rule()
    K = rule.K
    k_as_c = Homomorphism(K, K, {v: v for v in K.targets},
                          {v: v for v in K.sources}, {})
    H, _, r_to_h = pushout(k_as_c, rule.right_leg)
    assert isomorphic(H, rule.R)
    assert is_homomorphism(r_to_h)


def test_pushout_disjoint_interface_is_union():
    K = identity(0)
    A = interpret(Gen("f"), SIG)
    B = interpret(Gen("g"), SIG)
    ka = Homomorphism(K, A, {}, {}, {})
    kb = Homomorphism(K, B, {}, {}, {})
    H, _, _ = pushout(ka, kb)
    assert isomorphic(H, tensor(A, B))


def test_pushout_complement_of_figure():
    rule = copy_rule()
    G = figure_host()
    m = find_matchings(rule.L, G)[0]
    k_to_c, c_to_g = pushout_complement(rule.left_leg, m.embedding)
    C = k_to_c.dst
    assert validate(C) == []
    assert is_homomorphism(k_to_c) and is_homomorphism(c_to_g)
    real = [e for e in rule.L.edges if rule.L.labels[e] != IDENTITY_LABEL]
    assert len(C.edges) == len(G.edges) - len(real)
    # the two severed wires turned into interface wires
    assert len(C.inputs()) == len(G.inputs()) + len(rule.L.cod())
    assert len(C.outputs()) == len(G.outputs()) + len(rule.L.dom())


def test_edge_free_left_side_inserts_a_crossing():
    rule = rule_from_terms(Id(2), Swap(1, 1), CSIG, "cross")
    G = interpret(parse_term("copy", CSIG), CSIG)
    ms = find_matchings(rule.L, G)
    assert len(ms) == 6  # ordered pairs of distinct wires
    results = [apply_rewrite(G, rule, m) for m in ms]
    for r in results:
        assert validate(r, CSIG) == []
        assert r.dom() == G.dom() and r.cod() == G.cod()
    crossed = interpret(parse_term("copy ; swap 1 1", CSIG), CSIG)
    assert any(isomorphic(r, crossed) for r in results)


def test_pushout_complement_identity_leg_keeps_host():
    """When L is exactly the interface, nothing is deleted."""
    K = identity(2)
    ident = Homomorphism(K, K, {v: v for v in K.targets},
                         {v: v for v in K.sources}, {})
    G = figure_host()
    ms = find_matchings(K, G)
    assert ms
    k_to_c, _ = pushout_complement(ident, ms[0].embedding)
    assert k_to_c.dst == G


def test_pushout_complement_agrees_with_oracle(rng):
    cases = 0
    while cases < 12:
        L_term = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2),
                             depth=1, traces=False)
        L = interpret(L_term, SIG)
        if not L.edges:
            continue
        G = tensor(L, interpret(random_term(rng, SIG, 1, 1, depth=1,
                                            traces=False), SIG))
        if len(G.targets) > 6:
            continue
        rule = rule_from_terms(L_term, L_term, SIG, "probe")
        ms = find_matchings(rule.L, G)
        if not ms:
            continue
        cases += 1
        for m in ms[:2]:
            k_to_c, _ = pushout_complement(rule.left_leg, m.embedding)
            candidates = brute_force_complements(rule.left_leg, m.embedding)
            assert len(candidates) == 1
            assert candidates[0] == k_to_c.dst


def test_find_matchings_on_figure_is_unique():
    rule = copy_rule()
    assert len(find_matchings(rule.L, figure_host())) == 1


def test_find_matchings_empty_pattern():
    assert len(find_matchings(identity(0), figure_host())) == 1


def test_find_matchings_two_copies():
    L = interpret(Gen("f"), SIG)
    G = tensor(L, L)
    assert len(find_matchings(L, G)) == 2


def test_find_matchings_complete_vs_brute_force(rng):
    for _ in range(25):
        L = random_graph(rng, SIG, max_edges=2, max_extra_wires=1)
        G = random_graph(rng, SIG, max_edges=4, max_extra_wires=2)
        if len(G.targets) > 8 or len(G.edges) > 4:
            continue
        fast = find_matchings(L, G)
        slow = brute_force_matchings(L, G)
        fast_keys = {(tuple(sorted(m.embedding.vmap_t.items())),
                      tuple(sorted(m.embedding.emap.items())))
                     for m in fast}
        slow_keys = {(tuple(sorted(h.vmap_t.items())),
                      tuple(sorted(h.emap.items())))
                     for h in slow}
        assert fast_keys == slow_keys


def test_matchings_ignore_interface_status():
    # f;f inside a traced loop: the pattern's interface lands on ports
    L = interpret(Seq(Gen("f"), Gen("f")), SIG)
    from linhyp import trace
    G = trace(1, interpret(Seq(Seq(Gen("f"), Gen("f")), Gen("f")), SIG))
    assert len(find_matchings(L, G)) == 3  # around the loop


def test_apply_rewrite_figure_step():
    rule = copy_rule()
    G = figure_host()
    m = find_matchings(rule.L, G)[0]
    H = apply_rewrite(G, rule, m)
    expected = interpret(
        parse_term("tr 1 (join * (copy ; f * f) ; swap 1 2)", CSIG), CSIG)
    assert isomorphic(H, expected)
    assert validate(H, CSIG) == []
    assert H.dom() == G.dom() and H.cod() == G.cod()


def test_bare_wire_rule_fires_and_smooths():
    rule = rule_from_terms(Id(1), Gen("f"), CSIG, "grow")
    G = interpret(Gen("copy"), CSIG)
    ms = find_matchings(rule.L, G)
    assert len(ms) == 3
    results = [apply_rewrite(G, rule, m) for m in ms]
    expected = [interpret(parse_term(t, CSIG), CSIG)
                for t in ("f ; copy", "copy ; f * id 1", "copy ; id 1 * f")]
    for r in results:
        assert not any(r.labels[e] == IDENTITY_LABEL for e in r.edges)
        assert any(isomorphic(r, e) for e in expected)
    for e in expected:
        assert any(isomorphic(r, e) for r in results)


def test_term_graph_rewriting_parity(rng):
    done = 0
    while done < 20:
        l = random_term(rng, SIG, rng.randint(0, 2), rng.randint(0, 2),
                        depth=1, traces=False)
        rule = rule_from_terms(l, l, SIG, "pre")
        if not rule.L.edges or any(
                rule.L.labels[e] == IDENTITY_LABEL for e in rule.L.edges):
            continue  # patterns with straight-through wires match modulo
            # deeper homeomorphisms than the engine enumerates
        r = random_term(rng, SIG, len(type_of(l, SIG)[0]),
                        len(type_of(l, SIG)[1]), depth=1, traces=False)
        dom_l, cod_l = type_of(l, SIG)
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
        ms = find_matchings(rule.L, G, up_to_homeo=True)
        assert ms, "the subterm occurrence must be found"
        if any(isomorphic(apply_rewrite(G, rule, m), expected) for m in ms):
            done += 1
        else:
            pytest.fail("no matching reproduced the term-level rewrite")


def test_pattern_with_closed_identity_loop_rejected():
    from linhyp import identity
    loop, _ = trace_mono(1, identity(1))  # a lone identity edge in a cycle
    assert [loop.labels[e] for e in loop.edges] == [IDENTITY_LABEL]
    with pytest.raises(RewriteError):
        find_matchings(loop, interpret(Gen("f"), SIG))


def test_matching_through_a_loop_needs_homeomorphism():
    """The traced host merges the wire leaving the redex with the wire
    re-entering it; only an expanded host carries a strict embedding."""
    t = Trace(1, Gen("k"))  # k : 2 -> 1, output looped to first input
    G = interpret(t, SIG)
    rule = rule_from_terms(Gen("k"), Gen("k"), SIG, "noop")
    assert find_matchings(rule.L, G) == []
    ms = find_matchings(rule.L, G, up_to_homeo=True)
    assert len(ms) == 1
    assert ms[0].host is not G  # expanded on the loop
    assert ms[0].embedding.is_embedding()
    # rewriting k => k through the loop is the identity up to iso
    assert isomorphic(apply_rewrite(G, rule, ms[0]), G)


def test_normalize_empty_rules():
    G = figure_host()
    res = normalize(G, [])
    assert res.graph == G and res.steps == [] and not res.exhausted


def test_normalize_logs_and_budget():
    sig = CSIG
    rules = [rule_from_terms(parse_term("f ; f", sig), Gen("f"), sig,
                             "squash")]
    G = interpret(parse_term("f ; f ; f ; f", sig), sig)
    res = normalize(G, rules)
    assert not res.exhausted
    assert isomorphic(res.graph, interpret(Gen("f"), sig))
    assert [s.rule for s in res.steps] == ["squash"] * 3
    assert str(res.steps[0]).startswith("step 1: rule squash at edges [")

    res1 = normalize(G, rules, max_steps=1)
    assert res1.exhausted and len(res1.steps) == 1
    assert isomorphic(res1.graph, interpret(parse_term("f ; f ; f", sig), sig))


@pytest.mark.parametrize("budget,steps,exhausted",
                         [(0, 0, True), (1, 1, True), (2, 2, False),
                          (3, 2, False)])
def test_budget_is_exhausted_only_while_a_rule_matches(budget, steps,
                                                       exhausted):
    """``f ; f ; f`` takes two ``squash`` steps to its normal form ``f``,
    in the driver and in the list search alike."""
    rules = [rule_from_terms(parse_term("f ; f", CSIG), Gen("f"), CSIG,
                             "squash")]
    G = interpret(parse_term("f ; f ; f", CSIG), CSIG)
    for run in (normalize, normalize_by_enumeration):
        res = run(G, rules, max_steps=budget)
        assert (len(res.steps), res.exhausted) == (steps, exhausted)
        assert len(res.graph.edges) == 3 - steps
        assert not run(interpret(Gen("f"), CSIG), rules, 0).exhausted


def test_normalize_skips_empty_left_sides():
    noop = rule_from_terms(Id(0), Id(0), CSIG, "vacuous")
    G = interpret(Gen("f"), CSIG)
    res = normalize(G, [noop])
    assert res.graph == G and not res.exhausted


def test_exhaustive_unique_normal_form():
    sig = CSIG
    rules = [rule_from_terms(parse_term("f ; f", sig), Gen("f"), sig,
                             "squash")]
    G = interpret(parse_term("f ; f ; f", sig), sig)
    nfs, exhausted = normal_forms(G, rules)
    assert not exhausted and len(nfs) == 1
    assert isomorphic(nfs[0], interpret(Gen("f"), sig))


def test_parse_rules_file():
    text = """
    # structural rules
    squash : f ; f => f
    grow : id 1 => f
    """
    rules = parse_rules(text, CSIG)
    assert [r.name for r in rules] == ["squash", "grow"]
    assert rules[1].left_leg.is_embedding()
    assert parse_rules("copy-nat_2 : f ; copy => copy ; f * f", CSIG)


@pytest.mark.parametrize("text,error", [
    (": f ; f => f", "line 1: '' is not a rule name"),
    ("ok : f => f\na b : f => f", "line 2: 'a b' is not a rule name"),
    ("copy- : f => f", "line 1: 'copy-' is not a rule name"),
    ("x : f => f\n# x again\nx : f ; f => f",
     "line 3: duplicate rule name 'x'"),
], ids=["empty", "not-a-name", "dangling-hyphen", "duplicate"])
def test_parse_rules_rejects_bad_names(text, error):
    with pytest.raises(RewriteError) as err:
        parse_rules(text, CSIG)
    assert str(err.value).startswith(error)


@pytest.mark.parametrize("text,kind,error", [
    ("ok : f => f\nbad : f => copy", TypeMismatch,
     "line 2: rule sides must share a type"),
    ("ok : f => f\n\nbad : f => q", TypeMismatch,
     "line 3: unknown generator 'q'"),
    ("ok : f => f\nbad : f ; => f", ParseError,
     "line 2: unexpected end of input (at position 9)"),
    ("ok : f => f\n  bad :  f => f ; ", ParseError,
     "line 2: unexpected end of input (at position 17)"),
    ("bad : f => f ; ( # f", ParseError,
     "line 1: unexpected end of input (at position 16)"),
], ids=["type", "unknown-generator", "parse", "parse-indented",
        "parse-right-side"])
def test_parse_rules_names_the_line_of_term_errors(text, kind, error):
    """The error keeps its class, which sets the CLI's exit code, and a
    parse error gives its position in the line as written."""
    with pytest.raises(kind) as err:
        parse_rules(text, CSIG)
    assert str(err.value) == error


# ---------------------------------------------------------------------------
# The in-place step's errors against the pushouts', on hand-built spans
# ---------------------------------------------------------------------------

def _step_errors(rule, G):
    """The error ``normalize`` raises at its first step, and the one the
    pushout constructions raise at the same match."""
    with pytest.raises(RewriteError) as in_place:
        normalize(G, [rule])
    match = find_matchings(rule.L, G, up_to_homeo=True)[0]
    with pytest.raises(RewriteError) as pure:
        apply_by_pushouts(G, rule, match)
    return str(in_place.value), str(pure.value)


def _f_rule():
    """``f => f``, whose interface K is one input and one output wire:
    K's targets and sources are (input, output) in that order."""
    rule = rule_from_terms(Gen("f"), Gen("f"), CSIG, "f-f")
    assert len(rule.K.targets) == 2 and not rule.K.edges
    return rule


def _swapped_targets(leg):
    """``leg`` with the images of K's two targets exchanged: it no
    longer commutes with ``conn``."""
    k0, k1 = leg.src.targets
    return Homomorphism(leg.src, leg.dst,
                        {k0: leg.vmap_t[k1], k1: leg.vmap_t[k0]},
                        dict(leg.vmap_s), dict(leg.emap))


FF = interpret(parse_term("f ; f", CSIG), CSIG)


def _left_leg_swapped():
    rule = _f_rule()
    return dataclasses.replace(rule, left_leg=_swapped_targets(rule.left_leg))


def _edged_interface():
    L = interpret(Gen("f"), CSIG)
    same = Homomorphism(L, L, {v: v for v in L.targets},
                        {v: v for v in L.sources}, {e: e for e in L.edges})
    assert same.is_embedding()
    return dataclasses.replace(_f_rule(), K=L, L=L, R=L, left_leg=same,
                               right_leg=same)


def _right_leg_swapped():
    rule = _f_rule()
    return dataclasses.replace(rule,
                               right_leg=_swapped_targets(rule.right_leg))


def _incoherent_glue():
    """``f => f`` with a right leg that glues K's input wire onto f's
    output and K's output wire onto R's input: an embedding that
    attaches R at K's input target and output source, where L leaves
    the interface."""
    rule = _f_rule()
    R, K = rule.R, rule.K
    (t_in,), (s_out,) = R.inputs(), R.outputs()
    (e,) = R.edges
    k_in, k_out = K.targets
    glue = Homomorphism(K, R, {k_in: R.conn_inv()[s_out], k_out: t_in},
                        {K.conn[k_in]: s_out, K.conn[k_out]: R.conn[t_in]},
                        {})
    assert glue.is_embedding() and R.left[glue.vmap_t[k_in]] == e
    return dataclasses.replace(rule, right_leg=glue)


def test_left_leg_that_is_no_embedding_is_refused_at_every_match():
    assert _step_errors(_left_leg_swapped(), FF) == (
        "pushout complement needs embeddings",) * 2


def test_deleting_a_match_never_severs_a_wire():
    """A one-wire interface that keeps L's input vertex but not the
    source it feeds would sever that wire, but such a leg does not
    commute with ``conn``: both steps refuse the span before deleting
    anything."""
    rule = _f_rule()
    L, K = rule.L, identity(1)
    (t_in,), (s_out,) = L.inputs(), L.outputs()
    (k,) = K.targets
    severing = Homomorphism(K, L, {k: t_in}, {K.conn[k]: s_out}, {})
    assert L.conn[t_in] not in severing.vmap_s.values()
    assert not severing.is_embedding()
    rule = dataclasses.replace(rule, K=K, left_leg=severing)
    assert _step_errors(rule, FF) == (
        "pushout complement needs embeddings",) * 2


def test_interface_with_an_edge_is_refused_at_every_match():
    assert _step_errors(_edged_interface(), FF) == (
        "pushout interface must be edge-free",) * 2


def test_right_leg_that_is_no_embedding_is_refused_at_every_match():
    assert _step_errors(_right_leg_swapped(), FF) == (
        "pushout needs a span of embeddings",) * 2


@pytest.mark.parametrize("host,side,i", [("copy ; f * id 1", "targets", 0),
                                         ("f ; f", "sources", 1)],
                         ids=["target", "source"])
def test_incoherent_gluing_is_refused_where_the_host_is_attached(host, side,
                                                                  i):
    """The host refuses :func:`_incoherent_glue` where its own edge sits
    where R is attached too: before the match for the target, after it
    for the source (the first f of ``f ; f`` has a host input on its
    left)."""
    rule = _incoherent_glue()
    k = getattr(rule.K, side)[i]
    assert _step_errors(rule, interpret(parse_term(host, CSIG), CSIG)) == (
        f"not boundary coherent: interface vertex {k} is edge-attached on"
        " both sides",) * 2


# ---------------------------------------------------------------------------
# The one step engine against the pushout constructions
# ---------------------------------------------------------------------------

def _no_embedding_match(rule, G):
    """The first match of ``rule`` in G with two target images
    exchanged, when L has two targets that are both inputs."""
    m = find_matchings(rule.L, G, up_to_homeo=True)[0].embedding
    a, b = rule.L.inputs()[:2]
    vmap_t = {**m.vmap_t, a: m.vmap_t[b], b: m.vmap_t[a]}
    return Matching(Homomorphism(m.src, m.dst, vmap_t, m.vmap_s, m.emap),
                    m.dst)


def test_apply_rewrite_matches_the_pushouts():
    """:func:`apply_rewrite` steps on a copy of the in-place host; the
    pushout constructions give the same graph, element by element in
    stored order, at every match on the driver's hosts, and raise the
    same error on the hand-built spans and at a match that is no
    embedding."""
    rng = random.Random(5)
    matches = 0
    for _ in range(40):
        G = _host(rng)
        for rule in RULES:
            for m in find_matchings(rule.L, G, up_to_homeo=True):
                assert _numbered(apply_rewrite(G, rule, m)) == _numbered(
                    apply_by_pushouts(G, rule, m))
                matches += 1
    assert matches > 300
    spans = [(make(), FF) for make in (
        _left_leg_swapped, _edged_interface, _right_leg_swapped)]
    spans += [(_incoherent_glue(), interpret(parse_term(host, CSIG), CSIG))
              for host in ("copy ; f * id 1", "f ; f")]
    cases = [(rule, G, find_matchings(rule.L, G, up_to_homeo=True)[0])
             for rule, G in spans]
    join = rule_from_terms(Gen("join"), Gen("join"), CSIG, "join")
    J = interpret(Gen("join"), CSIG)
    cases.append((join, J, _no_embedding_match(join, J)))
    for rule, G, match in cases:
        errors = []
        for step in (apply_rewrite, apply_by_pushouts):
            with pytest.raises(RewriteError) as err:
                step(G, rule, match)
            errors.append(str(err.value))
        assert errors[0] == errors[1]


def test_normal_forms_matches_the_pushouts():
    """:func:`normal_forms` against the list search that builds every
    step with the pushout constructions: the same normal forms, as
    canonical files in the same order, and the same ``exhausted`` flag,
    on the driver's hosts and on circuits under the evaluator's
    rules."""
    rng = random.Random(5)
    cases = [(_host(rng), RULES) for _ in range(15)]
    for csig in (two_point_sig(), belnap_sig()):
        cases += [(G, eval_rules(csig)) for G in _circuits(csig, rng, 5)]
    flags = []
    for G, rules in cases:
        got, got_exhausted = normal_forms(G, rules, max_states=12)
        want, want_exhausted = normal_forms_by_pushouts(G, rules,
                                                        max_states=12)
        assert [save_graph(H) for H in got] == [save_graph(H) for H in want]
        assert got_exhausted == want_exhausted
        flags.append(got_exhausted)
    assert True in flags and False in flags


@pytest.mark.parametrize("engine", ["apply_rewrite", "normalize"])
@pytest.mark.parametrize("in_context", [False, True],
                         ids=["bare", "in-context"])
@pytest.mark.parametrize("lhs,rhs,context", [
    ("f ; g", "g ; id 1 * f", "u ; _ ; k"),
    ("k ; f", "id 1 * f ; k", "u * u ; _ ; z"),
    ("f ; g", "g ; f * id 1", "u ; _ ; k"),
    ("k ; f", "f * id 1 ; k", "u * u ; _ ; z"),
], ids=["g-then-id-f", "id-f-then-k", "g-then-f-id", "f-id-then-k"])
def test_one_step_on_c_of_l_gives_c_of_r(lhs, rhs, context, in_context,
                                          engine):
    """One step of ``lhs => rhs`` on the left side, bare or in a context
    C (``_`` in ``context``), gives C[rhs] up to isomorphism: the
    soundness of string-diagram rewriting.  The right sides put f beside
    a wire that survives the step, on either side of it."""
    sig = law_signature()

    def plug(side):
        return context.replace("_", f"({side})") if in_context else side

    rule = rule_from_terms(parse_term(lhs, sig), parse_term(rhs, sig), sig,
                           "law")
    G = interpret(parse_term(plug(lhs), sig), sig)
    if engine == "normalize":
        res = normalize(G, [rule], max_steps=1)
        assert len(res.steps) == 1
        H = res.graph
    else:
        (match,) = find_matchings(rule.L, G, up_to_homeo=True)
        H = apply_rewrite(G, rule, match)
    assert isomorphic(H, interpret(parse_term(plug(rhs), sig), sig))


def test_one_step_on_a_lone_left_side_gives_its_right_side():
    """Soundness of string-diagram rewriting on random rules: on a host
    that is the left side alone and has one match, one step gives the
    right side up to isomorphism.  Each edge of R keeps R's port words
    (Bonchi et al., "String diagram rewrite theory I", 2022), which a
    step that orders a glued edge's ports by the host's stored order
    breaks in about one step in twenty here."""
    sig = law_signature()
    rng = random.Random(7)
    steps = 0
    for _ in range(1000):
        m, n = rng.randint(0, 2), rng.randint(0, 2)
        lhs = random_term(rng, sig, m, n, depth=2, traces=False)
        rhs = random_term(rng, sig, m, n, depth=3, traces=True)
        rule = rule_from_terms(lhs, rhs, sig, "probe")
        if not rule.L.edges:
            continue
        G = interpret(lhs, sig)
        matches = find_matchings(rule.L, G, up_to_homeo=True)
        if len(matches) != 1:
            continue
        want = interpret(rhs, sig)
        assert isomorphic(apply_rewrite(G, rule, matches[0]), want)
        res = normalize(G, [rule], max_steps=1)
        assert len(res.steps) == 1 and isomorphic(res.graph, want)
        steps += 1
    assert steps > 500


def test_frozen_hosts_have_the_tables_of_their_graphs(monkeypatch):
    """The graph a host freezes to after each in-place step, and each
    graph :func:`apply_rewrite` returns, has in its view the port
    tables, port index and ``conn`` inverse an edge-by-edge derivation
    gives."""
    from linhyp import rewrite

    checked = []
    real = rewrite._Host.rewrite

    def checking(self, *args):
        real(self, *args)
        H = self.freeze()  # shares the host's tables: checked at once
        assert view_tables(H) == tables_from_scratch(H)
        checked.append(H)

    monkeypatch.setattr(rewrite._Host, "rewrite", checking)
    rng = random.Random(3)
    for _ in range(10):
        normalize(_host(rng), RULES)
    for G in _circuits(two_point_sig(), rng, 5):
        normalize(G, eval_rules(two_point_sig()), max_steps=40)
    assert len(checked) > 50
    monkeypatch.undo()
    for G in [_host(rng) for _ in range(5)]:
        for rule in RULES:
            for m in find_matchings(rule.L, G, up_to_homeo=True):
                H = apply_rewrite(G, rule, m)
                assert view_tables(H) == tables_from_scratch(H)
