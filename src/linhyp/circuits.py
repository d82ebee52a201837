"""Digital circuits as a rewrite system over a value lattice.

Circuits are terms over a signature of value constants (0 -> 1), monotone
gates (m -> 1) and the wire bookkeeping morphisms fork, join, stub and
delay.  Gate behaviour is a finite truth table, so every axiom
instantiates to finitely many rewrite rules.
"""
from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

from .graphs import INTERFACE, LinearHypergraph, _Host, canonical_labelling
from .interp import _build
from .rewrite import RewriteRule, RuleSet, _reduce, rule_from_terms
from .terms import (_RESERVED_NAMES, Gen, Id, Seq, Signature, Swap, Tensor,
                    Term, _check_name, _read_count, _read_lines,
                    signature, tensor_all)

FORK, JOIN, STUB, DELAY = "fork", "join", "stub", "delay"
#: The wiring generators' names, which no value or gate may take.
_WIRING_NAMES = frozenset({FORK, JOIN, STUB, DELAY})
_RESERVED = _RESERVED_NAMES | _WIRING_NAMES  # names no value or gate may take


class _Unproductive:
    def __repr__(self) -> str:
        return "UNPRODUCTIVE"

    def __bool__(self) -> bool:
        return False


#: Returned when reduction does not converge within its budget.
UNPRODUCTIVE = _Unproductive()


class LatticeError(Exception):
    """A refused lattice or gate table.  ``reads`` lists what the failed
    check read: join-table keys, gate names, or ``"values:"`` or
    ``"bottom:"`` for a declaration, so that a parser can name the line
    of the first of them."""

    def __init__(self, message: str, reads: tuple = ()) -> None:
        super().__init__(message)
        self.reads = reads


@dataclass(frozen=True)
class ValueLattice:
    """A finite join-semilattice of wire values with a bottom element."""

    values: tuple[str, ...]
    bottom: str
    join_table: dict[tuple[str, str], str]

    def __post_init__(self) -> None:
        vals = self.values
        for i, a in enumerate(vals):
            if a in vals[:i]:
                raise LatticeError(f"duplicate value {a!r}", ("values:",))
        if self.bottom not in vals:
            raise LatticeError(f"bottom {self.bottom!r} is not a value",
                               ("bottom:",))
        for a, b in itertools.product(vals, vals):
            if (a, b) not in self.join_table:
                raise LatticeError(f"join undefined on ({a}, {b})")
            if self.join_table[(a, b)] not in vals:
                raise LatticeError(f"join({a}, {b}) is not a value")
        for a, b in self.join_table:
            if a not in vals or b not in vals:
                raise LatticeError(f"join defined on ({a}, {b}), which are"
                                   " not both values")
        join = self.join
        for a in vals:
            if join(a, a) != a:
                raise LatticeError(f"join not idempotent at {a}", ((a, a),))
            if join(self.bottom, a) != a:
                raise LatticeError(f"bottom is not a unit at {a}",
                                   ((self.bottom, a),))
            for b in vals:
                if join(a, b) != join(b, a):
                    raise LatticeError(f"join not commutative at ({a}, {b})",
                                       ((a, b), (b, a)))
                for c in vals:
                    ab, bc = join(a, b), join(b, c)
                    if join(ab, c) != join(a, bc):
                        raise LatticeError(
                            f"join not associative at ({a}, {b}, {c})",
                            ((a, b), (ab, c), (b, c), (a, bc)))

    def join(self, a: str, b: str) -> str:
        return self.join_table[(a, b)]

    def leq(self, a: str, b: str) -> bool:
        return self.join(a, b) == b


def lattice_from_join(values: list[str], bottom: str, join) -> ValueLattice:
    vals = tuple(values)
    table = {(a, b): join(a, b) for a in vals for b in vals}
    return ValueLattice(vals, bottom, table)


def two_point() -> ValueLattice:
    """{bot, top} ordered bot < top."""
    return lattice_from_join(
        ["bot", "top"], "bot",
        lambda a, b: "top" if "top" in (a, b) else "bot")


def belnap() -> ValueLattice:
    """Four truth values ordered by information: bot < tt, ff < top."""
    def join(a: str, b: str) -> str:
        if a == "bot":
            return b
        if b == "bot":
            return a
        return a if a == b else "top"
    return lattice_from_join(["bot", "tt", "ff", "top"], "bot", join)


@dataclass(frozen=True)
class Gate:
    name: str
    arity: int
    table: dict[tuple[str, ...], str]


@dataclass(frozen=True)
class CircuitSignature:
    lattice: ValueLattice
    gates: dict[str, Gate]

    def __post_init__(self) -> None:
        names = set(self.lattice.values) | set(self.gates)
        if len(names) != len(self.lattice.values) + len(self.gates):
            raise LatticeError("value and gate names overlap", tuple(
                g for g in self.gates if g in self.lattice.values))
        if names & _WIRING_NAMES:
            raise LatticeError(
                f"names {sorted(names & _WIRING_NAMES)} are reserved")
        for gate in self.gates.values():
            self._check_monotone(gate)

    def _check_monotone(self, gate: Gate) -> None:
        lat = self.lattice
        # walked lazily: a table short of a row fails before all are built
        for row in itertools.product(lat.values, repeat=gate.arity):
            if row not in gate.table or gate.table[row] not in lat.values:
                raise LatticeError(f"gate {gate.name}: bad row {row}",
                                   (gate.name,))
        rows = list(itertools.product(lat.values, repeat=gate.arity))
        known = set(rows)
        for row in gate.table:
            if row not in known:
                raise LatticeError(f"gate {gate.name}: row {row} is not a"
                                   " row of values", (gate.name,))
        for lo, hi in itertools.product(rows, rows):
            if all(lat.leq(a, b) for a, b in zip(lo, hi)):
                if not lat.leq(gate.table[lo], gate.table[hi]):
                    raise LatticeError(
                        f"gate {gate.name} is not monotone: {lo} -> "
                        f"{gate.table[lo]} but {hi} -> {gate.table[hi]}",
                        (gate.name,))

    def signature(self) -> Signature:
        """The term signature of the circuits: values, gates and the
        wiring generators; built once."""
        return self._signature

    @cached_property
    def _signature(self) -> Signature:
        gens: dict[str, tuple[int, int]] = {v: (0, 1) for v in self.lattice.values}
        gens.update({g.name: (g.arity, 1) for g in self.gates.values()})
        gens.update({FORK: (1, 2), JOIN: (2, 1), STUB: (1, 0), DELAY: (1, 1)})
        return signature(gens)

    @cached_property
    def _eval_rules(self) -> RuleSet:
        # compiled on first use, not at parse time: a parsed signature
        # that never evaluates pays nothing
        return RuleSet(_circuit_rules(self, axioms=False)
                       + _cartesian_rules(self, units=False))


# ---------------------------------------------------------------------------
# Derived wiring terms
# ---------------------------------------------------------------------------

def copy_term(n: int) -> Term:
    """``n`` wires duplicated into two aligned buses, built from forks."""
    if n == 0:
        return Id(0)
    if n == 1:
        return Gen(FORK)
    rest = copy_term(n - 1)
    return Seq(Tensor(Gen(FORK), rest),
               Tensor(Tensor(Id(1), Swap(1, n - 1)), Id(n - 1)))


def delete_term(n: int) -> Term:
    return tensor_all([Gen(STUB)] * n)


def _interleave(n: int) -> Term:
    # [a_0..a_{n-1}, b_0..b_{n-1}]  ->  [a_0, b_0, a_1, b_1, ...]
    if n <= 1:
        return Id(2 * n)
    return Seq(Tensor(Tensor(Id(1), Swap(n - 1, 1)), Id(n - 1)),
               Tensor(Id(2), _interleave(n - 1)))


def merge_term(n: int) -> Term:
    """Pointwise join of two ``n``-buses."""
    if n == 0:
        return Id(0)
    return Seq(_interleave(n), tensor_all([Gen(JOIN)] * n))


def value_row(values: tuple[str, ...] | list[str]) -> Term:
    return tensor_all([Gen(v) for v in values])


# ---------------------------------------------------------------------------
# Rule families
# ---------------------------------------------------------------------------

def cartesian_rules(csig: CircuitSignature) -> list[RewriteRule]:
    """Copy/delete structure at wire level, oriented left to right.

    Naturality is instantiated per generator of the circuit signature
    (gates, join, delay); the bookkeeping rows are single instances.
    """
    return _cartesian_rules(csig, units=True)


def _cartesian_rules(csig: CircuitSignature,
                     units: bool) -> list[RewriteRule]:
    """:func:`cartesian_rules`, less ``copy-unit`` and ``del-unit``
    unless ``units``: their left side is empty."""
    sig = csig.signature()
    rules: list[RewriteRule] = []
    natural = [(g.name, g.arity) for g in csig.gates.values()]
    natural.append((JOIN, 2))
    natural.append((DELAY, 1))
    for name, m in natural:
        rules.append(rule_from_terms(
            Seq(Gen(name), Gen(FORK)),
            Seq(copy_term(m), Tensor(Gen(name), Gen(name))),
            sig, f"copy-nat-{name}"))
        rules.append(rule_from_terms(
            Seq(Gen(name), Gen(STUB)), delete_term(m),
            sig, f"del-nat-{name}"))
    rules.append(rule_from_terms(
        Seq(Gen(FORK), Tensor(Gen(FORK), Id(1))),
        Seq(Gen(FORK), Tensor(Id(1), Gen(FORK))),
        sig, "coassoc"))
    rules.append(rule_from_terms(
        Seq(Gen(FORK), Tensor(Gen(STUB), Id(1))), Id(1), sig, "counit-l"))
    rules.append(rule_from_terms(
        Seq(Gen(FORK), Tensor(Id(1), Gen(STUB))), Id(1), sig, "counit-r"))
    rules.append(rule_from_terms(
        Seq(Gen(FORK), Swap(1, 1)), Gen(FORK), sig, "cocomm"))
    if units:
        rules.append(rule_from_terms(Id(0), Id(0), sig, "copy-unit"))
    rules.append(rule_from_terms(
        Seq(copy_term(2), Tensor(Tensor(Id(1), Swap(1, 1)), Id(1))),
        Tensor(Gen(FORK), Gen(FORK)),
        sig, "copy-coherence"))
    if units:
        rules.append(rule_from_terms(Id(0), Id(0), sig, "del-unit"))
    rules.append(rule_from_terms(
        delete_term(2), Tensor(Gen(STUB), Gen(STUB)), sig, "del-coherence"))
    return rules


def circuit_rules(csig: CircuitSignature) -> list[RewriteRule]:
    """Value, gate, delay and garbage-collection rules, one instance per
    value combination."""
    return _circuit_rules(csig, axioms=True)


def _circuit_rules(csig: CircuitSignature,
                   axioms: bool) -> list[RewriteRule]:
    """:func:`circuit_rules`, less the delay-gate commutations and the
    streaming instances unless ``axioms``."""
    sig = csig.signature()
    lat = csig.lattice
    rules: list[RewriteRule] = []
    for v in lat.values:
        rules.append(rule_from_terms(
            Seq(Gen(v), Gen(FORK)), Tensor(Gen(v), Gen(v)),
            sig, f"fork-{v}"))
    for v, w in itertools.product(lat.values, lat.values):
        rules.append(rule_from_terms(
            Seq(Tensor(Gen(v), Gen(w)), Gen(JOIN)), Gen(lat.join(v, w)),
            sig, f"join-{v}-{w}"))
    for v in lat.values:
        rules.append(rule_from_terms(
            Seq(Gen(v), Gen(STUB)), Id(0), sig, f"stub-{v}"))
    for gate in csig.gates.values():
        for row in itertools.product(lat.values, repeat=gate.arity):
            rules.append(rule_from_terms(
                Seq(value_row(row), Gen(gate.name)), Gen(gate.table[row]),
                sig, f"{gate.name}-" + "-".join(row)))
    rules.append(rule_from_terms(
        Seq(Gen(lat.bottom), Gen(DELAY)), Gen(lat.bottom), sig, "delay-bot"))
    rules.append(rule_from_terms(
        Seq(Gen(DELAY), Gen(STUB)), Gen(STUB), sig, "delay-stub"))
    for gate in csig.gates.values():
        if axioms:
            delays = tensor_all([Gen(DELAY)] * gate.arity)
            rules.append(rule_from_terms(
                Seq(delays, Gen(gate.name)), Seq(Gen(gate.name), Gen(DELAY)),
                sig, f"delay-{gate.name}"))
            for row in itertools.product(lat.values, repeat=gate.arity):
                lhs = Seq(Seq(Tensor(delays, value_row(row)),
                              merge_term(gate.arity)), Gen(gate.name))
                rhs = Seq(Tensor(Seq(delays, Gen(gate.name)),
                                 Seq(value_row(row), Gen(gate.name))),
                          Gen(JOIN))
                rules.append(rule_from_terms(
                    lhs, rhs, sig, f"stream-{gate.name}-" + "-".join(row)))
        rules.append(rule_from_terms(
            Seq(Gen(gate.name), Gen(STUB)), delete_term(gate.arity),
            sig, f"gc-{gate.name}"))
    rules.append(rule_from_terms(
        Seq(Gen(JOIN), Gen(STUB)), Tensor(Gen(STUB), Gen(STUB)),
        sig, "gc-join"))
    return rules


def eval_rules(csig: CircuitSignature) -> RuleSet:
    """The value-pushing subset used by the evaluator, ordered so value
    reduction always wins over structural rules.

    Streaming and delay-gate commutation instances are axiom-level
    equalities, not reduction steps, so they stay out; rules with an
    empty left side match vacuously and stay out too.  Neither is
    compiled.  The rules are compiled on the first call for ``csig`` and
    kept on it as one :class:`~linhyp.rewrite.RuleSet`, a tuple.
    """
    return csig._eval_rules


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def read_value_word(H: LinearHypergraph | _Host, csig: CircuitSignature,
                    outputs: Sequence[int] | None = None
                    ) -> tuple[str, ...] | None:
    """The values feeding the given output vertices of a fully reduced
    graph, or of a :class:`~linhyp.graphs._Host` (by default all the
    graph's outputs, in order), or None when one is not fed a value."""
    srcs, conn_inv = H.srcs, H.inv
    out: list[str] = []
    for s in H.outputs() if outputs is None else outputs:
        e = H.left[conn_inv[s]]
        if e is INTERFACE:
            return None
        lab = H.labels[e]
        if lab not in csig.lattice.values or srcs[e]:
            return None
        out.append(lab)
    return tuple(out)


def feedback_wires(H: LinearHypergraph | _Host) -> list[int]:
    """The wires that close a cycle in a depth-first walk over H's edges,
    each named by its producer end (a target vertex).

    The walk follows wires from producer to consumer edge and takes its
    roots in ``canonical_labelling`` order, so isomorphic graphs get
    corresponding wires.  Every cycle of H meets the set, and a loop-free
    H has none.  A depth-first walk closes a cycle, whatever its roots,
    exactly when H has one, so the walk runs first with its roots in the
    order of H's ``labels``, and only an H whose first walk cuts a wire
    is labelled and walked again.  H may be a
    :class:`~linhyp.graphs._Host`: it is walked in place, and frozen
    into its graph, which holds its tables, only to be labelled.
    """
    tgts, right, conn = H.tgts, H.right, H.conn

    def walk(roots) -> list[int]:
        done: set[int] = set()
        cut: list[int] = []
        for root in roots:
            if root in done:
                continue
            on_path = {root}
            stack = [(root, iter(tgts[root]))]
            while stack:
                e, ports = stack[-1]
                for t in ports:
                    d = right[conn[t]]
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

    if not walk(H.labels):
        return []
    return walk(canonical_labelling(
        H.freeze() if isinstance(H, _Host) else H)[2])


def evaluate(circuit: Term | LinearHypergraph,
             inputs: tuple[str, ...] | list[str],
             csig: CircuitSignature,
             max_steps: int = 10000):
    """Run a circuit on concrete input values by graph reduction.

    Feedback is handled by unfolding on the graph.  The circuit is held
    in one :class:`~linhyp.graphs._Host`: a term is built there as
    :func:`~linhyp.interp.interpret` builds it, its edge indexes filled
    by :meth:`~linhyp.graphs._Host.index`, and a graph is copied there.
    Its :func:`feedback_wires` are found before anything is cut.  Each
    input's wire is then cut once, with the input's value edge
    (:meth:`~linhyp.graphs._Host.cut`), and the bare end plugged away.
    Each round works in a copy of that host, and the last round the
    bound allows in the host itself.  It cuts each feedback wire with a
    value edge for the round's value, its producer end an extra output;
    the driver of :func:`~linhyp.rewrite.normalize` reduces the round's
    host in place, and the round reads the cut outputs and the circuit
    outputs off it.  The cut values start at bottom and are iterated
    until they repeat; for monotone gates that is the least fixed point,
    reached within height(lattice) * |feedback wires| + 1 rounds, and
    the rounds are bounded by (|values| - 1) * |feedback wires| + 1, at
    least that.  ``max_steps`` bounds each round.  A loop-free circuit's
    one round is the last allowed, so it is reduced in the circuit's
    host, with no copy and no freeze; the host is frozen once, only to
    be labelled, when the circuit has a feedback wire.
    Returns the output value word, or UNPRODUCTIVE when a round's step
    budget or the round bound runs out or reduction gets stuck (delays
    holding non-bottom values do that).
    """
    if isinstance(circuit, Term):
        H = _build(circuit, csig.signature())
        H.index()
    else:
        H = _Host(circuit)
    ins, outs = H.inputs(), H.outputs()
    inputs = tuple(inputs)
    if len(inputs) != len(ins):
        raise ValueError(f"circuit takes {len(ins)} inputs, got {len(inputs)}")
    bad = [v for v in inputs if v not in csig.lattice.values]
    if bad:
        raise ValueError(f"unknown values {bad}")

    cut = feedback_wires(H)
    H.plug([H.cut(t, v)[0] for t, v in zip(ins, inputs)], ins)
    k = len(cut)
    rules = eval_rules(csig)
    w = (csig.lattice.bottom,) * k
    rounds = (len(csig.lattice.values) - 1) * k + 1
    for i in range(rounds):
        h = H if i == rounds - 1 else _Host(H)
        read = [h.cut(t, v)[0] for t, v in zip(cut, w)] + list(outs)
        if _reduce(h, rules, max_steps)[1]:
            return UNPRODUCTIVE
        vals = read_value_word(h, csig, read)
        if vals is None:
            return UNPRODUCTIVE
        w_next, out_vals = vals[:k], vals[k:]
        if w_next == w:
            return out_vals
        w = w_next
    return UNPRODUCTIVE


# ---------------------------------------------------------------------------
# Lattice description files
# ---------------------------------------------------------------------------

def parse_circuit_signature(text: str) -> CircuitSignature:
    """Parse a lattice/gate description.

    Lines: ``values: v ...``, ``bottom: v``, ``join: a b -> c`` rows, and
    ``gate NAME arity N: v ... -> v`` truth-table rows.  A second
    ``values:`` or ``bottom:`` line, a row given twice, a value or gate
    name that no term can spell, or a row over a name outside
    ``values:``, is refused, naming its line.  So is a value listed
    twice or a bottom that is not a value, naming the declaration's
    line, a join table that breaks a law, naming the first join row in
    the file that the failed law reads, and a gate table that lacks a
    row or is not monotone, or a gate named like a value, naming the
    gate's first row.
    """
    decls: dict[str, str] = {}  # the values: and bottom: lines' bodies
    join_rows: dict[tuple[str, str], str] = {}
    gate_rows: dict[str, tuple[int, dict[tuple[str, ...], str]]] = {}
    # per line: its number, what it gives (a join row, a gate, or "values:"
    # or "bottom:", which no gate name spells), and a row's values
    read_at: list[tuple[int, tuple[str, str] | str, str, tuple[str, ...]]] = []

    def read(lineno: int, line: str) -> None:
        line = line.strip()
        head, colon, body = line.partition(":")
        if colon and head in ("values", "bottom"):
            if head in decls:
                raise LatticeError(f"{head}: given twice")
            if head == "values":
                for value in body.split():
                    _check_name(value, "value", LatticeError, _RESERVED)
            decls[head] = body
            read_at.append((lineno, head + ":", "", ()))
        elif colon and head == "join":
            try:
                args, res = body.split("->")
                a, b = args.split()
            except ValueError:
                raise LatticeError("bad join row")
            if (a, b) in join_rows:
                raise LatticeError(f"join {a} {b} given twice")
            join_rows[(a, b)] = res = res.strip()
            read_at.append((lineno, (a, b), "join row", (a, b, res)))
        elif head.startswith("gate "):
            parts = head.split()
            if (not colon or len(parts) != 4 or parts[2] != "arity"
                    or not parts[3].isdecimal()):
                raise LatticeError("expected 'gate NAME arity N: row'")
            name = _check_name(parts[1], "gate", LatticeError, _RESERVED)
            arity = _read_count(parts[3], LatticeError)
            try:
                args, res = body.split("->")
                row = tuple(args.split())
            except ValueError:
                raise LatticeError("bad gate row")
            if len(row) != arity:
                raise LatticeError("row arity mismatch")
            known, table = gate_rows.setdefault(name, (arity, {}))
            if known != arity:
                raise LatticeError(f"gate {name} arity changed")
            if row in table:
                raise LatticeError(f"gate {name} row {' '.join(row)} given"
                                   " twice")
            table[row] = res = res.strip()
            read_at.append((lineno, name, f"gate {name} row", (*row, res)))
        else:
            raise LatticeError(f"unrecognised line {line!r}")

    _read_lines(text, read, LatticeError)
    values, bottom = decls.get("values", "").split(), decls.get("bottom")
    if not values or bottom is None:
        raise LatticeError("missing values: or bottom: declaration")
    for lineno, _, what, row in read_at:
        for value in row:
            if value not in values:
                raise LatticeError(f"line {lineno}: {what} uses {value!r},"
                                   " which is not a value")
    try:
        lattice = ValueLattice(tuple(values), bottom.strip(), join_rows)
        return CircuitSignature(lattice, {
            name: Gate(name, arity, table)
            for name, (arity, table) in gate_rows.items()})
    except LatticeError as exc:
        lines = [n for n, given, _, _ in read_at if given in exc.reads]
        if not lines:
            raise
        raise LatticeError(f"line {min(lines)}: {exc}") from None
