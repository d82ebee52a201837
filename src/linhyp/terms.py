"""Terms of a freely generated traced monoidal theory.

A term is a syntax tree built from named generators, identities, wire
swaps, sequential composition, tensor and trace.  Objects are *words*:
tuples of object labels.  A plain arity ``n`` is the word made of ``n``
anonymous labels, so numeric wire counts and labelled wires share one
code path.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import chain

Word = tuple[str, ...]

#: Object label used for unlabelled wires.  Reserved: user signatures may
#: not declare it as an object.
ANON = "_"


def word(n: int) -> Word:
    """The word of ``n`` anonymous wires."""
    if n < 0:
        raise ValueError(f"negative arity {n}")
    return (ANON,) * n


def as_word(w: int | str | Word) -> Word:
    """Coerce an int (wire count), label or tuple of labels to a word; a
    word that is already a tuple is returned as it is."""
    if type(w) is tuple:
        return w
    if isinstance(w, int):
        return word(w)
    if isinstance(w, str):
        return (w,)
    return tuple(w)


def render_word(w: Word) -> str:
    """Inverse of the DSL word syntax: ``3`` or ``[A,B,C]``."""
    if all(x == ANON for x in w):
        return str(len(w))
    return "[" + ",".join(w) + "]"


class TermError(Exception):
    """Base class for term-level failures."""


class ParseError(TermError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class TypeMismatch(TermError):
    def __init__(self, message: str, subterm: "Term | None" = None):
        super().__init__(message)
        self.subterm = subterm


class SignatureError(TermError):
    pass


@dataclass(frozen=True)
class Signature:
    """Generator names with domain and codomain words.

    ``objects`` lists the declared object labels.  For plain arity-based
    signatures it is just ``{ANON}``.
    """

    generators: dict[str, tuple[Word, Word]]
    objects: frozenset[str] = frozenset({ANON})

    def __post_init__(self) -> None:
        objects = set(self.objects) | {ANON}
        for name, (dom, cod) in self.generators.items():
            if name in _RESERVED_NAMES:
                raise SignatureError(f"generator name {name!r} is reserved")
            for label in (*dom, *cod):
                if label not in objects:
                    raise SignatureError(
                        f"generator {name!r} uses undeclared object {label!r}"
                    )
        object.__setattr__(self, "objects", frozenset(objects))

    def dom(self, name: str) -> Word:
        return self.generators[name][0]

    def cod(self, name: str) -> Word:
        return self.generators[name][1]

    def __contains__(self, name: str) -> bool:
        return name in self.generators


def signature(gens: dict[str, tuple[int | str | Word, int | str | Word]],
              objects: set[str] | None = None) -> Signature:
    """Convenience builder accepting ints and label strings for words."""
    norm = {n: (as_word(d), as_word(c)) for n, (d, c) in gens.items()}
    objs = set(objects) if objects is not None else set()
    for d, c in norm.values():
        objs.update(d)
        objs.update(c)
    return Signature(norm, frozenset(objs | {ANON}))


class Term:
    """Base class; subclasses form the syntax tree."""

    __slots__ = ()

    def __repr__(self) -> str:
        return f"<{render_term(self)}>"

    # Structural equality and hashing walk the tree with an explicit
    # stack, so arbitrarily deep terms compare; the dataclass defaults
    # recurse once per level.  Subclasses are declared with ``eq=False``
    # so that these two stay in force.

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        todo = [(self, other)]
        while todo:
            a, b = todo.pop()
            if a is b:
                continue
            k = type(a)
            if k is not type(b):
                return False
            if k is Seq:
                todo += ((a.right, b.right), (a.left, b.left))
            elif k is Tensor:
                todo += ((a.bottom, b.bottom), (a.top, b.top))
            elif k is Trace:
                if a.loop != b.loop:
                    return False
                todo.append((a.body, b.body))
            elif vars(a) != vars(b):  # Gen, Id, Swap: no subterms
                return False
        return True

    def __hash__(self) -> int:
        # the node classes and leaf fields in pre-order fix the tree
        parts: list = []
        todo: list[Term] = [self]
        while todo:
            u = todo.pop()
            k = type(u)
            parts.append(k)
            if k is Seq:
                todo += (u.right, u.left)
            elif k is Tensor:
                todo += (u.bottom, u.top)
            elif k is Trace:
                parts.append(u.loop)
                todo.append(u.body)
            else:
                parts += vars(u).values()
        return hash(tuple(parts))


@dataclass(frozen=True, repr=False, eq=False)
class Gen(Term):
    name: str


@dataclass(frozen=True, repr=False, eq=False)
class Id(Term):
    word: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "word", as_word(self.word))


@dataclass(frozen=True, repr=False, eq=False)
class Swap(Term):
    upper: Word
    lower: Word

    def __post_init__(self) -> None:
        object.__setattr__(self, "upper", as_word(self.upper))
        object.__setattr__(self, "lower", as_word(self.lower))


@dataclass(frozen=True, repr=False, eq=False)
class Seq(Term):
    left: Term
    right: Term


@dataclass(frozen=True, repr=False, eq=False)
class Tensor(Term):
    top: Term
    bottom: Term


@dataclass(frozen=True, repr=False, eq=False)
class Trace(Term):
    loop: Word
    body: Term

    def __post_init__(self) -> None:
        object.__setattr__(self, "loop", as_word(self.loop))


def tensor_all(parts: Sequence[Term]) -> Term:
    """The left-nested tensor ``((p0 * p1) * p2) * ...`` of ``parts``;
    ``Id(())`` when there are none."""
    return reduce(Tensor, parts) if parts else Id(())


# "@id" is the label graphs use for invisible identity edges
_RESERVED_NAMES = frozenset({"id", "swap", "tr", "@id"})


# marks the end of a composite node's children on an explicit stack
_DONE = object()
# marks the end of a tensor tree's operands; their number lies below it
_JOIN = object()


def type_of(t: Term, sig: Signature) -> tuple[Word, Word]:
    """Domain and codomain words of ``t``, raising on ill-typed nodes.

    One iterative post-order pass, so the term may be arbitrarily deep;
    subterms are checked left to right, as a recursive walk would.
    Dispatch is on the exact node class; ``isinstance`` chains make the
    loop about a third slower on small terms.  A tree of tensors is typed
    as one join of its operands' words, so a wide tensor takes linear
    time; a tensor of two non-tensors, the common case, concatenates
    their words directly, which is cheaper.
    """
    values: list[tuple[Word, Word]] = []  # types of finished subterms
    todo: list = [t]
    while todo:
        u = todo.pop()
        k = type(u)
        if u is _JOIN:
            n = todo.pop()
            parts = values[-n:]
            del values[-n:]
            values.append((tuple(chain.from_iterable([d for d, _ in parts])),
                           tuple(chain.from_iterable([c for _, c in parts]))))
        elif u is _DONE:
            u = todo.pop()
            if type(u) is Trace:
                d, c = values[-1]
                x = u.loop
                if d[:len(x)] != x or c[:len(x)] != x:
                    raise TypeMismatch(
                        f"trace over {render_word(x)} needs a body typed"
                        f" {render_word(x)}+m -> {render_word(x)}+n,"
                        f" got {render_word(d)} -> {render_word(c)}", u)
                values[-1] = d[len(x):], c[len(x):]
                continue
            (ld, lc), (rd, rc) = values[-2], values.pop()
            if type(u) is Tensor:
                values[-1] = ld + rd, lc + rc
            elif lc != rd:
                raise TypeMismatch(
                    f"cannot compose {render_word(lc)} with {render_word(rd)}"
                    f" in {render_term(u)}", u)
            else:
                values[-1] = ld, rc
        elif k is Gen:
            if u.name not in sig:
                raise TypeMismatch(f"unknown generator {u.name!r}", u)
            values.append(sig.generators[u.name])
        elif k is Tensor:
            if type(u.top) is not Tensor and type(u.bottom) is not Tensor:
                todo += (u, _DONE, u.bottom, u.top)
                continue
            # a tree of tensors: its operands, left to right
            ops, spine = [], [u]
            while spine:
                v = spine.pop()
                if type(v) is Tensor:
                    spine += (v.bottom, v.top)
                else:
                    ops.append(v)
            todo += (len(ops), _JOIN, *reversed(ops))
        elif k is Seq:
            todo += (u, _DONE, u.right, u.left)
        elif k is Id:
            values.append((u.word, u.word))
        elif k is Swap:
            values.append((u.upper + u.lower, u.lower + u.upper))
        elif k is Trace:
            todo += (u, _DONE, u.body)
        else:
            raise TypeMismatch(f"not a term: {u!r}", u)
    return values[0]


# ---------------------------------------------------------------------------
# Concrete syntax
#
#   term := seq
#   seq  := ten (";" ten)*
#   ten  := atom ("*" atom)*
#   atom := NAME | "id" WORD | "swap" WORD WORD | "tr" WORD "(" term ")"
#         | "(" term ")"
#   WORD := NAT | "[" (NAME ("," NAME)*)? "]"
# ---------------------------------------------------------------------------

_SYMBOLS = {";", "*", "(", ")", "[", "]", ","}


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    """Tokens as (kind, value, position); kind in name/nat/sym."""
    tokens = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in _SYMBOLS:
            tokens.append(("sym", ch, i))
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(("nat", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def _peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def _next(self) -> tuple[str, str, int]:
        tok = self._peek()
        if tok is None:
            raise ParseError("unexpected end of input", len(self.text))
        self.pos += 1
        return tok

    def _expect(self, value: str) -> None:
        tok = self._next()
        if tok[1] != value:
            raise ParseError(f"expected {value!r}, found {tok[1]!r}", tok[2])

    def term(self) -> Term:
        """``term := tensor (';' tensor)*``, ``tensor := atom ('*' atom)*``.

        Parentheses and ``tr`` bodies open a frame on an explicit stack
        instead of recursing, so nesting depth is unbounded.
        """
        # per open group: its trace word (None for plain parentheses) and
        # the enclosing composite and tensor built so far
        frames: list[tuple[Word | None, Term | None, Term | None]] = []
        seq: Term | None = None
        ten: Term | None = None
        while True:
            tok = self._next()
            if tok[1] == "(" or tok[1] == "tr":
                loop = None
                if tok[1] == "tr":
                    loop = self.word()
                    self._expect("(")
                frames.append((loop, seq, ten))
                seq = ten = None
                continue
            t = self.atom(tok)
            while True:
                ten = t if ten is None else Tensor(ten, t)
                nxt = self._peek()
                if nxt is not None and nxt[1] == "*":
                    self._next()
                    break
                seq = ten if seq is None else Seq(seq, ten)
                ten = None
                if nxt is not None and nxt[1] == ";":
                    self._next()
                    break
                if not frames:
                    return seq
                self._expect(")")
                loop, outer_seq, outer_ten = frames.pop()
                t = seq if loop is None else Trace(loop, seq)
                seq, ten = outer_seq, outer_ten

    def word(self) -> Word:
        tok = self._next()
        if tok[0] == "nat":
            return word(int(tok[1]))
        if tok[1] == "[":
            labels: list[str] = []
            nxt = self._peek()
            if nxt is not None and nxt[1] == "]":
                self._next()
                return ()
            while True:
                name = self._next()
                if name[0] != "name":
                    raise ParseError("expected object label", name[2])
                labels.append(name[1])
                sep = self._next()
                if sep[1] == "]":
                    return tuple(labels)
                if sep[1] != ",":
                    raise ParseError("expected ',' or ']'", sep[2])
        raise ParseError("expected a wire count or [labels]", tok[2])

    def atom(self, tok: tuple[str, str, int]) -> Term:
        """An atom without parentheses, starting at ``tok``."""
        if tok[1] == "id":
            return Id(self.word())
        if tok[1] == "swap":
            return Swap(self.word(), self.word())
        if tok[0] == "name":
            return Gen(tok[1])
        raise ParseError(f"unexpected token {tok[1]!r}", tok[2])

    def finish(self) -> None:
        tok = self._peek()
        if tok is not None:
            raise ParseError(f"trailing input {tok[1]!r}", tok[2])


def parse_term(text: str, sig: Signature) -> Term:
    """Parse DSL text and type-check it against ``sig``."""
    parser = _Parser(text)
    t = parser.term()
    parser.finish()
    type_of(t, sig)
    return t


class _Piece(str):
    """Literal text waiting on :func:`render_term`'s stack."""


_SEQ, _SEQ_OPEN = _Piece(" ; "), _Piece(" ; (")
_TEN, _TEN_OPEN = _Piece(" * "), _Piece(" * (")
_OPEN, _CLOSE = _Piece("("), _Piece(")")


def render_term(t: Term) -> str:
    """Print a term so that parsing the output rebuilds the same tree.

    Left-nested chains print flat (the parser folds left); right-nested
    composition and tensor keep their parentheses.  Pieces are emitted
    in order from an explicit stack, so the term may be arbitrarily deep.
    Dispatch is on the exact node class, as in :func:`type_of`.
    """
    out: list[str] = []
    todo: list = [t]
    while todo:
        u = todo.pop()
        k = type(u)
        if k is _Piece:
            out.append(u)
        elif k is Gen:
            out.append(u.name)
        elif k is Tensor:
            b = u.bottom
            if type(b) is Seq or type(b) is Tensor:
                todo += (_CLOSE, b, _TEN_OPEN)
            else:
                todo += (b, _TEN)
            if type(u.top) is Seq:
                todo += (_CLOSE, u.top, _OPEN)
            else:
                todo.append(u.top)
        elif k is Seq:
            if type(u.right) is Seq:
                todo += (_CLOSE, u.right, _SEQ_OPEN, u.left)
            else:
                todo += (u.right, _SEQ, u.left)
        elif k is Id:
            out.append(f"id {render_word(u.word)}")
        elif k is Swap:
            out.append(f"swap {render_word(u.upper)} {render_word(u.lower)}")
        elif k is Trace:
            todo += (_CLOSE, u.body, _Piece(f"tr {render_word(u.loop)} ("))
        else:
            raise TermError(f"not a term: {u!r}")
    return "".join(out)


def parse_signature(text: str) -> Signature:
    """Signature file: one ``name : WORD -> WORD`` line per generator."""
    gens: dict[str, tuple[Word, Word]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            name_part, arrow_part = line.split(":", 1)
            dom_part, cod_part = arrow_part.split("->", 1)
        except ValueError:
            raise SignatureError(f"line {lineno}: expected 'name : WORD -> WORD'")
        name = name_part.strip()
        if not _is_name(name):
            raise SignatureError(
                f"line {lineno}: {name!r} is not a generator name (a letter"
                " or '_', then letters, digits or '_')")
        if name in _RESERVED_NAMES:
            raise SignatureError(
                f"line {lineno}: generator name {name!r} is reserved")
        if name in gens:
            raise SignatureError(f"line {lineno}: bad or duplicate name {name!r}")
        gens[name] = (_parse_word(dom_part.strip(), lineno),
                      _parse_word(cod_part.strip(), lineno))
    return Signature(gens, frozenset(
        {lab for d, c in gens.values() for lab in (*d, *c)} | {ANON}))


def _is_name(text: str) -> bool:
    """Whether :func:`_tokenize` reads ``text`` as one name token: a
    letter or ``_``, then letters, digits or ``_``."""
    return ((text[:1].isalpha() or text[:1] == "_")
            and text.replace("_", "a").isalnum())


def _parse_word(text: str, lineno: int) -> Word:
    """A signature file's WORD, read by the term grammar's own reader; a
    wire count, one ``nat`` token, is read without building the reader,
    which would double the time to read a signature of wire counts."""
    if text.isdecimal():
        return word(int(text))
    try:
        parser = _Parser(text)
        w = parser.word()
        parser.finish()
    except ParseError:
        raise SignatureError(f"line {lineno}: bad word {text!r}") from None
    return w
