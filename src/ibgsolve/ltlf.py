"""Finite-trace temporal formulas: parsing, semantics, and compilation to AFA.

Atoms test one agent channel against one of its symbols ("p0=a").  The
grammar has unary ! X N F G, binary U R & |, parentheses, and the keywords
true/false, with precedence unary > U/R > & > | and right-associative U/R.

Empty-word convention: the empty trace satisfies exactly the formulas whose
normal form starts with a weak next or a release (G included) or is the
constant true.  Negation therefore does not commute with satisfaction on the
empty trace; `holds` implements the matching case table explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence, Union

from .alphabet import ChannelMask, Letter, ProductAlphabet
from .automata import Afa, BoolFormula, FAtom, FFalse, FTrue, f_and, f_or


@dataclass(frozen=True)
class LTrue:
    pass


@dataclass(frozen=True)
class LFalse:
    pass


@dataclass(frozen=True)
class Atom:
    agent: int
    symbol: str


@dataclass(frozen=True)
class Not:
    arg: "LtlfFormula"


@dataclass(frozen=True)
class And:
    args: tuple["LtlfFormula", ...]


@dataclass(frozen=True)
class Or:
    args: tuple["LtlfFormula", ...]


@dataclass(frozen=True)
class Next:
    arg: "LtlfFormula"


@dataclass(frozen=True)
class WeakNext:
    arg: "LtlfFormula"


@dataclass(frozen=True)
class Until:
    left: "LtlfFormula"
    right: "LtlfFormula"


@dataclass(frozen=True)
class Release:
    left: "LtlfFormula"
    right: "LtlfFormula"


@dataclass(frozen=True)
class Eventually:
    arg: "LtlfFormula"


@dataclass(frozen=True)
class Always:
    arg: "LtlfFormula"


LtlfFormula = Union[
    LTrue, LFalse, Atom, Not, And, Or, Next, WeakNext, Until, Release, Eventually, Always
]


def format_formula(f: LtlfFormula) -> str:
    match f:
        case LTrue():
            return "true"
        case LFalse():
            return "false"
        case Atom(agent, symbol):
            return f"p{agent}={symbol}"
        case Not(g):
            return f"!({format_formula(g)})"
        case And(args):
            return "(" + " & ".join(format_formula(a) for a in args) + ")"
        case Or(args):
            return "(" + " | ".join(format_formula(a) for a in args) + ")"
        case Next(g):
            return f"X({format_formula(g)})"
        case WeakNext(g):
            return f"N({format_formula(g)})"
        case Until(l, r):
            return f"({format_formula(l)} U {format_formula(r)})"
        case Release(l, r):
            return f"({format_formula(l)} R {format_formula(r)})"
        case Eventually(g):
            return f"F({format_formula(g)})"
        case Always(g):
            return f"G({format_formula(g)})"
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Parser.


class LtlfSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_TOKEN_RE = re.compile(r"[()&|!=]|[A-Za-z0-9_]+|\S")
_KEYWORDS = {"true", "false", "X", "N", "F", "G", "U", "R"}
_ATOM_RE = re.compile(r"p(\d+)$")


class _Parser:
    def __init__(self, text: str, alphabet: ProductAlphabet | None):
        self.text = text
        self.alphabet = alphabet
        self.tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
        self.pos = 0

    def _peek(self) -> tuple[str, int]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("", len(self.text))

    def _next(self) -> tuple[str, int]:
        tok = self._peek()
        self.pos += 1
        return tok

    def _expect(self, token: str):
        got, offset = self._next()
        if got != token:
            raise LtlfSyntaxError(f"expected {token!r}, found {got!r}" if got else f"expected {token!r}", offset)

    def parse(self) -> LtlfFormula:
        f = self.parse_or()
        tok, offset = self._peek()
        if tok:
            raise LtlfSyntaxError(f"unexpected {tok!r}", offset)
        return f

    def parse_or(self) -> LtlfFormula:
        args = [self.parse_and()]
        while self._peek()[0] == "|":
            self._next()
            args.append(self.parse_and())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def parse_and(self) -> LtlfFormula:
        args = [self.parse_until()]
        while self._peek()[0] == "&":
            self._next()
            args.append(self.parse_until())
        return args[0] if len(args) == 1 else And(tuple(args))

    def parse_until(self) -> LtlfFormula:
        left = self.parse_unary()
        tok, _ = self._peek()
        if tok == "U":
            self._next()
            return Until(left, self.parse_until())
        if tok == "R":
            self._next()
            return Release(left, self.parse_until())
        return left

    def parse_unary(self) -> LtlfFormula:
        tok, offset = self._peek()
        if tok == "!":
            self._next()
            return Not(self.parse_unary())
        if tok == "X":
            self._next()
            return Next(self.parse_unary())
        if tok == "N":
            self._next()
            return WeakNext(self.parse_unary())
        if tok == "F":
            self._next()
            return Eventually(self.parse_unary())
        if tok == "G":
            self._next()
            return Always(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> LtlfFormula:
        tok, offset = self._next()
        if tok == "(":
            f = self.parse_or()
            self._expect(")")
            return f
        if tok == "true":
            return LTrue()
        if tok == "false":
            return LFalse()
        m = _ATOM_RE.match(tok) if tok else None
        if m:
            self._expect("=")
            sym, sym_offset = self._next()
            if not sym or not re.fullmatch(r"[A-Za-z0-9_]+", sym):
                raise LtlfSyntaxError("expected a symbol", sym_offset)
            agent = int(m.group(1))
            if self.alphabet is not None:
                if agent >= self.alphabet.k:
                    raise LtlfSyntaxError(f"unknown channel p{agent}", offset)
                if sym not in self.alphabet.channels[agent]:
                    raise LtlfSyntaxError(f"unknown symbol {sym!r} on channel {agent}", sym_offset)
            return Atom(agent, sym)
        if not tok:
            raise LtlfSyntaxError("unexpected end of formula", offset)
        raise LtlfSyntaxError(f"unexpected {tok!r}", offset)


def parse(text: str, alphabet: ProductAlphabet | None = None) -> LtlfFormula:
    """Parse a formula; with an alphabet, atoms are checked against it."""
    return _Parser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# Negation normal form.  F and G are rewritten into U and R.


def nnf(f: LtlfFormula) -> LtlfFormula:
    # Dispatch on the exact node class, as `holds` does: cheaper than a
    # structural match on every node.
    t = type(f)
    if t is LTrue or t is LFalse or t is Atom:
        return f
    if t is Not:
        return _nnf_neg(f.arg)
    if t is And:
        return And(tuple(nnf(a) for a in f.args))
    if t is Or:
        return Or(tuple(nnf(a) for a in f.args))
    if t is Next:
        return Next(nnf(f.arg))
    if t is WeakNext:
        return WeakNext(nnf(f.arg))
    if t is Until:
        return Until(nnf(f.left), nnf(f.right))
    if t is Release:
        return Release(nnf(f.left), nnf(f.right))
    if t is Eventually:
        return Until(LTrue(), nnf(f.arg))
    if t is Always:
        return Release(LFalse(), nnf(f.arg))
    raise TypeError(f"not a formula: {f!r}")


def _nnf_neg(f: LtlfFormula) -> LtlfFormula:
    t = type(f)
    if t is LTrue:
        return LFalse()
    if t is LFalse:
        return LTrue()
    if t is Atom:
        return Not(f)
    if t is Not:
        return nnf(f.arg)
    if t is And:
        return Or(tuple(_nnf_neg(a) for a in f.args))
    if t is Or:
        return And(tuple(_nnf_neg(a) for a in f.args))
    if t is Next:
        return WeakNext(_nnf_neg(f.arg))
    if t is WeakNext:
        return Next(_nnf_neg(f.arg))
    if t is Until:
        return Release(_nnf_neg(f.left), _nnf_neg(f.right))
    if t is Release:
        return Until(_nnf_neg(f.left), _nnf_neg(f.right))
    if t is Eventually:
        return Release(LFalse(), _nnf_neg(f.arg))
    if t is Always:
        return Until(LTrue(), _nnf_neg(f.arg))
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Direct recursive semantics.  This is the oracle the compiled automata are
# tested against, so it must not go through nnf or compile_to_afa; negation
# is handled by a dual recursion instead of rewriting.
#
# Suffix boundaries follow the empty-word convention uniformly: whenever a
# next-step obligation runs off the end of the word it is judged by the
# empty-word table of the obligation itself.  A consequence of the expansion
# laws is that strong and weak next agree on nonempty words and differ only
# on the empty word.


def holds(f: LtlfFormula, word: Sequence[Letter], alphabet: ProductAlphabet) -> bool:
    n = len(word)

    # Dispatch on the exact node class: this is the test oracle's inner
    # loop, and a chain of `type(g) is` tests is much cheaper than a
    # structural match here.
    def sat(g: LtlfFormula, i: int) -> bool:
        if i == n:
            return _empty_word_sat(g)
        t = type(g)
        if t is Atom:
            return alphabet.channels[g.agent][word[i][g.agent]] == g.symbol
        if t is And:
            return all(sat(a, i) for a in g.args)
        if t is Or:
            return any(sat(a, i) for a in g.args)
        if t is Not:
            return neg(g.arg, i)
        if t is Next or t is WeakNext:
            return sat(g.arg, i + 1)
        if t is Eventually:
            return sat(g.arg, i) or sat(g, i + 1)
        if t is Always:
            return sat(g.arg, i) and sat(g, i + 1)
        if t is Until:
            return sat(g.right, i) or (sat(g.left, i) and sat(g, i + 1))
        if t is Release:
            return sat(g.right, i) and (sat(g.left, i) or sat(g, i + 1))
        if t is LTrue:
            return True
        if t is LFalse:
            return False
        raise TypeError(f"not a formula: {g!r}")

    def neg(g: LtlfFormula, i: int) -> bool:
        if i == n:
            return _empty_word_neg(g)
        t = type(g)
        if t is Atom:
            return alphabet.channels[g.agent][word[i][g.agent]] != g.symbol
        if t is And:
            return any(neg(a, i) for a in g.args)
        if t is Or:
            return all(neg(a, i) for a in g.args)
        if t is Not:
            return sat(g.arg, i)
        if t is Next or t is WeakNext:
            return neg(g.arg, i + 1)
        if t is Eventually:
            return neg(g.arg, i) and neg(g, i + 1)
        if t is Always:
            return neg(g.arg, i) or neg(g, i + 1)
        if t is Until:
            return neg(g.right, i) and (neg(g.left, i) or neg(g, i + 1))
        if t is Release:
            return neg(g.right, i) or (neg(g.left, i) and neg(g, i + 1))
        if t is LTrue:
            return False
        if t is LFalse:
            return True
        raise TypeError(f"not a formula: {g!r}")

    return sat(f, 0)


def _empty_word_sat(f: LtlfFormula) -> bool:
    # Mirrors the accepting-state rule of compile_to_afa on the normal form.
    match f:
        case LTrue() | WeakNext(_) | Release(_, _) | Always(_):
            return True
        case Not(g):
            return _empty_word_neg(g)
        case _:
            return False


def _empty_word_neg(f: LtlfFormula) -> bool:
    match f:
        case LFalse() | Next(_) | Until(_, _) | Eventually(_):
            return True
        case Not(g):
            return _empty_word_sat(g)
        case _:
            return False


# ---------------------------------------------------------------------------
# Compilation: formula-as-state alternating automaton.


def _subformulas(f: LtlfFormula, acc: list[LtlfFormula]) -> None:
    """Append each distinct subformula of f not yet in acc, in preorder."""
    seen = set(acc)
    stack = [f]
    while stack:
        g = stack.pop()
        if g in seen:
            continue
        seen.add(g)
        acc.append(g)
        t = type(g)
        if t is And or t is Or:
            stack.extend(reversed(g.args))
        elif t is Until or t is Release:
            stack += [g.right, g.left]
        elif t is not Atom and t is not LTrue and t is not LFalse:
            stack.append(g.arg)


def compile_to_afa(formula: LtlfFormula, alphabet: ProductAlphabet) -> Afa:
    """Compile to an AFA whose finite-word language is the formula's.

    Formula-as-state construction over the normal form's subformulas (plus a
    true sink), following the standard expansion laws; only states reachable
    through the transition formulas are materialized, so the state count is
    at most the number of distinct subformulas plus one.  Accepting states
    are those discharged at the end of a word: weak-next states, release
    states, and the sink.  The automaton only reads the channels the formula
    mentions.
    """
    f = nnf(formula)
    all_subs: list[LtlfFormula] = []
    _subformulas(f, all_subs)
    atoms = [g for g in all_subs if type(g) is Atom]
    channels = {g.agent for g in atoms}
    for agent in sorted(channels):
        if agent >= alphabet.k:
            raise ValueError(f"formula references channel p{agent}, alphabet has {alphabet.k}")
    for g in atoms:
        if g.symbol not in alphabet.channels[g.agent]:
            raise ValueError(f"formula references unknown symbol {g.symbol!r} on channel {g.agent}")

    mask = ChannelMask.of(channels)
    channel_pos = {agent: i for i, agent in enumerate(mask.agents)}
    rls = list(alphabet.restricted_letters(mask))

    states: list[LtlfFormula] = []
    index: dict[LtlfFormula, int] = {}

    def intern(g: LtlfFormula) -> int:
        q = index.get(g)
        if q is None:
            q = index[g] = len(states)
            states.append(g)
        return q

    def delta_of(g: LtlfFormula, rl: Letter) -> BoolFormula:
        t = type(g)
        if t is Atom:
            picked = alphabet.channels[g.agent][rl[channel_pos[g.agent]]]
            return FTrue() if picked == g.symbol else FFalse()
        if t is And:
            return f_and(delta_of(a, rl) for a in g.args)
        if t is Or:
            return f_or(delta_of(a, rl) for a in g.args)
        if t is Next or t is WeakNext:
            return FAtom(intern(g.arg))
        if t is Until:
            return f_or([delta_of(g.right, rl), f_and([delta_of(g.left, rl), FAtom(intern(g))])])
        if t is Release:
            return f_and([delta_of(g.right, rl), f_or([delta_of(g.left, rl), FAtom(intern(g))])])
        if t is Not and type(g.arg) is Atom:
            picked = alphabet.channels[g.arg.agent][rl[channel_pos[g.arg.agent]]]
            return FFalse() if picked == g.arg.symbol else FTrue()
        if t is LTrue:
            return FTrue()
        if t is LFalse:
            return FFalse()
        raise ValueError(f"formula not in normal form: {format_formula(g)}")

    delta: dict[tuple[int, Letter], BoolFormula] = {}
    intern(f)
    done = 0
    while done < len(states):
        g = states[done]
        qid = index[g]
        for rl in rls:
            delta[qid, rl] = delta_of(g, rl)
        done += 1

    accepting = frozenset(
        index[g] for g in states if isinstance(g, (WeakNext, Release)) or g == LTrue()
    )
    names = tuple(format_formula(g) for g in states)
    return Afa(alphabet, mask, names, index[f], accepting, delta)
