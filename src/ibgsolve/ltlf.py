"""Finite-trace temporal formulas: parsing, semantics, and compilation to AFA.

Atoms test one agent channel against one of its symbols ("p0=a").  The
grammar is in two tables, `_UNARY` (! X N F G) and `_BINARY` (U R & | with
their precedences), plus parentheses and the keywords true/false: unary binds
tightest, then U/R (right-associative), then &, then |.

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


# The operator set, defined once for the parser, `format_formula` and `nnf`.
# Binary operators carry their precedence; a chain of & or | becomes one n-ary
# node, and U and R associate to the right.
_UNARY = {"!": Not, "X": Next, "N": WeakNext, "F": Eventually, "G": Always}
_BINARY = {"|": (1, Or), "&": (2, And), "U": (3, Until), "R": (3, Release)}
_TOKEN_OF = {cls: tok for tok, cls in _UNARY.items()} | {
    cls: tok for tok, (_, cls) in _BINARY.items()
}
# Negation pushed through a node turns it into its dual.
_DUAL = {
    LTrue: LFalse, LFalse: LTrue, And: Or, Or: And, Next: WeakNext, WeakNext: Next,
    Until: Release, Release: Until, Eventually: Always, Always: Eventually,
}


def format_formula(f: LtlfFormula) -> str:
    t = type(f)
    if t is LTrue:
        return "true"
    if t is LFalse:
        return "false"
    if t is Atom:
        return f"p{f.agent}={f.symbol}"
    op = _TOKEN_OF.get(t)
    if op is None:
        raise TypeError(f"not a formula: {f!r}")
    if t is And or t is Or:
        return "(" + f" {op} ".join(map(format_formula, f.args)) + ")"
    if t is Until or t is Release:
        return f"({format_formula(f.left)} {op} {format_formula(f.right)})"
    return f"{op}({format_formula(f.arg)})"


# ---------------------------------------------------------------------------
# Parser.


class LtlfSyntaxError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


_TOKEN_RE = re.compile(r"[()&|!=]|[A-Za-z0-9_]+|\S")
_ATOM_RE = re.compile(r"p(\d+)$")


def parse(text: str, alphabet: ProductAlphabet | None = None) -> LtlfFormula:
    """Parse a formula; with an alphabet, atoms are checked against it.

    Operator precedence over explicit stacks (shunting-yard), so nesting is
    bounded by memory, not by the recursion limit.  `ops` holds prefix
    operators, "(" and binary operators until their operands are complete.
    """
    tokens = [(m.group(0), m.start()) for m in _TOKEN_RE.finditer(text)]
    tokens = iter(tokens + [("", len(text))])
    ops: list[str] = []
    operands: list[LtlfFormula] = []
    depth = 0

    def reduce(prec: int) -> None:
        # Reduce the binary operators above the innermost "(" that bind
        # tighter than prec; a run of one n-ary operator becomes one node.
        while ops and ops[-1] in _BINARY and _BINARY[ops[-1]][0] > prec:
            op = ops.pop()
            cls = _BINARY[op][1]
            if cls is Until or cls is Release:
                right = operands.pop()
                operands[-1] = cls(operands[-1], right)
                continue
            n = 2
            while ops and ops[-1] == op:
                ops.pop()
                n += 1
            operands[-n:] = [cls(tuple(operands[-n:]))]

    want_operand = True
    while True:
        tok, offset = next(tokens)
        if want_operand:
            if tok in _UNARY or tok == "(":
                ops.append(tok)
                depth += tok == "("
                continue
            operands.append(_primary(tok, offset, tokens, alphabet))
        elif tok in _BINARY:
            reduce(_BINARY[tok][0])
            ops.append(tok)
            want_operand = True
            continue
        elif tok == ")" and depth:
            reduce(0)
            ops.pop()
            depth -= 1
        elif depth:
            raise LtlfSyntaxError(f"expected ')', found {tok!r}" if tok else "expected ')'", offset)
        elif tok:
            raise LtlfSyntaxError(f"unexpected {tok!r}", offset)
        else:
            reduce(0)
            return operands[0]
        # An operand is complete: apply the prefix operators written before it.
        while ops and ops[-1] in _UNARY:
            operands[-1] = _UNARY[ops.pop()](operands[-1])
        want_operand = False


def _primary(tok: str, offset: int, tokens, alphabet: ProductAlphabet | None) -> LtlfFormula:
    if tok == "true":
        return LTrue()
    if tok == "false":
        return LFalse()
    m = _ATOM_RE.match(tok)
    if not m:
        raise LtlfSyntaxError(f"unexpected {tok!r}" if tok else "unexpected end of formula", offset)
    eq, eq_offset = next(tokens)
    if eq != "=":
        raise LtlfSyntaxError(f"expected '=', found {eq!r}" if eq else "expected '='", eq_offset)
    sym, sym_offset = next(tokens)
    if not re.fullmatch(r"[A-Za-z0-9_]+", sym):
        raise LtlfSyntaxError("expected a symbol", sym_offset)
    agent = int(m.group(1))
    if alphabet is not None:
        if agent >= alphabet.k:
            raise LtlfSyntaxError(f"unknown channel p{agent}", offset)
        if sym not in alphabet.channels[agent]:
            raise LtlfSyntaxError(f"unknown symbol {sym!r} on channel {agent}", sym_offset)
    return Atom(agent, sym)


# ---------------------------------------------------------------------------
# Negation normal form.  F and G are rewritten into U and R.


def nnf(f: LtlfFormula, negated: bool = False) -> LtlfFormula:
    """The normal form of f, or of !f when negated: negation only on atoms."""
    t = type(f)
    if t is Not:
        return nnf(f.arg, not negated)
    if t is Atom:
        return Not(f) if negated else f
    if negated:
        t = _DUAL.get(t)
    if t is LTrue or t is LFalse:
        return t()
    if t is And or t is Or:
        return t(tuple(nnf(a, negated) for a in f.args))
    if t is Next or t is WeakNext:
        return t(nnf(f.arg, negated))
    if t is Until or t is Release:
        return t(nnf(f.left, negated), nnf(f.right, negated))
    if t is Eventually:
        return Until(LTrue(), nnf(f.arg, negated))
    if t is Always:
        return Release(LFalse(), nnf(f.arg, negated))
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
