import itertools
import re
import random

import pytest

from ibgsolve import Lasso, accepts_prefix, afa_accepts
from ibgsolve.ltlf import (
    Always,
    And,
    Atom,
    Eventually,
    LFalse,
    LTrue,
    LtlfSyntaxError,
    Next,
    Not,
    Or,
    Release,
    Until,
    WeakNext,
    compile_to_afa,
    format_formula,
    holds,
    nnf,
    parse,
)

import corpus

LEAVES = [LTrue(), LFalse(), Atom(0, "a"), Atom(0, "b"), Atom(1, "c"), Atom(1, "d")]
UNARY = [Not, Next, WeakNext, Eventually, Always]
BINARY = [Until, Release, lambda l, r: And((l, r)), lambda l, r: Or((l, r))]


def formulas_up_to(depth):
    if depth == 1:
        return list(LEAVES)
    smaller = formulas_up_to(depth - 1)
    out = list(smaller)
    for f in smaller:
        for op in UNARY:
            out.append(op(f))
    for l in smaller:
        for r in smaller:
            for op in BINARY:
                out.append(op(l, r))
    return list(dict.fromkeys(out))


def all_words(alphabet, max_len):
    letters = list(alphabet.letters())
    words = [[]]
    for n in range(1, max_len + 1):
        words.extend(list(w) for w in itertools.product(letters, repeat=n))
    return words


# ---------------------------------------------------------------------------
# parsing


def test_parse_eventually_conjunction():
    assert parse("F(p0=a & p1=c)") == Eventually(And((Atom(0, "a"), Atom(1, "c"))))


def test_parse_until():
    assert parse("p0=a U p0=b") == Until(Atom(0, "a"), Atom(0, "b"))


def test_parse_error_position():
    with pytest.raises(LtlfSyntaxError) as err:
        parse("G(")
    assert err.value.offset == 2


def test_parse_precedence():
    # unary > U/R > & > |
    f = parse("p0=a | p0=b & X p1=c U p1=d")
    assert f == Or((Atom(0, "a"), And((Atom(0, "b"), Until(Next(Atom(1, "c")), Atom(1, "d"))))))


def test_parse_until_right_associative():
    f = parse("p0=a U p0=b U p1=c")
    assert f == Until(Atom(0, "a"), Until(Atom(0, "b"), Atom(1, "c")))


def test_parse_keywords_and_parens():
    assert parse("true U (false R N p0=a)") == Until(
        LTrue(), Release(LFalse(), WeakNext(Atom(0, "a")))
    )


def test_parse_unknown_channel(alphabet):
    with pytest.raises(LtlfSyntaxError):
        parse("p7=a", alphabet)


def test_parse_unknown_symbol(alphabet):
    with pytest.raises(LtlfSyntaxError):
        parse("p0=zzz", alphabet)


def test_parse_trailing_garbage():
    with pytest.raises(LtlfSyntaxError):
        parse("p0=a )")


def test_format_parse_round_trip():
    rng = random.Random(3)
    pool = formulas_up_to(2)
    for f in rng.sample(pool, 40):
        assert parse(format_formula(f)) == f


# ---------------------------------------------------------------------------
# normal form


def test_nnf_rewrites_eventually_always():
    assert nnf(Eventually(Atom(0, "a"))) == Until(LTrue(), Atom(0, "a"))
    assert nnf(Always(Atom(0, "a"))) == Release(LFalse(), Atom(0, "a"))


def test_nnf_pushes_negation_to_atoms():
    f = nnf(Not(Until(Atom(0, "a"), Next(Atom(1, "c")))))
    assert f == Release(Not(Atom(0, "a")), WeakNext(Not(Atom(1, "c"))))


def test_nnf_preserves_semantics(alphabet):
    rng = random.Random(9)
    pool = formulas_up_to(2)
    words = all_words(alphabet, 3)
    for f in rng.sample(pool, 60):
        g = nnf(f)
        for w in rng.sample(words, 25):
            assert holds(f, w, alphabet) == holds(g, w, alphabet)


# ---------------------------------------------------------------------------
# compilation


def test_compiled_eventually_on_lasso(alphabet):
    afa = compile_to_afa(parse("F(p0=a & p1=c)", alphabet), alphabet)
    assert accepts_prefix(afa, Lasso((), (alphabet.letter(("a", "c")),)))
    assert not accepts_prefix(afa, Lasso((), (alphabet.letter(("b", "d")),)))


def test_compiled_always(alphabet):
    afa = compile_to_afa(parse("G(p0=a)", alphabet), alphabet)
    a_letter = alphabet.letter(("a", "c"))
    b_letter = alphabet.letter(("b", "c"))
    for n in range(1, 6):
        assert afa_accepts(afa, [a_letter] * n)
        assert not afa_accepts(afa, [a_letter] * n + [b_letter])
    assert accepts_prefix(afa, Lasso((), (a_letter,)))


def test_compiled_true_accepts_everything(alphabet):
    afa = compile_to_afa(parse("true", alphabet), alphabet)
    assert afa_accepts(afa, [])
    rng = random.Random(2)
    for _ in range(10):
        assert afa_accepts(afa, corpus.random_word(rng, alphabet))


def test_compiled_empty_word_convention(alphabet):
    # the empty word satisfies exactly weak-next, release (G included), true
    cases = {
        "true": True,
        "false": False,
        "p0=a": False,
        "N p0=a": True,
        "X p0=a": False,
        "G p0=a": True,
        "F p0=a": False,
        "p0=a U p1=c": False,
        "p0=a R p1=c": True,
        "!(X p0=a)": True,
        "!(N p0=a)": False,
    }
    for text, expected in cases.items():
        f = parse(text, alphabet)
        afa = compile_to_afa(f, alphabet)
        assert afa_accepts(afa, []) == expected, text
        assert holds(f, [], alphabet) == expected, text


def test_compiled_state_count_bound(alphabet):
    from ibgsolve.ltlf import _subformulas

    for f in formulas_up_to(2):
        g = nnf(f)
        subs = []
        _subformulas(g, subs)
        afa = compile_to_afa(f, alphabet)
        assert afa.n_states <= len(subs) + 1


def test_compiled_small_eventually_afa(alphabet):
    afa = compile_to_afa(parse("F(p0=a & p1=c)", alphabet), alphabet)
    assert afa.n_states <= 4


def test_compiled_atom_alphabet_mismatch(alphabet):
    with pytest.raises(ValueError):
        compile_to_afa(Atom(5, "a"), alphabet)
    with pytest.raises(ValueError):
        compile_to_afa(Atom(0, "nope"), alphabet)


def test_compiled_only_reads_referenced_channels(alphabet):
    afa = compile_to_afa(parse("G(p0=a)", alphabet), alphabet)
    assert afa.mask.agents == (0,)


def test_compiled_matches_evaluator_exhaustive_depth2(alphabet):
    words = all_words(alphabet, 4)
    for f in formulas_up_to(2):
        afa = compile_to_afa(f, alphabet)
        for w in words:
            assert afa_accepts(afa, w) == holds(f, w, alphabet), format_formula(f)


def test_compiled_matches_evaluator_sampled_depth3(alphabet):
    rng = random.Random(71)
    pool = formulas_up_to(3)
    sample = rng.sample(pool, 400)
    words = [corpus.random_word(rng, alphabet, 6) for _ in range(12)]
    for f in sample:
        afa = compile_to_afa(f, alphabet)
        for w in words:
            assert afa_accepts(afa, w) == holds(f, w, alphabet), format_formula(f)


# ---------------------------------------------------------------------------
# References: the recursive-descent parser, the mirrored nnf pair and the
# match-based printer that the operator tables replaced.  They spell out each
# operator by hand, so they check the tables as well as the stack parser.


class ReferenceParser:
    def __init__(self, text, alphabet):
        self.text = text
        self.alphabet = alphabet
        self.tokens = [(m.group(0), m.start()) for m in re.finditer(r"[()&|!=]|[A-Za-z0-9_]+|\S", text)]
        self.pos = 0

    def peek(self):
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return ("", len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, token):
        got, offset = self.next()
        if got != token:
            raise LtlfSyntaxError(f"expected {token!r}, found {got!r}" if got else f"expected {token!r}", offset)

    def parse(self):
        f = self.parse_or()
        tok, offset = self.peek()
        if tok:
            raise LtlfSyntaxError(f"unexpected {tok!r}", offset)
        return f

    def parse_or(self):
        args = [self.parse_and()]
        while self.peek()[0] == "|":
            self.next()
            args.append(self.parse_and())
        return args[0] if len(args) == 1 else Or(tuple(args))

    def parse_and(self):
        args = [self.parse_until()]
        while self.peek()[0] == "&":
            self.next()
            args.append(self.parse_until())
        return args[0] if len(args) == 1 else And(tuple(args))

    def parse_until(self):
        left = self.parse_unary()
        tok, _ = self.peek()
        if tok == "U":
            self.next()
            return Until(left, self.parse_until())
        if tok == "R":
            self.next()
            return Release(left, self.parse_until())
        return left

    def parse_unary(self):
        tok, _ = self.peek()
        if tok == "!":
            self.next()
            return Not(self.parse_unary())
        if tok == "X":
            self.next()
            return Next(self.parse_unary())
        if tok == "N":
            self.next()
            return WeakNext(self.parse_unary())
        if tok == "F":
            self.next()
            return Eventually(self.parse_unary())
        if tok == "G":
            self.next()
            return Always(self.parse_unary())
        return self.parse_primary()

    def parse_primary(self):
        tok, offset = self.next()
        if tok == "(":
            f = self.parse_or()
            self.expect(")")
            return f
        if tok == "true":
            return LTrue()
        if tok == "false":
            return LFalse()
        m = re.match(r"p(\d+)$", tok) if tok else None
        if m:
            self.expect("=")
            sym, sym_offset = self.next()
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


def reference_nnf(f):
    t = type(f)
    if t is LTrue or t is LFalse or t is Atom:
        return f
    if t is Not:
        return reference_nnf_neg(f.arg)
    if t is And:
        return And(tuple(reference_nnf(a) for a in f.args))
    if t is Or:
        return Or(tuple(reference_nnf(a) for a in f.args))
    if t is Next:
        return Next(reference_nnf(f.arg))
    if t is WeakNext:
        return WeakNext(reference_nnf(f.arg))
    if t is Until:
        return Until(reference_nnf(f.left), reference_nnf(f.right))
    if t is Release:
        return Release(reference_nnf(f.left), reference_nnf(f.right))
    if t is Eventually:
        return Until(LTrue(), reference_nnf(f.arg))
    if t is Always:
        return Release(LFalse(), reference_nnf(f.arg))
    raise TypeError(f"not a formula: {f!r}")


def reference_nnf_neg(f):
    t = type(f)
    if t is LTrue:
        return LFalse()
    if t is LFalse:
        return LTrue()
    if t is Atom:
        return Not(f)
    if t is Not:
        return reference_nnf(f.arg)
    if t is And:
        return Or(tuple(reference_nnf_neg(a) for a in f.args))
    if t is Or:
        return And(tuple(reference_nnf_neg(a) for a in f.args))
    if t is Next:
        return WeakNext(reference_nnf_neg(f.arg))
    if t is WeakNext:
        return Next(reference_nnf_neg(f.arg))
    if t is Until:
        return Release(reference_nnf_neg(f.left), reference_nnf_neg(f.right))
    if t is Release:
        return Until(reference_nnf_neg(f.left), reference_nnf_neg(f.right))
    if t is Eventually:
        return Release(LFalse(), reference_nnf_neg(f.arg))
    if t is Always:
        return Until(LTrue(), reference_nnf_neg(f.arg))
    raise TypeError(f"not a formula: {f!r}")


def reference_format(f):
    match f:
        case LTrue():
            return "true"
        case LFalse():
            return "false"
        case Atom(agent, symbol):
            return f"p{agent}={symbol}"
        case Not(g):
            return f"!({reference_format(g)})"
        case And(args):
            return "(" + " & ".join(reference_format(a) for a in args) + ")"
        case Or(args):
            return "(" + " | ".join(reference_format(a) for a in args) + ")"
        case Next(g):
            return f"X({reference_format(g)})"
        case WeakNext(g):
            return f"N({reference_format(g)})"
        case Until(l, r):
            return f"({reference_format(l)} U {reference_format(r)})"
        case Release(l, r):
            return f"({reference_format(l)} R {reference_format(r)})"
        case Eventually(g):
            return f"F({reference_format(g)})"
        case Always(g):
            return f"G({reference_format(g)})"
    raise TypeError(f"not a formula: {f!r}")


def parse_outcome(parser, text, alphabet):
    try:
        return ("tree", parser(text, alphabet))
    except LtlfSyntaxError as e:
        return ("error", str(e), e.offset)


def random_ltlf(rng, size):
    """A random formula with about `size` nodes, n-ary chains included."""
    if size <= 1:
        return rng.choice(LEAVES + [Atom(0, "zzz"), Atom(3, "a")])
    kind = rng.randrange(4)
    if kind == 0:
        return rng.choice(UNARY)(random_ltlf(rng, size - 1))
    if kind == 1:
        split = rng.randrange(1, size)
        return rng.choice([Until, Release])(random_ltlf(rng, split), random_ltlf(rng, size - split))
    n = rng.randrange(2, 5)
    return rng.choice([And, Or])(tuple(random_ltlf(rng, max(1, size // n)) for _ in range(n)))


# Every token kind the tokenizer yields, ill-formed ones included: keywords,
# operators, atoms, symbols, merged words and stray characters.
FUZZ_TOKENS = [
    "true", "false", "!", "X", "N", "F", "G", "U", "R", "&", "|", "(", ")", "=",
    "p0", "p1", "p2", "p01", "p", "a", "b", "c", "d", "zzz", "Xp0", "#", "p0=a", "p1=c",
]


def fuzz_text(rng):
    if rng.random() < 0.5:
        # A printed formula with a few tokens deleted, replaced or inserted.
        printed = reference_format(random_ltlf(rng, rng.randrange(1, 8)))
        tokens = re.findall(r"[()&|!=]|[A-Za-z0-9_]+|\S", printed)
        for _ in range(rng.randrange(3)):
            i = rng.randrange(len(tokens) + 1)
            action = rng.randrange(3)
            if action == 0 and i < len(tokens):
                del tokens[i]
            elif action == 1 and i < len(tokens):
                tokens[i] = rng.choice(FUZZ_TOKENS)
            else:
                tokens.insert(i, rng.choice(FUZZ_TOKENS))
    else:
        tokens = [rng.choice(FUZZ_TOKENS) for _ in range(rng.randrange(9))]
    return rng.choice([" ", "", "  "]).join(tokens)


def test_parse_matches_recursive_descent_reference(alphabet):
    rng = random.Random(11)
    parsed = 0
    reference = lambda text, ab: ReferenceParser(text, ab).parse()
    for _ in range(100_000):
        text = fuzz_text(rng)
        for ab in (None, alphabet):
            want = parse_outcome(reference, text, ab)
            assert parse_outcome(parse, text, ab) == want, text
            parsed += want[0] == "tree"
    # Enough of the strings parse for the trees to be compared too.
    assert parsed > 20_000


def test_nnf_and_format_match_references():
    rng = random.Random(12)
    for _ in range(20_000):
        f = random_ltlf(rng, rng.randrange(1, 30))
        assert nnf(f) == reference_nnf(f)
        assert nnf(f, negated=True) == reference_nnf_neg(f)
        assert format_formula(f) == reference_format(f)


def test_parse_deep_nesting_without_recursion():
    depth = 5_000
    f = parse("X(" * depth + "p0=a" + ")" * depth)
    for _ in range(depth):
        assert type(f) is Next
        f = f.arg
    assert f == Atom(0, "a")
    f = parse("(" * depth + "p0=a U " * depth + "p0=b" + ")" * depth)
    for _ in range(depth):
        assert type(f) is Until and f.left == Atom(0, "a")
        f = f.right
    assert f == Atom(0, "b")
