import random

import pytest

from ibgsolve import (
    Afa,
    ChannelMask,
    Dfa,
    FAnd,
    FAtom,
    FFalse,
    FOr,
    FTrue,
    Lasso,
    Nfa,
    accepts_prefix,
    afa_accepts,
    afa_to_nfa,
    as_afa,
    as_nfa,
    determinize,
    dfa_accepts,
    goal_as_dfa,
    nfa_accepts,
    query_goal,
)
from ibgsolve.automata import formula_eval, minimal_models
from ibgsolve.ltlf import compile_to_afa, parse
from ibgsolve.oracle import _goal_satisfied_on_lasso

import corpus


@pytest.fixture
def match_dfa(alphabet):
    # accepts iff the first letter is (a,c) or (b,d)
    return corpus.first_letter_dfa(alphabet, [("a", "c"), ("b", "d")])


def test_dfa_accepts_follows_table(alphabet, match_dfa):
    assert dfa_accepts(match_dfa, [alphabet.letter(("a", "c"))])
    assert not dfa_accepts(match_dfa, [alphabet.letter(("a", "d"))])


def test_dfa_accepts_accepting_sink(alphabet, match_dfa):
    ac = alphabet.letter(("a", "c"))
    ad = alphabet.letter(("a", "d"))
    for letter in alphabet.letters():
        assert dfa_accepts(match_dfa, [ac, letter])
        assert not dfa_accepts(match_dfa, [ad, letter])


def test_dfa_accepts_bounded_channel(alphabet):
    # mask {0}: channel 1 must not matter
    mask = ChannelMask.of((0,))
    delta = {(0, (0,)): 1, (0, (1,)): 0, (1, (0,)): 1, (1, (1,)): 1}
    dfa = Dfa(alphabet, mask, ("q0", "q1"), 0, frozenset({1}), delta)
    assert dfa_accepts(dfa, [alphabet.letter(("a", "c"))])
    assert dfa_accepts(dfa, [alphabet.letter(("a", "d"))])
    assert not dfa_accepts(dfa, [alphabet.letter(("b", "c"))])
    assert not dfa_accepts(dfa, [alphabet.letter(("b", "d"))])


def test_dfa_requires_total_table(alphabet):
    with pytest.raises(ValueError):
        Dfa(alphabet, alphabet.full_mask(), ("q0",), 0, frozenset(), {})


def test_accepts_prefix_first_letter(alphabet, match_dfa):
    ac = alphabet.letter(("a", "c"))
    ad = alphabet.letter(("a", "d"))
    assert accepts_prefix(match_dfa, Lasso((), (ac,)))
    assert not accepts_prefix(match_dfa, Lasso((), (ad,)))


def test_accepts_prefix_empty_language(alphabet):
    rng = random.Random(7)
    for _ in range(20):
        dfa = corpus.random_dfa(rng, alphabet)
        hollow = Dfa(dfa.alphabet, dfa.mask, dfa.names, dfa.initial, frozenset(), dfa.delta)
        assert not accepts_prefix(hollow, corpus.random_lasso(rng, alphabet))


def test_accepts_prefix_accepting_initial_state(alphabet):
    delta = {(0, letter): 0 for letter in alphabet.letters()}
    dfa = Dfa(alphabet, alphabet.full_mask(), ("q0",), 0, frozenset({0}), delta)
    assert accepts_prefix(dfa, corpus.random_lasso(random.Random(1), alphabet))


def test_accepts_prefix_invariant_under_unrolling():
    rng = random.Random(23)
    for _ in range(80):
        alpha = corpus.random_alphabet(rng)
        goal = corpus.random_goal(rng, alpha)
        lasso = corpus.random_lasso(rng, alpha)
        assert accepts_prefix(goal, lasso) == accepts_prefix(goal, lasso.unrolled())


def test_accepts_prefix_rejects_alphabet_mismatch(alphabet, match_dfa):
    other = corpus.random_alphabet(random.Random(3), max_k=3, max_symbols=2)
    bad = Lasso((), ((9, 9),))
    with pytest.raises(ValueError):
        accepts_prefix(match_dfa, bad)


# ---------------------------------------------------------------------------
# determinize


def contains_ac_nfa(alphabet):
    ac = alphabet.letter(("a", "c"))
    triples = set()
    for letter in alphabet.letters():
        triples.add((0, letter, 0))
        triples.add((1, letter, 1))
    triples.add((0, ac, 1))
    return Nfa(alphabet, alphabet.full_mask(), ("q0", "q1"), 0, frozenset({1}), frozenset(triples))


def test_determinize_contains_letter(alphabet):
    nfa = contains_ac_nfa(alphabet)
    dfa = determinize(nfa)
    # reachable subsets: {q0} and {q0,q1}
    assert dfa.n_states == 2
    assert set(dfa.names) == {"{q0}", "{q0,q1}"}
    rng = random.Random(17)
    for _ in range(200):
        w = corpus.random_word(rng, alphabet)
        assert nfa_accepts(nfa, w) == dfa_accepts(dfa, w)


def test_determinize_deterministic_input_stays_small(alphabet):
    rng = random.Random(31)
    for _ in range(20):
        dfa = corpus.random_dfa(rng, alphabet)
        redone = determinize(as_nfa(dfa))
        assert redone.n_states <= dfa.n_states + 1
        for _ in range(20):
            w = corpus.random_word(rng, alphabet)
            assert dfa_accepts(dfa, w) == dfa_accepts(redone, w)


def test_determinize_no_transitions(alphabet):
    nfa = Nfa(alphabet, alphabet.full_mask(), ("q0",), 0, frozenset(), frozenset())
    dfa = determinize(nfa)
    assert not accepts_prefix(dfa, Lasso((), (alphabet.letter(("a", "c")),)))
    assert not dfa_accepts(dfa, [])


def test_determinize_total_and_language_equal():
    rng = random.Random(101)
    for _ in range(80):
        alpha = corpus.random_alphabet(rng)
        nfa = corpus.random_nfa(rng, alpha, max_states=5)
        dfa = determinize(nfa)
        # totality is enforced by the Dfa constructor; check language agreement
        for _ in range(12):
            w = corpus.random_word(rng, alpha)
            assert nfa_accepts(nfa, w) == dfa_accepts(dfa, w)


# ---------------------------------------------------------------------------
# afa_to_nfa, and afa_to_nfa followed by determinize


def test_minimal_models_antichain():
    f = FAnd((FOr((FAtom(0), FAtom(1))), FOr((FAtom(1), FAtom(2)))))
    models = minimal_models([f])
    assert frozenset({1}) in models
    assert frozenset({0, 2}) in models
    for m in models:
        for other in models:
            assert not (m < other)
    assert all(formula_eval(f, m) for m in models)


def test_minimal_models_constants():
    assert minimal_models([FTrue()]) == [frozenset()]
    assert minimal_models([FFalse()]) == []
    assert minimal_models([]) == [frozenset()]


def test_minimal_models_match_enumeration():
    # 1-4 formulas of FTrue/FFalse/atoms under FAnd/FOr up to depth 4, with
    # atoms repeated among up to 10 states; equal as lists, order included.
    rng = random.Random(79)
    shapes = {"none": 0, "one": 0, "several": 0}
    for _ in range(5000):
        n_atoms = rng.randint(1, 10)
        formulas = [corpus.random_formula(rng, n_atoms, depth=4) for _ in range(rng.randint(1, 4))]
        expected = corpus.reference_minimal_models(formulas)
        assert minimal_models(formulas) == expected
        shapes["none" if not expected else "one" if len(expected) == 1 else "several"] += 1
    assert min(shapes.values()) > 500


def test_afa_to_nfa_syntactic_nfa(alphabet):
    rng = random.Random(47)
    for _ in range(20):
        nfa = corpus.random_nfa(rng, alphabet)
        obligations = afa_to_nfa(as_afa(nfa))
        # minimal models of a disjunction are singletons, so states stay
        # singletons apart from the possibly reachable empty set
        assert obligations.n_states <= nfa.n_states + 1
        for _ in range(15):
            w = corpus.random_word(rng, alphabet)
            assert nfa_accepts(nfa, w) == nfa_accepts(obligations, w)


def test_afa_to_nfa_conjunction(alphabet):
    # q0 splits into obligations {q1, q2}; both are accepting true-sinks
    delta = {}
    for letter in alphabet.letters():
        delta[(0, letter)] = FAnd((FAtom(1), FAtom(2)))
        delta[(1, letter)] = FTrue()
        delta[(2, letter)] = FTrue()
    afa = Afa(alphabet, alphabet.full_mask(), ("q0", "q1", "q2"), 0, frozenset({1, 2}), delta)
    nfa = afa_to_nfa(afa)
    assert "{q1,q2}" in nfa.names
    target = nfa.names.index("{q1,q2}")
    assert target in nfa.accepting
    first = alphabet.letter(("a", "c"))
    assert (0, first, target) in nfa.triples
    assert nfa_accepts(nfa, [first])


def test_afa_to_nfa_false_transitions(alphabet):
    delta = {(0, letter): FFalse() for letter in alphabet.letters()}
    afa = Afa(alphabet, alphabet.full_mask(), ("q0",), 0, frozenset(), delta)
    nfa = afa_to_nfa(afa)
    assert not nfa.accepting
    assert not nfa.triples


def test_afa_to_nfa_matches_direct_evaluation():
    rng = random.Random(53)
    for _ in range(120):
        alpha = corpus.random_alphabet(rng)
        afa = corpus.random_afa(rng, alpha)
        nfa = afa_to_nfa(afa)
        for _ in range(10):
            w = corpus.random_word(rng, alpha)
            assert afa_accepts(afa, w) == nfa_accepts(nfa, w)


def test_afa_to_nfa_reachable_only():
    rng = random.Random(59)
    for _ in range(40):
        alpha = corpus.random_alphabet(rng)
        afa = corpus.random_afa(rng, alpha)
        nfa = afa_to_nfa(afa)
        reachable = {nfa.initial}
        frontier = [nfa.initial]
        succ = nfa.successors
        while frontier:
            q = frontier.pop()
            for rl in alpha.restricted_letters(nfa.mask):
                for p in succ.get((q, rl), ()):
                    if p not in reachable:
                        reachable.add(p)
                        frontier.append(p)
        assert reachable == set(range(nfa.n_states))


def test_afa_to_dfa_by_word_sampling():
    rng = random.Random(61)
    for _ in range(60):
        alpha = corpus.random_alphabet(rng)
        afa = corpus.random_afa(rng, alpha)
        dfa = determinize(afa_to_nfa(afa))
        for _ in range(15):
            w = corpus.random_word(rng, alpha)
            assert afa_accepts(afa, w) == dfa_accepts(dfa, w)


def test_afa_to_dfa_empty_language(alphabet):
    delta = {(0, letter): FFalse() for letter in alphabet.letters()}
    afa = Afa(alphabet, alphabet.full_mask(), ("q0",), 0, frozenset(), delta)
    dfa = determinize(afa_to_nfa(afa))
    assert dfa.n_states <= 2
    assert not dfa.accepting


def test_afa_to_dfa_accepts_empty_word(alphabet):
    delta = {(0, letter): FTrue() for letter in alphabet.letters()}
    afa = Afa(alphabet, alphabet.full_mask(), ("q0",), 0, frozenset({0}), delta)
    dfa = determinize(afa_to_nfa(afa))
    assert dfa.initial in dfa.accepting


# ---------------------------------------------------------------------------
# as_nfa: the one NFA normal form of every goal kind


LTLF_GOALS = [
    "F(p0=a & p1=c)",
    "G(p0=a)",
    "p0=a U p1=d",
    "X p1=c",
    "N p0=b",
    "F(p0=b) & G(p1=c | X p0=a)",
    "(p0=a R p1=d) | F(p1=c & X p1=d)",
    "true",
]


def normal_form_goals():
    """Random DFA, NFA and AFA goals, then LTLf-compiled AFAs."""
    rng = random.Random(67)
    for _ in range(150):
        alpha = corpus.random_alphabet(rng)
        yield corpus.random_goal(rng, alpha)
    alpha = corpus.two_channel_alphabet()
    for text in LTLF_GOALS:
        yield compile_to_afa(parse(text, alpha), alpha)


def test_as_nfa_keeps_the_language():
    rng = random.Random(71)
    direct = {Dfa: dfa_accepts, Nfa: nfa_accepts, Afa: afa_accepts}
    kinds = set()
    for goal in normal_form_goals():
        nfa = as_nfa(goal)
        assert isinstance(nfa, Nfa)
        kinds.add(type(goal))
        for _ in range(12):
            w = corpus.random_word(rng, goal.alphabet)
            assert nfa_accepts(nfa, w) == direct[type(goal)](goal, w)
    assert kinds == {Dfa, Nfa, Afa}


def test_accepts_prefix_matches_oracle():
    rng = random.Random(73)
    with_prefix = 0
    for goal in normal_form_goals():
        for _ in range(10):
            lasso = corpus.random_lasso(rng, goal.alphabet)
            with_prefix += bool(lasso.prefix)
            expected = _goal_satisfied_on_lasso(goal, lasso, 10**6)
            assert accepts_prefix(goal, lasso) == expected
    assert with_prefix > 500


@pytest.mark.parametrize("convert", [as_nfa, query_goal, goal_as_dfa])
def test_normal_forms_reject_non_goals(alphabet, convert):
    with pytest.raises(TypeError, match="not a goal automaton"):
        convert(alphabet)


# ---------------------------------------------------------------------------
# The bitmask conversions against the frozenset references in corpus.


def conversion_inputs():
    """Random AFAs and NFAs, then LTLf-compiled AFAs."""
    rng = random.Random(89)
    for _ in range(300):
        alpha = corpus.random_alphabet(rng)
        yield corpus.random_afa(rng, alpha, max_states=5)
        yield corpus.random_nfa(rng, alpha, max_states=6)
    alpha = corpus.two_channel_alphabet()
    for text in LTLF_GOALS + ["F(p0=a & X(p1=d)) & F(p0=b & X(p1=c))", "G(p0=a | X p1=c) U F(p1=d)"]:
        yield compile_to_afa(parse(text, alpha), alpha)


def test_conversions_match_references():
    def nfa_parts(nfa):
        return nfa.names, nfa.initial, nfa.accepting, nfa.triples

    def dfa_parts(dfa):
        return dfa.names, dfa.initial, dfa.accepting, dfa.delta

    afas = nfas = 0
    for automaton in conversion_inputs():
        if isinstance(automaton, Afa):
            afas += 1
            nfa = afa_to_nfa(automaton)
            assert nfa_parts(nfa) == nfa_parts(corpus.reference_afa_to_nfa(automaton))
        else:
            nfas += 1
            nfa = automaton
        assert dfa_parts(determinize(nfa)) == dfa_parts(corpus.reference_determinize(nfa))
    assert afas >= 300 and nfas == 300
