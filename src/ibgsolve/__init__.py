"""Equilibrium realizability and verification for iterated Boolean games
with finite-word automata goals (DFA, NFA, AFA) and an LTLf frontend."""

from .alphabet import (
    ChannelMask,
    Lasso,
    Letter,
    ProductAlphabet,
    UltimatelyPeriodicWord,
    project,
)
from .automata import (
    Afa,
    Dfa,
    FAnd,
    FAtom,
    FFalse,
    FOr,
    FTrue,
    GoalAutomaton,
    Nfa,
    accepts_prefix,
    afa_accepts,
    afa_to_nfa,
    as_afa,
    as_nfa,
    determinize,
    dfa_accepts,
    nfa_accepts,
)
from .game import (
    GlobalMoore,
    Ibg,
    MooreMachine,
    StrategyProfile,
    primary_trace,
    product_profile,
    winning_set,
)
from .oracle import (
    OneSidedResult,
    OracleConfig,
    OracleOverflow,
    enumerate_profiles,
    oracle_realizable_onesided,
    oracle_verify,
    profile_count,
)
from .realizability import (
    DeviationGame,
    ProductBuchi,
    RealizabilityVerdict,
    buchi_nonempty,
    build_deviation_game,
    extract_witness,
    goal_as_dfa,
    realizable,
)
from .safety import Arena, SafetyInstance, SafetyResult, solve_safety
from .verification import (
    VerificationReport,
    Violation,
    i_query,
    j_query,
    query_goal,
    verify,
)

__all__ = [name for name in dir() if not name.startswith("_")]
