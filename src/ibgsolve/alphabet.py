"""Product alphabets, letters, channel masks, and ultimately periodic words.

A letter over a product alphabet picks one symbol per agent channel and is
represented as a tuple of symbol indices, one per channel.  Restricted
letters (projections onto a channel mask) use the same tuple representation
over the mask's channels in ascending agent order.  The global alphabet is
the cartesian product of the channels.  `ProductAlphabet.letters` generates
it lazily in lexicographic order; the realizability product, the profile
product and the oracle materialise that sequence once per query and index
letters by position in it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import getitem
from typing import Iterable, Iterator, Sequence

Letter = tuple[int, ...]


@dataclass(frozen=True)
class ChannelMask:
    """An ordered subset of agent channels an automaton or machine reads."""

    agents: tuple[int, ...]

    def __post_init__(self):
        if list(self.agents) != sorted(set(self.agents)):
            raise ValueError("mask channels must be sorted and unique")
        if self.agents and self.agents[0] < 0:
            raise ValueError("mask channels must be nonnegative")

    @staticmethod
    def of(agents: Iterable[int]) -> "ChannelMask":
        return ChannelMask(tuple(sorted(set(agents))))

    @staticmethod
    def full(k: int) -> "ChannelMask":
        return ChannelMask(tuple(range(k)))

    def union(self, agents: Iterable[int]) -> "ChannelMask":
        return ChannelMask.of(set(self.agents) | set(agents))

    def __contains__(self, agent: int) -> bool:
        return agent in self.agents

    def __len__(self) -> int:
        return len(self.agents)


def project(letter: Letter, mask: ChannelMask) -> Letter:
    """Restrict a letter to the mask's channels, in ascending agent order."""
    return tuple([letter[i] for i in mask.agents])


@dataclass(frozen=True)
class ProductAlphabet:
    """Per-agent symbol lists; channel i holds agent i's own symbols."""

    channels: tuple[tuple[str, ...], ...]

    def __post_init__(self):
        if not self.channels:
            raise ValueError("alphabet needs at least one channel")
        object.__setattr__(self, "channels", tuple(tuple(c) for c in self.channels))
        for i, channel in enumerate(self.channels):
            if not channel:
                raise ValueError(f"channel {i} is empty")
            if len(set(channel)) != len(channel):
                raise ValueError(f"channel {i} has duplicate symbols")

    @property
    def k(self) -> int:
        return len(self.channels)

    def size(self) -> int:
        n = 1
        for channel in self.channels:
            n *= len(channel)
        return n

    def letters(self) -> Iterator[Letter]:
        """All letters in lexicographic index order, generated lazily."""
        return itertools.product(*(range(len(c)) for c in self.channels))

    def restricted_letters(self, mask: ChannelMask) -> Iterator[Letter]:
        return itertools.product(*(range(len(self.channels[i])) for i in mask.agents))

    def full_mask(self) -> ChannelMask:
        return ChannelMask.full(self.k)

    def letter(self, symbols: Sequence[str], mask: ChannelMask | None = None) -> Letter:
        """Turn a sequence of symbol names into an index tuple."""
        agents = mask.agents if mask is not None else tuple(range(self.k))
        if len(symbols) != len(agents):
            raise ValueError(f"expected {len(agents)} symbols, got {len(symbols)}")
        tables = self._symbol_tables.get(agents)
        if tables is None:
            tables = self._symbol_tables[agents] = tuple(
                {sym: x for x, sym in enumerate(self.channels[i])} for i in agents
            )
        try:
            return tuple(map(getitem, tables, symbols))
        except (KeyError, TypeError):
            for i, sym in zip(agents, symbols):
                if sym not in self.channels[i]:
                    raise ValueError(f"unknown symbol {sym!r} on channel {i}") from None
            raise

    @cached_property
    def _symbol_tables(self) -> dict[tuple[int, ...], tuple[dict[str, int], ...]]:
        # Per mask, one symbol -> index dict per channel, filled on first
        # use.  Not a dataclass field, so equality and hashing still see the
        # channels only.
        return {}

    def symbols(self, letter: Letter, mask: ChannelMask | None = None) -> tuple[str, ...]:
        agents = mask.agents if mask is not None else range(self.k)
        return tuple(self.channels[i][x] for i, x in zip(agents, letter))

    def format(self, letter: Letter, mask: ChannelMask | None = None) -> str:
        return "(" + ",".join(self.symbols(letter, mask)) + ")"

    def check_letter(self, letter: Letter) -> None:
        if len(letter) != self.k:
            raise ValueError(f"letter {letter!r} has wrong arity for {self.k} channels")
        for i, x in enumerate(letter):
            if not 0 <= x < len(self.channels[i]):
                raise ValueError(f"letter {letter!r} out of range on channel {i}")


@dataclass(frozen=True)
class UltimatelyPeriodicWord:
    """A lasso: the infinite word prefix . period^omega in finite form."""

    prefix: tuple[Letter, ...]
    period: tuple[Letter, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        object.__setattr__(self, "prefix", tuple(tuple(x) for x in self.prefix))
        object.__setattr__(self, "period", tuple(tuple(x) for x in self.period))

    @property
    def span(self) -> int:
        return len(self.prefix) + len(self.period)

    def at(self, t: int) -> Letter:
        if t < len(self.prefix):
            return self.prefix[t]
        return self.period[(t - len(self.prefix)) % len(self.period)]

    def position(self, t: int) -> int:
        """Canonical index in [0, span): positions inside the period wrap."""
        if t < len(self.prefix):
            return t
        return len(self.prefix) + (t - len(self.prefix)) % len(self.period)

    def unrolled(self) -> "UltimatelyPeriodicWord":
        """Append one copy of the period to the prefix; same infinite word."""
        return UltimatelyPeriodicWord(self.prefix + self.period, self.period)


Lasso = UltimatelyPeriodicWord
