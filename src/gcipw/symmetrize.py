"""The symmetrization ansatz: constrained pairing patterns, truncated
bilocal 2n-point functions, the symmetrized candidate correlator and exact
ratio fitting of the per-n constants.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, List, Sequence, Tuple

from .kinematics import DegenerateConfiguration, PointConfig

Pattern = Tuple[Tuple[int, int], ...]
Evaluator = Callable[[PointConfig], Fraction]


class NotSymmetrizable(Exception):
    """The fitted ratio is not constant across configurations."""


@functools.cache
def enumerate_patterns(n: int) -> Tuple[Pattern, ...]:
    """All (2n-1)!! pairings of {1..2n} in canonical order, computed once
    per n.

    Each pattern has 1 as its first entry, increasing first elements,
    and each pair sorted; indices here are 0-based.
    """
    if n < 1:
        raise ValueError("need n >= 1")

    def rec(items: Tuple[int, ...]):
        if not items:
            yield ()
            return
        first = items[0]
        for k in range(1, len(items)):
            rest = items[1:k] + items[k + 1 :]
            for tail in rec(rest):
                yield ((first, items[k]),) + tail

    return tuple(rec(tuple(range(2 * n))))


def double_factorial_odd(n: int) -> int:
    """(2n - 1)!!"""
    return math.prod(range(1, 2 * n, 2))


def w1_full(v1_eval: Evaluator, config: PointConfig, pattern: Pattern) -> Fraction:
    """w1 for one pattern: the bilocal 2n-point over cubed pair intervals.

    The prefactor is formed on the integer intervals of the configuration
    and rescaled by L^(6n), the degree of its n cubed poles.
    """
    idx = [p for pair in pattern for p in pair]
    sub = config.subset(idx)
    den = 1
    for i, j in pattern:
        r = config.int_rho[i][j]
        if r == 0:
            raise DegenerateConfiguration(f"rho({i + 1},{j + 1}) = 0 in a prefactor")
        den *= r**3
    return Fraction(config.scale ** (6 * len(pattern)), den) * v1_eval(sub)


def w1_truncated(
    n: int, v1_eval: Evaluator, config: PointConfig, pattern: Pattern
) -> Fraction:
    """Truncated bilocal 2n-point function for one pairing pattern.

    Identical to w1 for n < 4; for n >= 4 the products over partitions of
    the n pairs into groups of at least two pairs are subtracted (for
    n = 4 these are the three pair-of-pairs products).
    """
    if n != len(pattern):
        raise ValueError("pattern size mismatch")
    if n < 4:
        return w1_full(v1_eval, config, pattern)
    total = w1_full(v1_eval, config, pattern)
    for partition in _all_partitions_min2(list(range(n))):
        if len(partition) == 1:
            continue
        prod = Fraction(1)
        for part in partition:
            sub_pattern = tuple(pattern[k] for k in part)
            prod *= w1_truncated(len(part), v1_eval, config, sub_pattern)
        total -= prod
    return total


def _all_partitions_min2(blocks: List[int]):
    """All partitions (including the trivial one) with parts of size >= 2."""
    if not blocks:
        yield []
        return
    first, rest = blocks[0], blocks[1:]
    for k in range(1, len(rest) + 1):
        for mates in itertools.combinations(rest, k):
            part = [first, *mates]
            remaining = [b for b in rest if b not in mates]
            for tail in _all_partitions_min2(remaining):
                yield [part] + tail


def symmetrized_wt(
    n: int, lam: Fraction, v1_eval: Evaluator, config: PointConfig
) -> Fraction:
    """lambda_n times the constrained-pairing sum of truncated w1's."""
    if len(config) != 2 * n:
        raise ValueError("configuration size mismatch")
    total = Fraction(0)
    for pattern in enumerate_patterns(n):
        total += w1_truncated(n, v1_eval, config, pattern)
    return Fraction(lam) * total


def fit_lambda(
    n: int,
    reference_eval: Evaluator,
    v1_eval: Evaluator,
    configs: Sequence[PointConfig],
) -> Fraction:
    """The exact ratio reference / pairing-sum, verified constant.

    Raises NotSymmetrizable when the ratio varies across the supplied
    configurations (the ansatz fails for this input), and ValueError when
    the reference vanishes everywhere it was sampled.
    """
    if len(configs) < 2:
        raise ValueError("need at least two configurations")
    ratio = None
    for config in configs:
        denom = symmetrized_wt(n, Fraction(1), v1_eval, config)
        ref = reference_eval(config)
        if denom == 0:
            if ref != 0:
                raise NotSymmetrizable("pairing sum vanishes but reference does not")
            continue
        r = ref / denom
        if ratio is None:
            ratio = r
        elif r != ratio:
            raise NotSymmetrizable(f"ratio varies: {ratio} vs {r}")
    if ratio is None or ratio == 0:
        raise ValueError("reference vanished at every configuration")
    return ratio
