"""The symmetrization ansatz: constrained pairing patterns, the
prefactored bilocal 2n-point functions, the symmetrized candidate
correlator and exact ratio fitting of the per-n constants.
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Callable, Sequence, Tuple

from .exact.series import common_denominator
from .kinematics import PointConfig

Pattern = Tuple[Tuple[int, int], ...]
Evaluator = Callable[[PointConfig], Fraction]


class NotSymmetrizable(Exception):
    """The fitted ratio is not constant across configurations."""


def laplace_step(seq: Sequence[int]):
    """One step of the Laplace expansion of a Pfaffian along seq[0]:
    (sign, (seq[0], seq[j]), seq without both) for j = 1, 2, ..., with
    sign (-1)^(j-1).  Expanding to the end pairs up seq, and a pairing's
    sign is then (-1)^(chord crossings) of its pairs drawn along seq."""
    for j in range(1, len(seq)):
        yield (-1) ** (j - 1), (seq[0], seq[j]), seq[1:j] + seq[j + 1 :]


def signed_pairings(seq: Sequence[int]):
    """(sign, pairing) for every perfect pairing of seq, by `laplace_step`
    to the end: the terms of the Pfaffian of a matrix read along seq."""
    if not seq:
        yield 1, ()
        return
    for sign, pair, rest in laplace_step(seq):
        for tail_sign, tail in signed_pairings(rest):
            yield sign * tail_sign, (pair, *tail)


@functools.cache
def enumerate_patterns(n: int) -> Tuple[Pattern, ...]:
    """All (2n-1)!! pairings of {1..2n} in canonical order, computed once
    per n: the `signed_pairings` of 0, 1, ..., 2n - 1 without their signs.

    Each pattern has 1 as its first entry, increasing first elements,
    and each pair sorted; indices here are 0-based.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    return tuple(pairing for _, pairing in signed_pairings(tuple(range(2 * n))))


def double_factorial_odd(n: int) -> int:
    """(2n - 1)!!"""
    return math.prod(range(1, 2 * n, 2))


def symmetrized_wt(
    n: int, lam: Fraction, v1_eval: Evaluator, config: PointConfig
) -> Fraction:
    """lambda_n times the constrained-pairing sum of truncated w1's: v1 on
    a pattern's points over the cubed intervals of its pairs.

    `v1_eval` is the connected bilocal 2n-point function.  The full one is
    a sum, over partitions of the blocks into parts of at least two, of
    products of connected pieces, and the prefactor of w1 is a product
    over the pairs.  So the truncation of w1 formed from the full function
    is w1 formed from the connected one, pattern by pattern.

    Why lambda_n is 2 for the Weyl and 1 for the scalar composite at every
    n: a triple (pattern, block cycle of the connected function,
    orientation) is a directed Hamiltonian cycle from point 0 whose edges
    alternate between pattern pairs and links, together with a parity,
    the kind of its first edge.  There are
    (2n - 1)!! 2^(n-1) (n - 1)! 2 = 2 (2n - 1)! triples, one per walk of
    `l1_truncated_npoint`.  A pair edge carries slash(z_a - z_b) / rho^3,
    the chi propagator, and a link carries slash+(z_a - z_b) / rho^2,
    the psi propagator, so each triple is one walk of l1 term by term,
    and the -1 of a closed fermion loop (the walks and their sign are in
    the `freefield` module docstring) is the overall minus of
    `cycle_trace_numerator`.
    The `/ 2` in `v1_weyl_connected` leaves lambda_n = 2.  The scalar
    terms carry 1/rho^3 and 1/rho with one orientation per cycle, the
    walks of `l0_truncated_npoint`, so lambda_n = 1.
    The v1 values are summed over one denominator (`common_denominator`)
    and the prefactors over R, rho^3 over all pairs on the integer form, a
    multiple of each pattern's; R comes first, so a coincident pair raises.
    A pattern's pole is read from the flat table of its relabeled points.
    """
    if len(config) != 2 * n:
        raise ValueError("configuration size mismatch")
    pole = config.pole(itertools.combinations(range(2 * n), 2)) ** 3
    subs = [config.subset([p for pair in pat for p in pair]) for pat in enumerate_patterns(n)]
    nums, den = common_denominator([v1_eval(sub) for sub in subs])
    pairs = slice(1, None, 4 * n + 2)  # the entries (2k, 2k + 1) of a flat table
    total = sum(num * (pole // math.prod(sub.flat_rho[pairs]) ** 3) for num, sub in zip(nums, subs))
    return Fraction(lam) * Fraction(total * config.scale ** (6 * n), den * pole)


def fit_lambda(
    n: int,
    reference_eval: Evaluator,
    v1_eval: Evaluator,
    configs: Sequence[PointConfig],
) -> Fraction:
    """The exact ratio reference / pairing-sum, verified constant.

    `v1_eval` is the connected bilocal 2n-point function, as in
    `symmetrized_wt`.

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
