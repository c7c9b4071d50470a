"""Thermal series, elliptic functions, Gibbs correlators and the numeric
modular / KMS checks."""

import cmath
import math
import random
from collections.abc import Sequence
from fractions import Fraction as F

import pytest

from gcipw import thermal
from gcipw.exact import QSeries, Quaternion, lambert_series
from gcipw.thermal import (
    WEYL_VACUUM_ENERGY,
    bernoulli,
    eisenstein_G,
    elliptic_p1,
    elliptic_p1_11,
    elliptic_p2_11,
    energy_mean_scalar,
    energy_mean_weyl,
    g2_anomaly_check,
    gibbs_scalar_2pt,
    gibbs_scalar_modes,
    gibbs_weyl_2pt,
    harmonic_dimension,
    kms_translate_sum_check,
    modular_check_G,
    p1_lattice,
    scalar_vacuum_2pt,
    solve_isotropic,
    theta_form_F,
    theta_form_checks,
    weyl_modular_combination,
    weyl_vacuum_2pt,
)

ALPHA = 0.37
U1 = (0.0, 0.0, 0.0, 1.0)
U2 = (math.sin(2 * math.pi * ALPHA), 0.0, 0.0, math.cos(2 * math.pi * ALPHA))


class TestBernoulli:
    def test_values(self):
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(6) == F(1, 42)
        assert -bernoulli(4) / 8 == F(1, 240)

    def test_odd_vanish(self):
        assert bernoulli(3) == 0 and bernoulli(5) == 0


class TestEisenstein:
    def test_g4_constant_and_divisors(self):
        g4 = eisenstein_G(2, 12)
        assert g4[0] == F(1, 240)
        assert g4[4] == 9  # sigma_3(2)
        assert g4[12] == 1 + 8 + 27 + 216  # sigma_3(6) = 252

    def test_g2_constant(self):
        assert eisenstein_G(1, 5)[0] == F(-1, 24)


class TestEnergyMeans:
    def test_scalar4_is_weight4_form(self):
        assert energy_mean_scalar(4, 100) == eisenstein_G(2, 100)
        assert energy_mean_scalar(4, 10)[0] == F(1, 240)

    def test_scalar4_planck_blocks(self):
        # n-th fluctuation block weight is n^3 (Planck shape)
        e4 = energy_mean_scalar(4, 30)
        # q^5 collects n=5 (5^3) and n=1 (1) blocks
        assert e4[10] == 125 + 1

    def test_scalar6_combination(self):
        e6 = energy_mean_scalar(6, 100)
        combo = (eisenstein_G(3, 100) - eisenstein_G(2, 100)) * F(1, 12)
        assert e6 == combo
        assert e6[0] == F(-31, 12 * math.factorial(7))

    def test_scalar6_block_weights(self):
        blocks = {n: F(n**3 * (n * n - 1), 12) for n in range(1, 5)}
        assert blocks[3] == 18 and blocks[4] == 80
        # the displayed expansion omits the n = 2 block, which is 2
        assert blocks[2] == 2
        assert energy_mean_scalar(6, 10)[4] == 2

    def test_scalar_vacuum_constants_d8_d10(self):
        # the Casimir energies on R x S^(D-1), derived from the Bernoulli
        # constants of the G_(2j+2) in the mode weight
        assert energy_mean_scalar(8, 10)[0] == F(289, 3628800)
        assert energy_mean_scalar(10, 10)[0] == F(-317, 22809600)

    @pytest.mark.parametrize("D", [4, 6, 8])
    def test_weights_are_the_harmonic_dimensions(self, D, monkeypatch):
        # a fresh series through n = 600 against the per-n Lambert build
        d0 = (D - 2) // 2
        monkeypatch.setattr(thermal, "_SERIES", {})
        got = energy_mean_scalar(D, 600)
        terms = ((2 * n, n * harmonic_dimension(n - d0, D)) for n in range(d0, 601))
        want = lambert_series(thermal._scalar_vacuum_constant(D), terms, 1, 1200)
        assert (got.num, got.den, got.max_exp) == (want.num, want.den, want.max_exp)

    def test_odd_dimension_rejected(self):
        with pytest.raises(ValueError):
            energy_mean_scalar(5, 10)

    def test_weyl_leading_terms(self):
        w = energy_mean_weyl(20)
        assert w[0] == WEYL_VACUUM_ENERGY
        assert w[3] == 6
        assert w[5] == 30  # (2*2+1)*2*3

    def test_weyl_two_line_identity(self):
        w = energy_mean_weyl(50)
        combo = weyl_modular_combination(50)
        assert w == combo

    def test_weyl_printed_form_is_sign_flipped(self):
        # the printed combination is the negation of the correct one; its
        # constant term -17/960 is what constant-matching alone would give,
        # and it disagrees with the Fermi series
        combo = weyl_modular_combination(50)
        assert combo[0] == F(17, 960)
        assert (-combo)[0] == F(-17, 960)
        assert energy_mean_weyl(50) != -combo


BUILDERS = {
    "G2": lambda n: eisenstein_G(1, n),
    "G4": lambda n: eisenstein_G(2, n),
    "G6": lambda n: eisenstein_G(3, n),
    "E4": lambda n: energy_mean_scalar(4, n),
    "E6": lambda n: energy_mean_scalar(6, n),
    "E8": lambda n: energy_mean_scalar(8, n),
    "weyl": energy_mean_weyl,
    "combo": weyl_modular_combination,
    "F": theta_form_F,
}


class TestSeriesWindows:
    """Each builder cuts shorter requests from the longest series it has
    built; a window must be exactly the series a fresh build gives."""

    @pytest.mark.parametrize(
        "orders",
        [[61, 40, 17, 3, 1], [1, 3, 17, 40, 61], [17, 17, 40, 40, 17, 61, 61]],
        ids=["descending", "ascending", "repeated"],
    )
    def test_window_is_a_fresh_build(self, orders, monkeypatch):
        shared = {}
        for n in orders:
            for name, build in BUILDERS.items():
                monkeypatch.setattr(thermal, "_SERIES", shared)
                got = build(n)
                monkeypatch.setattr(thermal, "_SERIES", {})
                want = build(n)
                assert (got.num, got.den, got.max_exp) == (want.num, want.den, want.max_exp), (name, n)
        assert len(shared) == len(BUILDERS)
        assert {s.max_exp for s in shared.values()} == {max(orders), 2 * max(orders)}

    @pytest.mark.parametrize("name", list(BUILDERS))
    def test_mutating_a_result_leaves_the_next_call_alone(self, name, monkeypatch):
        monkeypatch.setattr(thermal, "_SERIES", {})
        build = BUILDERS[name]
        first = build(30)
        want = (dict(first.num), first.den, first.max_exp)
        first.num[0] = 99
        for n in (30, 12):
            build(n).num[0] = 99
        again = build(30)
        assert (again.num, again.den, again.max_exp) == want

    @pytest.mark.parametrize("name", list(BUILDERS))
    @pytest.mark.parametrize("n", [0, -3, -5])
    def test_order_below_one_is_rejected(self, name, n, monkeypatch):
        # also with a series stored, and nothing is stored for the bad order
        monkeypatch.setattr(thermal, "_SERIES", {})
        with pytest.raises(ValueError):
            BUILDERS[name](n)
        assert thermal._SERIES == {}
        BUILDERS[name](10)
        stored = dict(thermal._SERIES)
        with pytest.raises(ValueError):
            BUILDERS[name](n)
        assert thermal._SERIES == stored


class TestLambertOracle:
    """The one-pass Lambert builder against brute-force divisor sums.

    The builder feeds both sides of the energy/Eisenstein identities, so
    these expected coefficients come from divisor loops instead.
    """

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_eisenstein_divisor_sums(self, k):
        g = eisenstein_G(k, 2000)
        assert g.max_exp == 4000
        for m in list(range(1, 301)) + [1024, 1999, 2000]:
            sigma = sum(d ** (2 * k - 1) for d in range(1, m + 1) if m % d == 0)
            assert g[2 * m] == sigma, m

    def test_weyl_odd_divisor_sums(self):
        w = energy_mean_weyl(601)
        assert w.max_exp == 601 and w[0] == WEYL_VACUUM_ENERGY
        for m in range(1, 602):
            want = sum(
                (-1) ** (m // d - 1) * d * (d * d - 1) // 4
                for d in range(3, m + 1, 2)
                if m % d == 0
            )
            assert w[m] == want, m


class TestThetaForm:
    def test_constant(self):
        assert theta_form_F(20)[0] == F(-1, 24)

    def test_t2_invariance_is_exact_on_series(self):
        # shifting tau by 2 fixes q^(1/2) exactly, so the series is unchanged;
        # numerically the residual is machine-level
        checks = theta_form_checks(1.3j, 200)
        assert checks["T2"] < 1e-14

    def test_s_residual(self):
        assert theta_form_checks(1.3j, 300)["S"] < 1e-8


class TestModular:
    def test_weight4(self):
        assert modular_check_G(2, 1.1j, 200) < 1e-10
        assert modular_check_G(2, 0.3 + 1.2j, 200) < 1e-10

    def test_weight6(self):
        assert modular_check_G(3, 0.3 + 1.2j, 200) < 1e-10

    def test_g2_anomaly(self):
        assert g2_anomaly_check(1.3j, 300) < 1e-10
        assert g2_anomaly_check(1j, 300) < 1e-10

    @pytest.mark.parametrize("tau", [1.1j, 0.3 + 1.2j])
    def test_weight4_is_the_max_of_the_s_and_t_residuals(self, tau):
        g = eisenstein_G(2, 200)
        base, _ = g.eval(tau)
        s_val, _ = g.eval(-1 / tau)
        t_val, _ = g.eval(tau + 1)
        want = max(abs(tau ** (-4) * s_val - base), abs(t_val - base))
        assert modular_check_G(2, tau, 200) == want

    @pytest.mark.parametrize("tau", [0j, 2.0, -1j, 0.5 - 0.2j])
    def test_im_tau_must_be_positive(self, tau):
        # QSeries.eval at tau, the first point each check evaluates, rejects it
        for check in (
            lambda: modular_check_G(2, tau, 20),
            lambda: g2_anomaly_check(tau, 20),
            lambda: theta_form_checks(tau, 20),
        ):
            with pytest.raises(ValueError, match="Im tau > 0"):
                check()

    def test_g2_anomaly_large_imag(self):
        assert g2_anomaly_check(4j, 300) < 1e-10

    def test_g2_at_fixed_point(self):
        # at tau = i the anomaly pins G2(i) = -1/(8 pi)
        g2 = eisenstein_G(1, 200)
        val, _ = g2.eval(1j)
        assert abs(val - (-1 / (8 * math.pi))) < 1e-12


def fraction_eval(series, tau):
    """QSeries.eval term by term on Fractions: complex(c) * q^(k/2) in key
    order, and the bound from the largest |coefficient| in the window."""
    qh = cmath.exp(1j * cmath.pi * tau)
    r = abs(qh)
    coeffs = series.coeffs
    total = 0j
    for k in sorted(coeffs):
        total += complex(coeffs[k]) * qh**k
    edge = max((abs(complex(c)) for c in coeffs.values()), default=1.0)
    return total, edge * r ** (series.max_exp + 1) / (1 - r)


def full_loop_p1(zeta, tau, order):
    """elliptic_p1's q-expansion summed through every n <= order."""
    q = cmath.exp(2j * math.pi * tau)
    total = math.pi * thermal._cot(math.pi * zeta)
    for n in range(1, order + 1):
        qn = q**n
        total += 4 * math.pi * qn / (1 - qn) * cmath.sin(2 * math.pi * n * zeta)
    return total


def full_loop_modes(zeta, alpha, tau, order):
    """gibbs_scalar_modes summed through every n <= order."""
    q = cmath.exp(2j * math.pi * tau)
    sa = math.sin(2 * math.pi * alpha)
    total = scalar_vacuum_2pt(zeta, alpha)
    for n in range(1, order + 1):
        qn = q**n
        total += 2 * qn / (1 - qn) * math.sin(2 * math.pi * n * alpha) / sa * cmath.cos(
            2 * math.pi * n * zeta)
    return total


def bits(z: complex) -> tuple:
    """z exactly, with the signs of zeros."""
    return z.real.hex(), z.imag.hex()


class CountingSequence(Sequence):
    """A sequence that records the indices read through s[i]."""

    def __init__(self, items):
        self.items, self.reads = items, []

    def __len__(self):
        return len(self.items)

    def __getitem__(self, i):
        self.reads.append(i)
        return self.items[i]


# Im tau from 0.01 to 4, with Re tau across a period
GRID_IMAGS = (0.01, 0.05, 0.2, 0.8, 1.2, 1.9, 2.4, 3.1, 4.0)
GRID_REALS = (-0.5, -0.13, 0.0, 0.3, 0.5)
TAU = -0.41 + 0.85j
EVAL_TAUS = [1.1j, 0.3 + 1.2j, 1.3j, TAU, -1 / TAU, TAU + 1]  # c10 points, then an S/T orbit


class TestQSeriesEval:
    @pytest.mark.parametrize(
        "series",
        [
            eisenstein_G(1, 300),
            eisenstein_G(2, 200),
            eisenstein_G(3, 200),
            energy_mean_weyl(401),
            eisenstein_G(2, 200) * 7 * F(1, 7),  # over 1680, not the reduced 240
            # built directly, with no prefix peaks: the peak is one max,
            # at the front of the window or late in it
            QSeries({k: (-1) ** k * 10**12 // (k + 1) ** 2 for k in range(301)}, 7, 300),
            QSeries({0: 1, 1: -3, 250: 10**20}, 1, 300),
        ],
        ids=["G2", "G4", "G6", "weyl", "G4_unreduced", "direct_front_peak", "direct_late_peak"],
    )
    def test_floats_equal_the_fraction_evaluation(self, series):
        """eval stops once the sum is settled or at the first zero power;
        the reference sums every key.  From Im tau = 2.4 on the zero power
        falls at a key <= 100, where CPython forms qh**k by repeated
        squaring rather than by pow(|qh|, k)."""
        assert cmath.exp(-cmath.pi * 2.4) ** 100 == 0  # |qh|^100
        grid = [complex(x, y) for y in GRID_IMAGS for x in GRID_REALS]
        for tau in [*EVAL_TAUS, *grid]:
            got, want = series.eval(tau), fraction_eval(series, tau)
            assert (bits(got[0]), got[1].hex()) == (bits(want[0]), want[1].hex()), tau

    @pytest.mark.parametrize("order", [50, 200])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bound_covers_the_tail(self, k, order):
        """The bound against the same series eight times longer, down to
        Im tau = 0.02 where the bound is far from tight."""
        short, long = eisenstein_G(k, order), eisenstein_G(k, 8 * order)
        for y in (0.8, 0.2, 0.05, 0.02):
            tau = complex(0.3, y)
            value, bound = short.eval(tau)
            assert abs(long.eval(tau)[0] - value) <= bound, y

    def test_powers_stay_zero_after_the_first_zero(self):
        # what the stop relies on, on both sides of CPython's switch from
        # repeated squaring (k <= 100) to pow(|qh|, k) times a phase
        for y in (*GRID_IMAGS, 5.0, 12.5, 40.0):
            for x in (*GRID_REALS, 0.25, 1 / 3):
                qh = cmath.exp(1j * cmath.pi * complex(x, y))
                powers = [qh**k for k in range(1300)]
                first = next((k for k, p in enumerate(powers) if not p), len(powers))
                assert not any(powers[first:]), (x, y, first)

    def test_eval_reads_no_coefficient_past_the_stop(self):
        # the keys read are an ascending prefix that ends before the first
        # zero power; at 0.1 + 1.2i the sum settles strictly earlier, while at
        # pure-imaginary tau its imaginary part stays 0.0 and only the zero
        # power stops it
        for tau, settles in ((0.1 + 1.2j, True), (0.45 + 0.9j, True), (1.1j, False)):
            series = eisenstein_G(2, 400)
            keys = list(series.num)
            series._nums = spy = CountingSequence(series._nums)
            series.eval(tau)
            qh = cmath.exp(1j * cmath.pi * tau)
            below_zero = keys.index(next(k for k in keys if not qh**k))
            assert 0 < below_zero < len(keys) - 1
            reads = [keys[i] for i in spy.reads]
            assert reads == keys[: len(reads)], tau
            assert (len(reads) < below_zero) if settles else (len(reads) == below_zero), tau

    def test_a_coefficient_past_the_float_range_is_a_value_error(self):
        # not an OverflowError from the integer division, which the CLI would
        # not catch
        with pytest.raises(ValueError, match="key 2 "):
            QSeries({0: 1, 2: 10**400}, 3, 2).eval(1j)
        # q^1000 is 0.0 at tau = i, so the sum stops before the key 2000
        assert QSeries({0: 1, 2000: 10**400}, 3, 2000).eval(1j) == (1 / 3, math.inf)
        g = eisenstein_G(200, 10)  # the constant -B_400 / 800 is near 1e546
        with pytest.raises(ValueError, match="key 0 "):
            g.eval(1j)
        assert g.tail_bound(1j) == math.inf
        with pytest.raises(ValueError):
            modular_check_G(200, 1j, 10)

    def test_a_peak_past_the_float_range_turns_the_settling_stop_off(self):
        # at tau = 0.3 + i the power at key 40 is about 2.5e-55, far below
        # the rounding of the sum (1 + q^(1/2)) / 3, both of whose components
        # are nonzero, under any finite peak; the peak 10**400 / 3 is past the
        # float range, so the sum still reaches the key and fails
        series = QSeries({0: 1, 1: 1, 40: 10**400}, 3, 40)
        for s in (series, series.prefix(40)):
            with pytest.raises(ValueError, match="key 40 "):
                s.eval(0.3 + 1j)


class TestEllipticP1:
    def test_odd(self):
        assert abs(elliptic_p1(-0.23, 1.5j, 40) + elliptic_p1(0.23, 1.5j, 40)) < 1e-12

    def test_half_period_value(self):
        assert abs(elliptic_p1(0.5, 2j, 40)) < 1e-14

    def test_euler_limit(self):
        # q -> 0: p1 -> pi cot(pi zeta)
        val = elliptic_p1(0.23, 30j, 10)
        assert abs(val - math.pi / math.tan(math.pi * 0.23)) < 1e-14

    def test_lattice_cross_check(self):
        for zeta in (0.23, 0.41 + 0.2j):
            a = elliptic_p1(zeta, 1.5j, 60)
            b = p1_lattice(zeta, 1.5j, 25)
            assert abs(a - b) < 1e-12

    @pytest.mark.parametrize("tau", [1e-300j, 0.3 + 1e-18j])
    def test_q_rounding_to_one_raises(self, tau):
        # |exp(2 pi i tau)| rounds to 1 in floats, so 1 - q^n can vanish
        with pytest.raises(ValueError):
            elliptic_p1(0.23, tau, 10)
        with pytest.raises(ValueError):
            gibbs_scalar_modes(0.1, 0.37, tau, 10)


class TestEllipticP11:
    def test_antiperiodicity_in_unit_shift(self):
        z, tau = 0.23, 1.5j
        a = elliptic_p1_11(z + 1, tau, 40)
        b = elliptic_p1_11(z, tau, 40)
        assert abs(a + b) < 1e-8

    def test_antiperiodicity_in_tau_shift(self):
        z, tau = 0.23, 1.5j
        a = elliptic_p1_11(z + tau, tau, 60)
        b = elliptic_p1_11(z, tau, 60)
        assert abs(a + b) < 1e-8

    def test_zero_mode_term(self):
        # the n = 0 term alone is pi/sin(pi zeta)
        val = elliptic_p1_11(0.23, 40j, 5)
        assert abs(val - math.pi / math.sin(math.pi * 0.23)) < 1e-14

    def test_p2_against_finite_difference(self):
        z, tau = 0.23, 1.5j
        h = 1e-6
        fd = -(elliptic_p1_11(z + h, tau, 40) - elliptic_p1_11(z - h, tau, 40)) / (2 * h)
        p2 = elliptic_p2_11(z, tau, 40)
        assert abs(fd - p2) / abs(p2) < 1e-6

class TestGibbsScalar:
    def test_vacuum_limit(self):
        val = gibbs_scalar_2pt(0.13, ALPHA, 10j, 60)
        assert abs(val - scalar_vacuum_2pt(0.13, ALPHA)) < 1e-10

    def test_representations_agree(self):
        a = gibbs_scalar_2pt(0.13, 0.37, 1.5j, 60)
        b = gibbs_scalar_modes(0.13, 0.37, 1.5j, 60)
        assert abs(a - b) < 1e-12

    def test_unit_periodicity(self):
        a = gibbs_scalar_2pt(0.13 + 1, ALPHA, 1.5j, 60)
        b = gibbs_scalar_2pt(0.13, ALPHA, 1.5j, 60)
        assert abs(a - b) < 1e-12

    def test_degenerate_alpha(self):
        # both representations reject sin(2 pi alpha) = 0 before dividing by it
        for alpha in (0, 0.5):
            for gibbs in (gibbs_scalar_2pt, gibbs_scalar_modes):
                with pytest.raises(ValueError, match="degenerate angle"):
                    gibbs(0.13, alpha, 1.5j, 40)

    def test_one_pass_equals_two_p1_loops(self):
        # gibbs_scalar_2pt forms q^n and its weight once for both zeta +- alpha;
        # the floats are those of one elliptic_p1 loop per zeta, written out
        # in full_loop_p1.  Draws with |Im zeta| >= Im tau diverge and raise.
        rng = random.Random(20)
        for _ in range(100):
            zeta = complex(rng.uniform(-1, 1), rng.uniform(-0.5, 0.5))
            alpha = rng.uniform(0.05, 0.45)
            tau = complex(rng.uniform(-1, 1), rng.uniform(0.1, 3))
            if abs(zeta.imag) >= tau.imag:
                with pytest.raises(ValueError, match="diverges"):
                    gibbs_scalar_2pt(zeta, alpha, tau, 72)
                with pytest.raises(ValueError, match="diverges"):
                    elliptic_p1(zeta, tau, 40)
                continue
            want = (full_loop_p1(zeta + alpha, tau, 72) - full_loop_p1(zeta - alpha, tau, 72)) / (
                4 * math.pi * math.sin(2 * math.pi * alpha)
            )
            assert bits(gibbs_scalar_2pt(zeta, alpha, tau, 72)) == bits(want), (zeta, alpha, tau)
            want = full_loop_p1(zeta, tau, 40)
            assert bits(elliptic_p1(zeta, tau, 40)) == bits(want), (zeta, tau)

    @pytest.mark.parametrize("re_tau", [0, 0.3, -0.3, 0.5])
    def test_the_settling_stop_keeps_the_full_loop_bits(self, re_tau):
        # real and complex zeta, with the zeta +- alpha of the Gibbs function;
        # at Re tau = 0 and real zeta a component of p1 stays 0.0 and the
        # loops run to the end
        zetas = (0.13, 0.5, -0.41, 0.23 + 0.2j, -0.3 - 0.45j, 0.07 + 0.5j)
        for im_tau in (0.6, 0.9, 1.5, 2.4, 4.0):
            tau = complex(re_tau, im_tau)
            for zeta in zetas:
                for order in (10, 72, 200):
                    p1 = elliptic_p1(zeta, tau, order)
                    assert bits(p1) == bits(full_loop_p1(zeta, tau, order)), (zeta, tau, order)
                    p1p, p1m = thermal._p1_sums((zeta + ALPHA, zeta - ALPHA), tau, order)
                    assert bits(p1p) == bits(full_loop_p1(zeta + ALPHA, tau, order))
                    assert bits(p1m) == bits(full_loop_p1(zeta - ALPHA, tau, order))
                    modes = gibbs_scalar_modes(zeta, ALPHA, tau, order)
                    assert bits(modes) == bits(full_loop_modes(zeta, ALPHA, tau, order)), (
                        zeta, tau, order)


class TestExpansionDomain:
    # 2 pi n Im zeta passes the float range of sinh at n = 54, where the
    # terms themselves are about 1e-100
    ZETA = 0.37657546235186523 + 2.1132780846426424j
    TAU = 1.6069992006782932 + 2.7955085256799865j

    def test_large_im_zeta_inside_the_domain(self):
        want = p1_lattice(self.ZETA, self.TAU, 25)
        for order in (20, 80, 400):
            assert abs(elliptic_p1(self.ZETA, self.TAU, order) - want) < 1e-12
        for order in (60, 400):
            a = gibbs_scalar_2pt(self.ZETA, ALPHA, self.TAU, order)
            b = gibbs_scalar_modes(self.ZETA, ALPHA, self.TAU, order)
            assert abs(a - b) < 1e-12

    def test_a_component_that_never_settles_does_not_overflow(self):
        # pure-imaginary zeta and tau: the real part of p1 stays 0.0, so the
        # loop runs to the end, past the n where sin(2 pi n zeta) overflows
        zeta, tau = 2.1j, 2.8j
        assert abs(elliptic_p1(zeta, tau, 80) - p1_lattice(zeta, tau, 25)) < 1e-12
        a = gibbs_scalar_2pt(zeta, ALPHA, tau, 80)
        b = gibbs_scalar_modes(zeta, ALPHA, tau, 80)
        assert abs(a - b) < 1e-12

    @pytest.mark.parametrize(
        "zeta, tau", [(0.1 + 3j, 2j), (0.1 + 2j, 2j), (0.2 - 0.5j, 0.3 + 0.4j)]
    )
    def test_im_zeta_not_below_im_tau_is_a_value_error(self, zeta, tau):
        for call in (
            lambda: elliptic_p1(zeta, tau, 40),
            lambda: gibbs_scalar_2pt(zeta, ALPHA, tau, 40),
            lambda: gibbs_scalar_modes(zeta, ALPHA, tau, 40),
        ):
            with pytest.raises(ValueError, match="diverges"):
                call()


class TestGibbsWeyl:
    def test_isotropic_frame(self):
        v, vbar = solve_isotropic(U1, U2, ALPHA)
        dot = lambda a, b: sum(x * y for x, y in zip(a, b))
        assert abs(dot(v, v)) < 1e-14
        assert abs(dot(vbar, vbar)) < 1e-14
        assert abs(2 * dot(v, vbar) - 1) < 1e-14

    def test_antiperiodicity(self):
        w1 = gibbs_weyl_2pt(0.13 + 1, ALPHA, U1, U2, 1.5j, 40)
        w0 = gibbs_weyl_2pt(0.13, ALPHA, U1, U2, 1.5j, 40)
        assert max(map(abs, w1 + w0)) < 1e-8

    def test_vacuum_limit(self):
        wq = gibbs_weyl_2pt(0.13, ALPHA, U1, U2, 10j, 30)
        w0 = weyl_vacuum_2pt(0.13, ALPHA, U1, U2)
        assert max(map(abs, wq - w0)) < 1e-10

    @staticmethod
    def weyl_calls(alpha, u1, u2):
        return (
            lambda: weyl_vacuum_2pt(0.13, alpha, u1, u2),
            lambda: gibbs_weyl_2pt(0.13, alpha, u1, u2, 1.5j, 20),
            lambda: kms_translate_sum_check("weyl4", 0.13, alpha, 1.5j, 8, u1, u2),
        )

    def test_collinear_rejected(self):
        # alpha = 0 and 1/2 are degenerate angles, whatever the frame
        minus_u1 = tuple(-x for x in U1)
        for alpha, u2 in ((0, U1), (0, U2), (0.5, minus_u1), (0.5, U2)):
            for call in self.weyl_calls(alpha, U1, u2):
                with pytest.raises(ValueError, match="degenerate angle: collinear"):
                    call()

    @pytest.mark.parametrize(
        "u2",
        [(3.0, 1.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0), tuple(2 * x for x in U2)],
        ids=["long", "wrong-angle", "scaled"],
    )
    def test_bad_frame_rejected(self, u2):
        # u2 must be a unit vector at the angle 2 pi alpha from u1
        for call in self.weyl_calls(ALPHA, U1, u2):
            with pytest.raises(ValueError, match="unit vectors"):
                call()



def _two_pass_kms(model, zeta, alpha, tau, window, u1=None, u2=None):
    """The translate-sum KMS check with every translate evaluated twice: one
    pass at zeta and one at zeta + tau, each from zero."""
    if model == "scalar":
        sign, norm, zero = 1, abs, 0j

        def w0(z):
            return scalar_vacuum_2pt(z, alpha)

        def closed_form(z):
            return gibbs_scalar_2pt(z, alpha, tau, 4 * window + 40)

    else:
        sign, zero = -1, Quaternion(0j, 0j, 0j, 0j)

        def norm(q):
            return max(map(abs, q))

        def w0(z):
            return weyl_vacuum_2pt(z, alpha, u1, u2)

        def closed_form(z):
            return gibbs_weyl_2pt(z, alpha, u1, u2, tau, 2 * window + 20)

    def translate_sum(z):
        total, scale = zero, 0.0
        for k in range(-window, window + 1):
            term = w0(z + k * tau)
            scale = max(scale, norm(term))
            total = total + term * sign ** abs(k)
        return total, scale

    q_abs = abs(cmath.exp(2j * math.pi * tau))
    total, scale = translate_sum(zeta)
    closed = closed_form(zeta)
    residual = norm(total - closed)
    per_1 = norm(closed_form(zeta + 1) - closed * sign)
    per_tau = norm(translate_sum(zeta + tau)[0] - total * sign)
    edge = norm(w0(zeta + (window + 1) * tau)) + norm(w0(zeta - (window + 1) * tau))
    bound = 4 * edge / max(1 - q_abs, 1e-12) + 1e-13 * max(scale, norm(closed), 1.0)
    return {
        "residual": residual,
        "periodicity_residual": max(per_1, per_tau),
        "edge_bound": bound,
        "edge_term": 4 * edge / max(1 - q_abs, 1e-12),
        "passed": residual <= bound and max(per_1, per_tau) <= bound,
    }


class TestKMS:
    def test_scalar_translate_sum(self):
        rep = kms_translate_sum_check("scalar", 0.13, 0.37, 1.5j, 8)
        assert rep["passed"]
        assert rep["residual"] <= rep["edge_bound"]

    def test_weyl_translate_sum(self):
        rep = kms_translate_sum_check("weyl4", 0.13, ALPHA, 1.5j, 8, U1, U2)
        assert rep["passed"]

    def test_window_doubling_decay(self):
        # in a regime where the edge term dominates the float floor, the
        # residual shrinks by about |q|^K when the window doubles
        tau = 0.25j
        q = abs(cmath.exp(2j * math.pi * tau))
        r6 = kms_translate_sum_check("scalar", 0.13, 0.37, tau, 6)["residual"]
        r12 = kms_translate_sum_check("scalar", 0.13, 0.37, tau, 12)["residual"]
        assert r12 < r6 * q**5

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            kms_translate_sum_check("maxwell", 0.1, 0.3, 1j, 4)

    @pytest.mark.parametrize("tau", [0.3 - 1j, 0.4 + 1e-20j, 0.7])
    def test_tau_outside_the_upper_half_plane_raises(self, tau):
        # the translate sums diverge: the Weyl check once passed at 0.3 - 1i,
        # and at 0.4 + 1e-20i with an edge bound of 1.2e13
        with pytest.raises(ValueError):
            kms_translate_sum_check("scalar", 0.13, ALPHA, tau, 8)
        with pytest.raises(ValueError):
            kms_translate_sum_check("weyl4", 0.13, ALPHA, tau, 8, U1, U2)
        with pytest.raises(ValueError):
            gibbs_weyl_2pt(0.13, ALPHA, U1, U2, tau, 20)

    @pytest.mark.parametrize(
        "model, tau, frame",
        [
            ("scalar", 1.5j, ()),
            ("scalar", 0.2 + 1.3j, ()),
            ("scalar", 0.8j, ()),
            # the edge term, and so the zeta -> zeta + tau residual, is far above the float floor
            ("scalar", 0.25j, ()),
            ("weyl4", 1.5j, (U1, U2)),
        ],
    )
    def test_one_pass_kms_matches_the_two_pass_form(self, model, tau, frame):
        # the shifted sum reads the same translates one index on, so only the
        # arguments' rounding moves the periodicity residual
        got = kms_translate_sum_check(model, 0.13, ALPHA, tau, 8, *frame)
        want = _two_pass_kms(model, 0.13, ALPHA, tau, 8, *frame)
        for key in ("residual", "edge_term", "edge_bound", "passed"):
            assert got[key] == want[key], key
        assert abs(got["periodicity_residual"] - want["periodicity_residual"]) <= 1e-14
