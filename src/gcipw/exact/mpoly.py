"""Sparse multivariate polynomials with exact coefficients.

The ring operations take coefficients of any ring type (ints, Fractions,
...), as long as it supports +, -, *, == 0 and bool(), and keep it: the
variables carry the int 1 and int scalars stay ints, so sums, products,
powers and `subs_poly` of int polynomials have int coefficients.  `eval`
takes int and Fraction coefficients only.

Each monomial is one packed integer key: the exponent of variable i fills
a field of BITS bits, variable 0 the highest.  The top bit of each field
is a guard kept clear, so exponents are at most MAX_EXP, adding two keys
multiplies the monomials without a carry between fields, and a product
that would set a guard bit raises ValueError.  No other module reads the
keys: `terms` is a read-only tuple-keyed view, unpacked on each read.

Every product runs through one multiply-accumulate kernel, `_mac`, which
adds c p q into an output dict in place: `__mul__` (c = 1, a fresh dict),
`sum_of_products` (one dict for a whole sum) and the Horner recursion of
`subs_poly` (each quotient times an image power, into the output).

Invariant: no zero coefficient is stored and every key holds `arity` fields
below the guard.  Only the public constructor `MPoly(arity, terms)` checks
it, since that is where outside input enters; the operations below form
valid keys, or check the guards, and wrap them with `MPoly._trusted`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, reduce
from operator import add, or_, sub
from types import MappingProxyType
from typing import Dict, Iterable, Iterator, Mapping, Sequence, Tuple

from .series import common_denominator

Expo = Tuple[int, ...]

BITS = 24
MAX_EXP = (1 << BITS - 1) - 1  # also the mask of a field below its guard


@cache
def _guard(arity: int) -> int:
    return sum(1 << BITS * j + BITS - 1 for j in range(arity))


def _shift(arity: int, i: int) -> int:
    """Bit offset of the field of variable i."""
    if not 0 <= i < arity:
        raise ValueError(f"variable index {i} out of range")
    return BITS * (arity - 1 - i)


def _pack(e: Sequence[int], arity: int) -> int:
    if len(e) != arity or not all(0 <= k <= MAX_EXP for k in e):
        raise ValueError(f"exponent {e} is not {arity} integers in 0..{MAX_EXP}")
    return sum(k << BITS * (arity - 1 - i) for i, k in enumerate(e))


def _fields(key: int, arity: int) -> Iterator[Tuple[int, int]]:
    """(i, k) for each nonzero exponent k of variable i in `key`, i ascending."""
    while key:
        low = (key.bit_length() - 1) // BITS * BITS
        yield arity - 1 - low // BITS, key >> low
        key &= (1 << low) - 1


def _mac(out: Dict[int, object], c, p: Dict[int, object], q: Dict[int, object]) -> None:
    """out += c p q on packed dicts, in place: the one product loop.

    The keys of p and q must have clear guards, so their sums carry no bit
    between fields.  Cancellation may leave zero coefficients in out; the
    caller checks the guards of what it keeps and drops the zeros.
    """
    get = out.get
    qs = list(q.items())
    for k1, c1 in p.items() if c == 1 else ((k, c * v) for k, v in p.items()):
        for k2, c2 in qs:
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2


def _check_guards(packed: Dict[int, object], arity: int) -> None:
    if reduce(or_, packed, 0) & _guard(arity):
        raise ValueError(f"an exponent exceeds {MAX_EXP}")


def _drop_zeros(packed: Dict[int, object]) -> Dict[int, object]:
    for key in [key for key, c in packed.items() if not c]:
        del packed[key]
    return packed


def _require_exact(values) -> None:
    """TypeError unless every value is an int or a Fraction, as `eval` needs."""
    if not {*map(type, values)} <= {int, Fraction}:
        raise TypeError("eval takes int or Fraction point entries and coefficients")


class MPoly:
    """Polynomial in `arity` variables, stored as {packed key: coeff}."""

    __slots__ = ("arity", "_packed", "_integer")

    def __init__(self, arity: int, terms: Dict[Expo, object] | None = None):
        self.arity = arity
        packed = {_pack(e, arity): c for e, c in (terms or {}).items()}
        self._packed: Dict[int, object] = {key: c for key, c in packed.items() if c}

    @classmethod
    def _trusted(cls, arity: int, packed: Dict[int, object]) -> "MPoly":
        """Wrap `packed`, which already satisfies the invariant, without checks."""
        p = object.__new__(cls)
        p.arity = arity
        p._packed = packed
        return p

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, arity: int) -> "MPoly":
        return cls._trusted(arity, {})

    @classmethod
    def const(cls, arity: int, c) -> "MPoly":
        """The constant c, in c's own ring (an int stays an int)."""
        return cls._trusted(arity, {0: c} if c else {})

    @classmethod
    def var(cls, arity: int, i: int) -> "MPoly":
        """Variable i, with the int coefficient 1."""
        return cls._trusted(arity, {1 << _shift(arity, i): 1})

    @classmethod
    def variables(cls, arity: int) -> Sequence["MPoly"]:
        return [cls.var(arity, i) for i in range(arity)]

    @classmethod
    def sum_of_products(
        cls, arity: int, products: Iterable[Tuple[object, "MPoly", "MPoly"]]
    ) -> "MPoly":
        """sum c p q over the (c, p, q) triples, every product accumulated
        by `_mac` into one dict, with zeros dropped once at the end."""
        packed: Dict[int, object] = {}
        for c, p, q in products:
            if p.arity != arity or q.arity != arity:
                raise ValueError("arity mismatch")
            _mac(packed, c, p._packed, q._packed)
        _check_guards(packed, arity)
        return cls._trusted(arity, _drop_zeros(packed))

    # -- ring operations ----------------------------------------------

    def _coerce(self, other) -> "MPoly":
        if isinstance(other, MPoly):
            if other.arity != self.arity:
                raise ValueError("arity mismatch")
            return other
        return MPoly.const(self.arity, other)

    def _combine(self, other, op) -> "MPoly":
        """self op other for op in (add, sub), in one pass over other."""
        other = self._coerce(other)
        packed = dict(self._packed)
        get = packed.get
        for key, c in other._packed.items():
            s = op(get(key, 0), c)
            if s:
                packed[key] = s
            else:
                del packed[key]
        return MPoly._trusted(self.arity, packed)

    def __add__(self, other):
        return self._combine(other, add)

    __radd__ = __add__

    def __neg__(self):
        return MPoly._trusted(self.arity, {key: -c for key, c in self._packed.items()})

    def __sub__(self, other):
        return self._combine(other, sub)

    def __rsub__(self, other):
        return self._coerce(other)._combine(self, sub)

    def __mul__(self, other):
        if not isinstance(other, MPoly):
            packed = {key: v for key, c in self._packed.items() if (v := c * other)}
            return MPoly._trusted(self.arity, packed)
        return MPoly.sum_of_products(self.arity, [(1, self, other)])

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """Repeated squaring from the base itself, so the coefficient ring
        is kept (int coefficients stay int); p ** 0 is the int constant 1."""
        if n < 0:
            raise ValueError("negative power of a polynomial")
        if n == 0:
            return MPoly.const(self.arity, 1)
        result = None
        base = self
        while True:
            if n & 1:
                result = base if result is None else result * base
            n >>= 1
            if not n:
                return result
            base = base * base

    # -- queries -------------------------------------------------------

    @property
    def terms(self) -> Mapping[Expo, object]:
        """Read-only {exponent tuple: coeff} view, unpacked on each read."""
        shifts = range(BITS * (self.arity - 1), -1, -BITS)  # variable 0 first
        return MappingProxyType(
            {tuple([key >> s & MAX_EXP for s in shifts]): c for key, c in self._packed.items()}
        )

    def coefficients(self):
        """The stored coefficients, none of them zero."""
        return self._packed.values()

    def is_zero(self) -> bool:
        return not self._packed

    def total_degree(self) -> int:
        degrees = (sum(k for _, k in _fields(key, self.arity)) for key in self._packed)
        return max(degrees, default=-1)

    def degree_in(self, i: int) -> int:
        shift = _shift(self.arity, i)
        return max((key >> shift & MAX_EXP for key in self._packed), default=-1)

    def parity_split(self, variables: Iterable[int]) -> Tuple["MPoly", "MPoly"]:
        """(even, odd): the terms of even and of odd total degree in the
        given variables.  That degree is odd when an odd number of their
        exponents are, so its parity is the popcount of the key's low
        field bits of those variables."""
        mask = sum(1 << _shift(self.arity, i) for i in set(variables))
        parts: Tuple[Dict[int, object], Dict[int, object]] = ({}, {})
        for key, c in self._packed.items():
            parts[(key & mask).bit_count() & 1][key] = c
        return MPoly._trusted(self.arity, parts[0]), MPoly._trusted(self.arity, parts[1])

    def coeff(self, e: Expo):
        return self._packed.get(_pack(e, self.arity), 0)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.arity == other.arity and self._packed == other._packed
        if isinstance(other, (int, Fraction)):
            return (self - other).is_zero()
        return NotImplemented

    def __hash__(self):
        return hash((self.arity, frozenset(self._packed.items())))

    # -- maps ----------------------------------------------------------

    def eval(self, point: Sequence) -> Fraction:
        """The value at a rational point, for int or Fraction coefficients.

        The value is formed on integers: the point entries are put over the
        lcm L of their denominators and the coefficients over the lcm D of
        theirs (`_integer_terms`), the integer monomials are summed per total
        degree k, and the value is sum_k S_k L^(top - k) / (D L^top), one
        Fraction per call.  An entry or coefficient of any other type raises
        TypeError.
        """
        if len(point) != self.arity:
            raise ValueError("point has wrong length")
        _require_exact(point)
        den, by_degree = self._integer_terms()
        ints, scale = common_denominator(point)
        sums: Dict[int, int] = {}
        for degree, terms in by_degree.items():
            total = 0
            for m, fields in terms:
                for i, k in fields:
                    m *= ints[i] if k == 1 else ints[i] ** k
                total += m
            sums[degree] = total
        top = max(sums, default=0)
        return Fraction(sum(s * scale ** (top - k) for k, s in sums.items()), den * scale**top)

    def _integer_terms(self):
        """(D, {total degree k: [(D c, ((i, e_i), ...)), ...]}): the terms
        of degree k with their coefficients c over the lcm D of their
        denominators and their nonzero exponents.  A polynomial never
        changes, so this is decoded on the first `eval` and kept."""
        try:
            return self._integer
        except AttributeError:
            pass
        coeffs = self._packed.values()
        _require_exact(coeffs)
        nums, den = common_denominator(coeffs)
        by_degree: Dict[int, list] = {}
        for key, num in zip(self._packed, nums):
            fields = tuple(_fields(key, self.arity))
            by_degree.setdefault(sum(k for _, k in fields), []).append((num, fields))
        self._integer = (den, by_degree)
        return self._integer

    def subs_poly(self, images: Sequence["MPoly"]) -> "MPoly":
        """Substitute a polynomial for each variable, by a Horner scheme.

        The terms are grouped by the exponent k of the first variable that
        occurs in them.  Each group's quotient is substituted recursively
        and multiplied once by the image power g^k, which is formed once per
        call; the k = 0 group goes on into the same output dict, so every
        product is one `_mac` into that dict.  For a signed pairing sum
        (`wick_numerator`) this is the Pfaffian's Laplace expansion along
        its first point.  The coefficient ring is kept: if every coefficient
        of self is an int, the sums are the output coefficients.  Otherwise
        the coefficients of self are brought over the lcm D of their
        denominators, the recursion runs on those integer numerators, and
        each output coefficient is one Fraction(total, D).
        """
        if len(images) != self.arity:
            raise ValueError("need one image per variable")
        if not images:
            raise ValueError("a polynomial in no variables has no image arity")
        arity = images[0].arity
        if any(g.arity != arity for g in images):
            raise ValueError("images have mixed arity")
        ints = all(type(c) is int for c in self._packed.values())
        nums, den = common_denominator(self._packed.values())
        terms = dict(zip(self._packed, nums))
        powers = [[g] for g in images]  # powers[i][k - 1] = images[i] ** k

        def power(i: int, k: int) -> Dict[int, object]:
            ps = powers[i]
            while len(ps) < k:
                ps.append(ps[-1] * ps[0])
            return ps[k - 1]._packed

        def horner(out: Dict[int, object], terms: Dict[int, object]) -> None:
            """out += terms with images[i] put for variable i."""
            while terms:
                top = max(terms)
                if not top:
                    out[0] = out.get(0, 0) + terms[0]
                    return
                shift = (top.bit_length() - 1) // BITS * BITS
                mask = (1 << shift) - 1
                groups: Dict[int, Dict[int, object]] = {}
                for key, c in terms.items():
                    groups.setdefault(key >> shift, {})[key & mask] = c
                terms = groups.pop(0, None)
                i = self.arity - 1 - shift // BITS
                for k, quotient in groups.items():
                    q: Dict[int, object] = {}
                    horner(q, quotient)
                    _check_guards(q, arity)
                    _mac(out, 1, _drop_zeros(q), power(i, k))

        packed: Dict[int, object] = {}
        horner(packed, terms)
        _check_guards(packed, arity)
        if ints:
            return MPoly._trusted(arity, _drop_zeros(packed))
        return MPoly._trusted(arity, {key: Fraction(c, den) for key, c in packed.items() if c})

    def deriv(self, i: int) -> "MPoly":
        shift = _shift(self.arity, i)
        packed: Dict[int, object] = {}
        for key, c in self._packed.items():
            k = key >> shift & MAX_EXP
            if k and (v := c * k):
                packed[key - (1 << shift)] = v
        return MPoly._trusted(self.arity, packed)

    def map_coeff(self, f) -> "MPoly":
        packed = {key: v for key, c in self._packed.items() if (v := f(c))}
        return MPoly._trusted(self.arity, packed)

    def __repr__(self):
        terms = self.terms
        if not terms:
            return "MPoly(0)"
        parts = []
        for e in sorted(terms, key=lambda t: (sum(t), t), reverse=True):
            mono = "*".join(f"x{i}^{k}" if k > 1 else f"x{i}" for i, k in enumerate(e) if k)
            parts.append(f"{terms[e]}" + (f"*{mono}" if mono else ""))
        return "MPoly(" + " + ".join(parts) + ")"
