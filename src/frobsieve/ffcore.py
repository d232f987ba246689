"""Exact arithmetic over small prime fields.

Polynomials are coefficient lists, low degree first, with coefficients
reduced into [0, p).  Inputs are desk scale (p fits in 64 bits, degrees in
the tens), so `Poly` keeps schoolbook multiplication and division.

Products modulo a fixed polynomial A of degree d, the inner loop of every
modular power, go through one packed kernel instead (Kronecker
substitution): an element is one int holding its d coefficients in slots
of S bits, and a product is one bigint multiply.  The product of two
reduced elements has slots below d(p-1)^2; folding its d-1 high slots,
each first reduced mod p, back through the rows x^(d+i) mod A adds less
than (d-1)(p-1)^2 more, so every slot stays below 2d(p-1)^2 < 2^S with
S = bit_length(2d(p-1)^2), no slot carries into the next, and the result
is exact for every p.  A pass mod p then normalises the d low slots.

Where a loop runs over every candidate, it avoids the expensive test:
primality is Miller-Rabin rather than trial division, the monic
irreducibles of a factor base come from a sieve rather than an
irreducibility test each, that test is the distinct-degree peel below
rather than Rabin's power X^(p^n), and a sieve candidate is tested
for kappa-smoothness before it is factored.  `smooth_pieces` decides
it exactly from the Frobenius powers h_k = X^(p^k) mod f: one p-th power
h_1 = X^p in the packed kernel of f, then each further step by the
p-power matrix, whose rows are h_1^i for i < deg f (Berlekamp, 1967):
a^p = sum_i a_i h_1^i, since the coefficients a_i are fixed by
Frobenius.  A step is one sum of those rows and one pass mod p, the fold
of a product, and its slots stay below d(p-1)^2.

Up to degree 2 kappa the decider is the distinct-degree peel that
`factor` and `is_irreducible` run (von zur Gathen and Shoup, 1992):
g = gcd(rest, h_k - X) takes the irreducibles of degree k out of what is
left of f, repeated gcds of g with what is left peel their
multiplicities, and once deg rest < 2(k + 1) what is left is
irreducible.  The peel works on coefficient lists and builds a Poly only
for the factors it returns.  Every passer hands `factor` its pieces, and
only the equal-degree split is left, by Cantor-Zassenhaus (1981).  For
p <= EVAL_PRIME_BOUND, step 1 and the linear split read the roots from
one evaluation at every point of F_p (`_roots`): a cubic or quartic with
a root needs no X^p.  Above 2 kappa most candidates fail, and the gcds
cost more than the product test: f is kappa-smooth if and only if f
divides F^m for F = prod_{k <= kappa} (X^(p^k) - X) and any m >= deg f,
since F is the product of the monic irreducibles of degree <= kappa
(each at least once) and no irreducible divides f more than deg f
times; a few squarings modulo f finish it.  A passer there is peeled
at once from the h_1..h_kappa the test computed: it is used up by step
kappa, so its split computes no X^(p^k) again.  `smooth_pieces` gives
the measurements behind the 2 kappa rule.

The field routines that the models and sieves share are written once,
here: extended Euclid on coefficient lists (`_rational_split`, whose
bound-0 case is `poly_invert_mod`), the coefficient matrix of a list of
elements (`coefficient_rows`) and the kernel of num - z * den over their
span (`fraction_kernel`), F_p combinations of fixed polynomials
(`_combine`), and, for every cyclic group the models use (curve points,
torus points, powers in the function field), the binary method
(`double_and_add`) and the exact order from a known multiple
(`order_from_multiple`).
"""

from __future__ import annotations

import operator
import random
import struct
from itertools import compress, islice
from math import gcd, isqrt

from .errors import NonInvertible

# Degree of the zero polynomial.  A distinct sentinel rather than -1 so
# that degree bookkeeping (sub-additivity checks, orbit walks) cannot
# silently treat the zero polynomial as a unit.
NEG_INF = float("-inf")

# Trial division stops here and rho takes the rest.  ms per factorize_int
# at bounds 10^3/10^4/10^5/10^6 (medians of 9 alternating rounds, 2-core
# host, Python 3.11.7): 43^11 - 1 2.1/2.3/5.2/34, 109^11 - 1 0.27/0.43/3.4/32,
# 199^11 - 1 117/118/119/148, 29^7 - 1 0.07/0.26/0.28/0.28.  The largest
# cofactor left on the ladder, 8.9e21 (199^11), is in is_prime's exact range.
_TRIAL_BOUND = 10 ** 4


# The first thirteen primes.  As Miller-Rabin bases they decide primality
# exactly for every n < 3,317,044,064,679,887,385,961,981 (about 3.3e24;
# Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first thirteen primes as bases.

    Exact for n < 3.3 * 10^24, which covers every modulus and group order
    this package meets.  Above that bound a composite that is a strong
    pseudoprime to all thirteen bases would be called prime; such numbers
    exist but have to be built on purpose.  Small n cost a few divisions.
    """
    if n < 2:
        return False
    for sp in _MR_BASES:
        if n % sp == 0:
            return n == sp
    if n < 43 * 43:  # a composite below 43^2 has a prime factor <= 41
        return True
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize_int(n: int) -> dict[int, int]:
    """Factor a positive integer: trial division to 10^4, Pollard rho after.

    Returns {prime: multiplicity}.  Trial division takes out every prime
    up to 10^4; a cofactor left below 10^8 is prime, and one above it that
    is not prime goes to Brent's rho, x -> x^2 + c from 2 with c = 1, 2, ...
    On the ladder rho splits 6038099 * 3664405207 (43^11 - 1) and
    75449464927 * 117942356533 (199^11 - 1, about 8.9e21), and no other.
    """
    if n < 1:
        raise ValueError("factorize_int wants a positive integer")
    out: dict[int, int] = {}
    for f in [2, 3, 5]:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
    f = 7
    wheel = [4, 2, 4, 2, 4, 6, 2, 6]
    i = 0
    while f <= _TRIAL_BOUND and f * f <= n:
        while n % f == 0:
            out[f] = out.get(f, 0) + 1
            n //= f
        f += wheel[i]
        i = (i + 1) % 8
    if n == 1:
        return out
    if n < _TRIAL_BOUND ** 2 or is_prime(n):
        out[n] = out.get(n, 0) + 1
        return out
    for q, m in _rho_factor(n).items():
        out[q] = out.get(q, 0) + m
    return out


def _rho_factor(n: int) -> dict[int, int]:
    if is_prime(n):
        return {n: 1}
    c = 1
    while True:
        d = _rho_once(n, c)
        if d not in (0, n):
            break
        c += 1
    left = _rho_factor(d)
    right = _rho_factor(n // d)
    for q, m in right.items():
        left[q] = left.get(q, 0) + m
    return left


def _rho_once(n: int, c: int) -> int:
    # Brent's cycle finding on y -> y^2 + c from y = 2, the step inlined;
    # q takes x - y without abs, which changes no gcd(q, n).
    y, r, q, d = 2, 1, 1, 1
    x = ys = y
    while d == 1:
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and d == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = (y * y + c) % n
                q = q * (x - y) % n
            d = gcd(q, n)
            k += 128
        r *= 2
    if d == n:
        d = 1
        while d == 1:
            ys = (ys * ys + c) % n
            d = gcd(x - ys, n)
    return d


def crt(residues: list[int], moduli: list[int]) -> int:
    """Combine residues over pairwise coprime moduli."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        # solve x' = x mod m, x' = r mod q
        t = ((r - x) * pow(m, -1, q)) % q
        x += m * t
        m *= q
    return x % m


def double_and_add(add, zero, x, k: int):
    """The k-fold sum of x under `add`, for k >= 0, by the binary method
    from the low bit up: one `add` per set bit of k, one doubling per bit
    below the top, and none after it."""
    acc = zero
    while k:
        if k & 1:
            acc = add(acc, x)
        k >>= 1
        if k:
            x = add(x, x)
    return acc


def order_from_multiple(n: int, primes, vanishes) -> int:
    """Exact order of a group element, given a multiple n of it, the primes
    of n, and vanishes(m): whether the m-fold element is the identity."""
    for ell in primes:
        while n % ell == 0 and vanishes(n // ell):
            n //= ell
    return n


class PrimeField:
    """Context for F_p: the prime modulus, checked once."""

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and self.p == other.p

    def poly(self, coeffs) -> "Poly":
        return Poly(coeffs, self.p)

    def x(self) -> "Poly":
        return Poly([0, 1], self.p)

    def random_poly(self, rng: random.Random, degree: int, monic: bool = False) -> "Poly":
        coeffs = [rng.randrange(self.p) for _ in range(degree + 1)]
        if monic:
            coeffs[-1] = 1
        elif degree >= 0:
            while coeffs[-1] == 0:
                coeffs[-1] = rng.randrange(self.p)
        return Poly(coeffs, self.p)


class Poly:
    """Dense univariate polynomial over F_p, low degree first."""

    __slots__ = ("coeffs", "p")

    def __init__(self, coeffs, p: int):
        cs = [c % p for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self.p = p

    @classmethod
    def _reduced(cls, coeffs: tuple, p: int) -> "Poly":
        """A Poly of a tuple already reduced mod p and trimmed, as it is."""
        f = object.__new__(cls)
        f.coeffs = coeffs
        f.p = p
        return f

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    def is_zero(self) -> bool:
        return not self.coeffs

    def lc(self) -> int:
        if not self.coeffs:
            return 0
        return self.coeffs[-1]

    def constant_value(self) -> int:
        """The value of a constant polynomial (0 for the zero polynomial)."""
        if len(self.coeffs) > 1:
            raise ValueError("not a constant")
        return self.coeffs[0] if self.coeffs else 0

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.p == other.p and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.coeffs, self.p))

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x" if c != 1 else "x")
            else:
                terms.append(f"{c}*x^{i}" if c != 1 else f"x^{i}")
        return "Poly(" + " + ".join(terms) + f" mod {self.p})"

    def __add__(self, other):
        other = self._coerce(other)
        n = max(len(self.coeffs), len(other.coeffs))
        a, b = self.coeffs, other.coeffs
        return Poly([(a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n)], self.p)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return Poly([-c for c in self.coeffs], self.p)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly([c * other for c in self.coeffs], self.p)
        other = self._coerce(other)
        if not self.coeffs or not other.coeffs:
            return Poly([], self.p)
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        p = self.p
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % p
        return Poly(out, p)

    def __rmul__(self, other):
        return self.__mul__(other)

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other
        if isinstance(other, int):
            return Poly([other], self.p)
        raise TypeError(f"cannot combine Poly with {type(other)}")

    def __divmod__(self, other):
        other = self._coerce(other)
        if not other.coeffs:
            raise ZeroDivisionError("polynomial division by zero")
        if len(self.coeffs) < len(other.coeffs):
            return Poly([], self.p), self
        quo, rem = _list_divmod(self.coeffs, other.coeffs, self.p)
        return Poly(quo, self.p), Poly(rem, self.p)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __call__(self, x: int) -> int:
        """Evaluate at an element of F_p by Horner's rule; `horner` is the
        same rule over any field adapter."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def monic(self) -> "Poly":
        if not self.coeffs:
            raise ValueError("zero polynomial has no monic form")
        if self.coeffs[-1] == 1:
            return self
        inv = pow(self.coeffs[-1], self.p - 2, self.p)
        return Poly([c * inv for c in self.coeffs], self.p)

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:], self.p)

    def compose(self, inner: "Poly") -> "Poly":
        """self(inner(X)), by Horner over the polynomial ring."""
        acc = Poly([], self.p)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def to_list(self) -> list[int]:
        return list(self.coeffs)


def horner(ops, poly: Poly, x):
    """poly(x) by Horner's rule, for poly over F_p and x an element of any
    field adapter (PrimeOps, QuotientField, a function field), whose
    embed() carries the coefficients over."""
    acc = ops.zero()
    for c in reversed(poly.coeffs):
        acc = ops.add(ops.mul(acc, x), ops.embed(c))
    return acc


def poly_gcd(f: Poly, g: Poly) -> Poly:
    g = f._coerce(g)
    return Poly(_list_gcd(f.coeffs, g.coeffs, f.p), f.p)


def _strip(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _list_divmod(a, b, p: int) -> tuple[list, list]:
    """(a // b, a mod b) on coefficient sequences with no leading zeros,
    b nonzero, as new lists; the one long division behind `Poly`, the gcds
    and extended Euclid."""
    r = list(a)
    nb = len(b) - 1
    if len(r) <= nb:
        return [], r
    q = [0] * (len(r) - nb)
    inv = pow(b[-1], -1, p)
    low = b[:-1]
    for i in range(len(r) - 1, nb - 1, -1):
        c = r[i] * inv % p
        if c:
            s = i - nb
            q[s] = c
            for j, v in enumerate(low):
                r[s + j] = (r[s + j] - c * v) % p
    del r[nb:]
    return q, _strip(r)


def _list_gcd(a, b, p: int) -> list:
    """The monic gcd of two coefficient sequences, [] when both are zero."""
    while b:
        a, b = b, _list_divmod(a, b, p)[1]
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def resultant(f: Poly, g: Poly) -> int:
    """Res(f, g) in F_p, by the Euclidean algorithm.

    Each step uses Res(f, g) = (-1)^(mn) Res(g, f) and, with r = f mod g,
    Res(g, f) = lc(g)^(m - deg r) Res(g, r), for m = deg f and n = deg g;
    Res(f, c) = c^m for a constant c.  For a monic f this is the norm of g
    from F_p[X]/(f) down to F_p.
    """
    p = f.p
    if not f or not g:
        return 0
    res = 1
    while True:
        m, n = f.degree, g.degree
        if n == 0:
            return res * pow(g.lc(), m, p) % p
        r = f % g
        if not r:
            return 0
        if m * n % 2:
            res = -res
        res = res * pow(g.lc(), m - r.degree, p) % p
        f, g = g, r


def poly_mul_mod(f: Poly, g: Poly, modulus: Poly) -> Poly:
    k = PackedModulus(modulus)
    return k.unpack(k.mul(k.pack(f), k.pack(g)))


def poly_pow_mod(f: Poly, e: int, modulus: Poly, packed: PackedModulus | None = None) -> Poly:
    """f^e mod modulus, by the packed kernel.

    `packed` is the kernel of this modulus when the caller keeps one
    (QuotientField does); otherwise it is built for this call.  A negative e
    inverts f first.
    """
    if packed is None:
        packed = PackedModulus(modulus)
    if e < 0:
        return poly_pow_mod(poly_invert_mod(f, modulus), -e, modulus, packed)
    return packed.unpack(packed.pow(packed.pack(f), e))


class _WideSlots:
    """The pack/unpack/size of a struct.Struct, for slots wider than 64 bits."""

    def __init__(self, count: int, width: int):
        self.size = count * width
        self.width = width

    def pack(self, *vals) -> bytes:
        return b"".join(v.to_bytes(self.width, "little") for v in vals)

    def unpack(self, data: bytes) -> list[int]:
        w = self.width
        return [int.from_bytes(data[i:i + w], "little") for i in range(0, self.size, w)]


def _slot_codec(count: int, bound: int):
    """Packs `count` slots for values up to `bound` to bytes and back, each
    of 1, 2, 4 or 8 bytes (one struct call), or whole bytes past 64 bits."""
    width = -(-bound.bit_length() // 8)
    if width > 8:
        return _WideSlots(count, width)
    return struct.Struct(f"<{count}{'BHIQ'[(width - 1).bit_length()]}")


class PackedModulus:
    """The packed kernel for F_p[X]/(modulus): elements as ints, d slots each.

    Slot i of an element holds its X^i coefficient.  Slots hold values up
    to 2d(p-1)^2 (see the module docstring), in the bytes `_slot_codec`
    gives that bound.  The modulus need not be monic.
    """

    __slots__ = ("modulus", "p", "d", "_full", "_low", "_low_mask", "_zeros", "_rows",
                 "_x", "_xp", "_frob")

    def __init__(self, modulus: Poly):
        p, d = modulus.p, modulus.degree
        if d is NEG_INF or d < 1:
            raise ValueError("modulus must have positive degree")
        self.modulus = modulus
        self.p = p
        self.d = d
        bound = 2 * d * (p - 1) ** 2
        self._full = _slot_codec(2 * d - 1, bound)  # a product before folding
        self._low = _slot_codec(d, bound)
        width = self._low.size // d
        self._low_mask = (1 << (8 * width * d)) - 1
        self._zeros = (0,) * d
        # rows[i] = x^(d+i) mod A, packed, for the high slots i = 0..d-2
        inv_lc = pow(modulus.lc(), -1, p)
        top = [-c * inv_lc % p for c in modulus.coeffs[:-1]]  # x^d mod A
        row = top
        self._rows = []
        for _ in range(d - 1):
            self._rows.append(int.from_bytes(self._low.pack(*row), "little"))
            t = row[-1]
            row = [(lo + t * c) % p for lo, c in zip([0] + row[:-1], top)]
        self._x = 1 << (8 * width) if d > 1 else top[0]  # X, packed
        self._xp = None  # X^p, packed, on the first step
        self._frob = None  # the p-power matrix, built on the first step

    def pack(self, f: Poly) -> int:
        if f.p != self.p:
            raise ValueError("mixed moduli")
        cs = f.coeffs
        if len(cs) > self.d:
            cs = (f % self.modulus).coeffs
        return int.from_bytes(self._low.pack(*cs, *self._zeros[len(cs):]), "little")

    def unpack(self, a: int) -> Poly:
        return Poly(self._low.unpack(a.to_bytes(self._low.size, "little")), self.p)

    def to_list(self, a: int) -> list[int]:
        """The coefficient list of a packed element, without leading zeros."""
        return _strip(list(self._low.unpack(a.to_bytes(self._low.size, "little"))))

    def mul(self, a: int, b: int) -> int:
        """The packed product of two packed elements."""
        p, d = self.p, self.d
        c = a * b
        slots = self._full.unpack(c.to_bytes(self._full.size, "little"))
        c = sum(map(operator.mul, [v % p for v in slots[d:]], self._rows), c & self._low_mask)
        slots = self._low.unpack(c.to_bytes(self._low.size, "little"))
        return int.from_bytes(self._low.pack(*[v % p for v in slots]), "little")

    def sub(self, a: int, b: int) -> int:
        """The packed difference of two packed elements."""
        p, low = self.p, self._low
        us = low.unpack(a.to_bytes(low.size, "little"))
        vs = low.unpack(b.to_bytes(low.size, "little"))
        return int.from_bytes(low.pack(*[(u - v) % p for u, v in zip(us, vs)]), "little")

    def frobenius(self, a: int) -> int:
        """a^p for a packed element a.

        X^p is one packed power, kept.  Every other a is a linear
        combination of the rows h^i, h = X^p, i < d (the p-power matrix,
        built once), with the slots of a as coefficients: a^p = a(X^p)
        over F_p.  Each slot of the sum stays below d(p-1)^2, and one pass
        mod p normalises it.
        """
        if self._xp is None:
            self._xp = self.pow(self._x, self.p)
        if a == self._x:
            return self._xp
        if self._frob is None:
            rows = [1, self._xp]
            for _ in range(self.d - 2):
                rows.append(self.mul(rows[-1], self._xp))
            self._frob = rows[:self.d]
        low, p = self._low, self.p
        c = sum(map(operator.mul, low.unpack(a.to_bytes(low.size, "little")), self._frob))
        slots = low.unpack(c.to_bytes(low.size, "little"))
        return int.from_bytes(low.pack(*[v % p for v in slots]), "little")

    def pow(self, a: int, e: int) -> int:
        """a^e for e >= 0, square and multiply from the top bit down."""
        if e == 0:
            return 1  # the constant 1 is slot 0 = 1
        kmul = self.mul
        r = a
        for bit in bin(e)[3:]:
            r = kmul(r, r)
            if bit == "1":
                r = kmul(r, a)
        return r


def _rational_split(modulus: Poly, z: Poly, bound: int):
    """(num, den) with z * den = num mod modulus, deg num <= bound and
    deg den <= deg modulus - 1 - bound, for z reduced below the modulus and
    0 <= bound < deg modulus.

    Extended Euclid on (modulus, z) keeps r_i = t_i * z mod modulus and
    stops at the first remainder r_i of degree <= bound.  Then
    deg t_i = deg modulus - deg r_{i-1} and deg r_{i-1} > bound.  With an
    irreducible modulus and z != 0 the remainders end at a nonzero
    constant, so the loop stops and num, den are both nonzero; otherwise
    num may be 0.  The remainders and cofactors are plain coefficient
    lists; only the two results are built as Poly.
    """
    p = z.p
    r0, r1 = list(modulus.coeffs), list(z.coeffs)
    t0, t1 = [], [1]
    while len(r1) > bound + 1:
        # r0 = q * r1 + r; then t = t0 - q * t1
        q, r0 = _list_divmod(r0, r1, p)
        t = t0 + [0] * (len(q) + len(t1) - 1 - len(t0))
        for i, c in enumerate(q):
            if c:
                for j, b in enumerate(t1):
                    t[i + j] = (t[i + j] - c * b) % p
        r0, r1 = r1, r0
        t0, t1 = t1, t
    return Poly(r1, p), Poly(t1, p)


def poly_invert_mod(f: Poly, modulus: Poly) -> Poly:
    """Inverse of f modulo the modulus, by extended Euclid: the rational
    split with bound 0 gives z * t = c for z = f mod modulus, and f is a
    unit exactly when the constant c is nonzero."""
    c, t = _rational_split(modulus, f % modulus, 0)
    if c.is_zero():
        raise NonInvertible("f shares a factor with the modulus, element is not a unit")
    return t * pow(c.coeffs[0], -1, f.p)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_p by the distinct-degree peel of `factor`.

    The peel's pieces come in rising degree k, and step k runs while
    2k <= n = deg f, so a factor of degree below n shows up as a first
    piece with k < n.  f is irreducible exactly when the first piece has
    k = n.  A constant is not irreducible.

    Per call, Rabin's test (X^(p^n), then X^(p^(n/l)) for each prime l | n)
    against the peel on the builders' moduli (best of 7, 2-core host,
    Python 3.11.7): Kummer 43^6 517 -> 130 us, Kummer 199^11 951 -> 259 us,
    torus 109^11 1164 -> 379 us, elliptic 11^7 307 -> 195 us,
    Artin-Schreier p = 31 3.7 -> 0.9 ms.  The peel loses where the degree
    is large against p: 1.1-2.5 times as long at p = 2 and 3 from degree
    24, 1.15 and 1.3 times on irreducibles of degree 64 at p = 11 and 43.
    No builder gets there: its modulus has degree at most p + 1 + 2 sqrt(p).
    """
    n = f.degree
    if n is NEG_INF or n == 0:
        return False
    return _peel(_monic_list(f), f.p, _x_powers(f))[0][0] == n


# Primes up to this bound find linear factors by `_roots`; above it, by
# gcd(f, X^p - X) and Cantor-Zassenhaus.  `factor` time with `_roots` over
# time with the gcd, 300 random monic polynomials of degree 3/4/5/6/8/11
# (medians of 7 alternating rounds, 2-core host, Python 3.11.7): p = 43
# .24/.54/.72/.77/.82/.86, p = 199 .35/.60/.76/.85/.87/.92, p = 251
# .36/.63/.83/.86/.95/.91, p = 401 .57/.78/.94/1.02/.95/.95, p = 509
# .62/.82/.92/.98/1.03/.98, p = 1021 .98/1.14/1.30/1.24/1.17/1.10.
EVAL_PRIME_BOUND = 256

_EVAL_TABLES = {}  # p -> (codec of p 4-byte slots, [row x^j for j = 0, 1, ...])


def _roots(f, p: int) -> list[int]:
    """The distinct roots in F_p, ascending, of a nonzero coefficient list.

    Row j of the table of p is one packed int whose slot x holds x^j mod p,
    so sum_j f_j row_j holds f(x) in slot x.  f is first reduced mod
    X^p - X (x^j = x^(j - p + 1) for j >= p), so the table has at most p
    rows, added as degrees need them, and every slot stays below
    p(p - 1)^2 < 2^32 for p <= 1024.
    """
    if len(f) > p:
        g = list(f[:p])
        for j in range(p, len(f)):
            i = (j - 1) % (p - 1) + 1
            g[i] = (g[i] + f[j]) % p
        f = g
    if p not in _EVAL_TABLES:
        _EVAL_TABLES[p] = (struct.Struct(f"<{p}I"), [])
    codec, rows = _EVAL_TABLES[p]
    while len(rows) < len(f):
        j = len(rows)
        rows.append(int.from_bytes(codec.pack(*[pow(x, j, p) for x in range(p)]), "little"))
    values = codec.unpack(sum(map(operator.mul, f, rows)).to_bytes(codec.size, "little"))
    return [x for x, v in enumerate(values) if not v % p]


def _peel(rest: list, p: int, powers) -> list:
    # The distinct-degree peel of the monic coefficient list `rest`, of
    # degree >= 1: (k, m, piece) triples, piece the product of the monic
    # irreducibles of degree k that divide rest exactly m times.  Step k
    # takes h_k = X^(p^k) modulo a multiple of rest from `powers`, read
    # only as far as needed, and g = gcd(rest, h_k - X), the irreducibles
    # of degree k in rest once each (those of lower degree are gone), or
    # for k = 1 and p <= EVAL_PRIME_BOUND, prod (X - r) over its roots r.
    # g is divided out, and the multiplicities peeled by the gcd of g with
    # what is left, until nothing of g is.  Once deg rest < 2(k + 1), every
    # factor left has degree > k, so rest is one irreducible.  A quadratic
    # over odd p is decided by Euler's criterion on its discriminant.
    if len(rest) == 3 and p > 2:
        c, b, _ = rest
        disc = (b * b - 4 * c) % p
        if not disc:
            return [(1, 2, [b * (p + 1) // 2 % p, 1])]
        return [(2 if pow(disc, p // 2, p) == p - 1 else 1, 1, rest)]
    pieces = []
    k = 0
    while len(rest) > 2 * k + 2:
        k += 1
        if k == 1 and p <= EVAL_PRIME_BOUND:
            g = [1]
            for r in _roots(rest, p):
                g = [(a - r * b) % p for a, b in zip([0] + g, g + [0])]
            powers = islice(powers, 1, None)
        else:
            h = _list_divmod(next(powers), rest, p)[1]
            h += [0] * (2 - len(h))
            h[1] = (h[1] - 1) % p
            g = _list_gcd(rest, _strip(h), p)
        m = 0
        while len(g) > 1:
            m += 1
            rest = _list_divmod(rest, g, p)[0]
            more = _list_gcd(rest, g, p)  # the part of g still in rest
            if len(more) < len(g):
                pieces.append((k, m, g if len(more) == 1 else _list_divmod(g, more, p)[0]))
            g = more
    if len(rest) > 1:
        pieces.append((len(rest) - 1, 1, rest))
    return pieces


def _x_powers(f: Poly):
    # X^(p^k) mod f as coefficient lists, for k = 1, 2, ..., by Frobenius
    # steps in the packed kernel of f, built on the first one.
    packed = PackedModulus(f)
    h = packed._x
    while True:
        h = packed.frobenius(h)
        yield packed.to_list(h)


# Cantor-Zassenhaus draws before `_edf` gives up on a piece.  A piece of
# r >= 2 factors of degree k splits on one draw with probability at least
# 4/9 (r = 2, p^k = 3), so a true piece fails this many draws with
# probability below 10^-32; a mislabelled piece raises instead of looping.
_EDF_DRAWS = 128


def _edf(f: Poly, k: int, draw) -> list[Poly]:
    # Equal-degree split: every factor of f has degree k.  Linear factors
    # (most split pieces at kappa = 2) are read off `_roots` for p up to
    # EVAL_PRIME_BOUND; any other piece comes from Cantor-Zassenhaus on
    # random polynomials, draw(n) giving n random coefficients.  A
    # mislabelled piece raises ValueError instead of looping: its degree is
    # not a multiple of k, it has fewer roots than its degree, or it does
    # not split in _EDF_DRAWS draws.
    n = f.degree
    if n == k:
        return [f]
    if n % k:
        raise ValueError(f"a piece of degree {n} has no split into degree {k}")
    p = f.p
    if k == 1 and p <= EVAL_PRIME_BOUND:
        roots = _roots(f.coeffs, p)
        if len(roots) < n:
            raise ValueError(f"{f} has fewer than {n} distinct roots in F_{p}")
        return [Poly([-r, 1], p) for r in roots]
    packed = None  # the kernel of f, built when first needed
    for _ in range(_EDF_DRAWS):
        h = Poly(draw(n), p)
        if h.degree is NEG_INF or h.degree == 0:
            continue
        if p == 2:
            # trace map replaces the power trick in characteristic 2
            g = h
            t = h
            for _ in range(k - 1):
                t = t * t % f
                g = (g + t) % f
        else:
            packed = packed or PackedModulus(f)
            g = poly_pow_mod(h, (p ** k - 1) // 2, f, packed) - 1
        g = poly_gcd(f, g)
        if 0 < g.degree < n:
            return _edf(g, k, draw) + _edf(f // g, k, draw)
    raise ValueError(f"no split of a degree-{n} piece into degree {k} in {_EDF_DRAWS} draws")


def factor(f: Poly, pieces=()) -> tuple[int, list[tuple[Poly, int]]]:
    """Full factorization over F_p.

    Returns (unit, factors) with unit in F_p^* and factors a sorted list of
    (monic irreducible, multiplicity).  The distinct-degree peel (see
    `_peel`) splits the monic f into pieces by degree and multiplicity,
    with no squarefree decomposition first, and the equal-degree split
    finishes each piece (see `_edf`).  Deterministic: the equal-degree
    stage draws from an RNG keyed on f itself, built on its first draw
    (most smooth candidates split without one).

    `pieces` is what `smooth_pieces` returned for f, when the caller has
    it: the peel's pieces of a kappa-smooth f of degree > kappa, so only
    the equal-degree split is left.  Empty pieces (no test, or deg f
    <= kappa) leave the peel to `factor`, by Frobenius steps in the
    packed kernel of f.  The factors do not depend on it.  `smooth_pieces`
    gives the measurements behind the 2 kappa rule, and those that keep
    the product test above it.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return unit, []
    p = f.p
    rng = None

    def draw(n):
        nonlocal rng
        if rng is None:
            mix = 0
            for c in f.coeffs:
                mix = mix * p + c + 1
            rng = random.Random(mix)
        return [rng.randrange(p) for _ in range(n)]

    pieces = pieces or _peel(_monic_list(f), p, _x_powers(f))
    factors = [(irr, m) for k, m, piece in pieces for irr in _edf(Poly(piece, p), k, draw)]
    factors.sort(key=lambda t: poly_sort_key(t[0]))
    return unit, factors


def _monic_list(f: Poly) -> list[int]:
    cs = f.coeffs
    if cs[-1] == 1:
        return list(cs)
    inv = pow(cs[-1], -1, f.p)
    return [c * inv % f.p for c in cs]


def smooth_pieces(f: Poly, kappa: int):
    """The distinct-degree pieces of f if f is kappa-smooth, else None.

    The smoothness test, exact, by one of two deciders on the Frobenius
    powers h_k = X^(p^k) mod f, computed in one packed kernel of f (one
    p-th power, then steps by the p-power matrix).  A passer of degree
    > kappa gets back its distinct-degree pieces, the (k, m, piece)
    triples of `_peel`, every k <= kappa, so `factor(f, pieces=...)` runs
    only the equal-degree split.

    For deg f <= 2 kappa the decider is the peel itself: gcd(rest, h_k - X)
    takes out the irreducibles of degree k, with their multiplicities, and
    the peel stops once deg rest < 2(k + 1), when rest is irreducible; f
    is smooth when that rest has degree <= kappa.  The peel takes at most
    deg f // 2 steps, a gcd or two each.

    Above 2 kappa most candidates fail, and the product test is cheaper
    than the gcds: with F = prod_{k <= kappa} (X^(p^k) - X), f is
    kappa-smooth if and only if f divides F^m for some m >= deg f.
    X^(p^k) - X is the product of the monic
    irreducibles of degree dividing k, so the irreducibles dividing F are
    exactly those of degree <= kappa, each at least once.  An irreducible
    q divides f at most deg f times, so for m >= deg f its whole power in
    f divides F^m when deg q <= kappa, while a q of degree > kappa never
    divides F^m.  The test multiplies the (h_k - X) together and squares
    the product ceil(log2 deg f) times, stopping once it is zero.  A
    passer is then peeled from the h_1..h_kappa the test holds; a
    kappa-smooth f is used up by step kappa, so the peel reads no further
    power, and only passers unpack them.

    The 2 kappa rule is measured at p = 43 over 600 random candidates per
    degree (medians of 13 alternating rounds in one process, 2-core host,
    Python 3.11.7), with both deciders' step 1 and linear split by roots.
    At kappa = 2, test plus split with the peel took 0.25 of the time of
    the product test followed by the split of its passers at degree 3 and
    0.65 at degree 4; peeling every candidate, test plus split, took 0.93,
    1.15, 1.34 and 1.45 times as long at degrees 5 to 8.  At kappa = 3 the
    peel's test plus split took 0.57 at degree 4, 0.79 at 5, 0.96 at 6
    and 1.07 at 7.  At kappa = 4, p = 11 (the sieve candidates of one EE
    class at 11^7, half of them of degree 11 or 13), peeling every
    candidate took 205 against 163 us per test plus split at degree 11,
    and 257 against 169 us at degree 13, so the product test stays.

    A constant, or any f of degree <= kappa, is smooth with no pieces,
    (), and `factor` peels it.  The zero polynomial raises ValueError.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no smoothness")
    n = f.degree
    if n <= max(kappa, 0):
        return ()
    if n <= 2 * kappa:
        pieces = _peel(_monic_list(f), f.p, _x_powers(f))
        return pieces if all(k <= kappa for k, _, _ in pieces) else None
    packed = PackedModulus(f)
    h = x = packed._x
    acc = 1  # the packed constant 1
    ladder = []
    for _ in range(kappa):
        h = packed.frobenius(h)
        ladder.append(h)
        acc = packed.mul(acc, packed.sub(h, x))
    for _ in range((n - 1).bit_length()):
        if not acc:
            break
        acc = packed.mul(acc, acc)
    if acc:
        return None
    return _peel(_monic_list(f), f.p, map(packed.to_list, ladder))


def poly_sort_key(q: Poly):
    """Canonical total order: by degree, then by the little-endian coefficient encoding."""
    n = 0
    for c in reversed(q.coeffs):
        n = n * q.p + c
    return (len(q.coeffs), n)


def _monic_from_index(n: int, k: int, p: int) -> Poly:
    """The monic polynomial of degree k whose low coefficients have the
    canonical encoding n = sum c_i p^i."""
    coeffs = []
    for _ in range(k):
        n, c = divmod(n, p)
        coeffs.append(c)
    coeffs.append(1)
    return Poly._reduced(tuple(coeffs), p)


def _monic_multiples(f: tuple, k: int, p: int) -> list[int]:
    """Canonical indices of all monic multiples of degree k of the monic f.

    With i = deg f, a multiple is fixed by its coefficients c_i..c_{k-1}
    (any values), and its low part is minus the remainder of
    H = X^k + sum_t c_t X^t mod f.  The index is then h * p^i + (low part),
    h = sum_t c_t p^(t-i), with no carry between the two halves.
    """
    i = len(f) - 1
    # rems[t - i] = X^t mod f, for t = i..k
    rems = [[-c % p for c in f[:-1]]]
    for _ in range(k - i):
        prev = rems[-1]
        top = prev[-1]
        rems.append([(lo - top * c) % p for lo, c in zip([0] + prev[:-1], f)])
    low = [0] * p ** (k - i)
    for s in range(i):
        # digit s of -(H mod f) for every h, most significant c_t first
        digit = [-rems[-1][s] % p]
        for r in reversed(rems[:-1]):
            rs = r[s]
            digit = [(v - c * rs) % p for v in digit for c in range(p)]
        low = [x + v * p ** s for x, v in zip(low, digit)]
    step = p ** i
    return [h * step + x for h, x in enumerate(low)]


def monic_irreducibles(p: int, max_degree: int):
    """Yield all monic irreducibles of degree 1..max_degree in canonical order.

    A sieve, with no irreducibility test: for each degree k it keeps one flag
    per monic candidate, indexed by the canonical encoding of its low
    coefficients, and clears the flags of every product of an irreducible of
    degree i <= k/2 (yielded earlier) with a monic polynomial of degree k - i.
    The survivors are yielded in increasing encoding, which is the order of
    poly_sort_key.  The generator is lazy per degree and holds p^k bytes of
    flags for the degree it is on, so O(p^max_degree) memory in all.
    """
    small = []  # coefficient tuples of the irreducibles of degree <= max_degree // 2
    for k in range(1, max_degree + 1):
        flags = bytearray(b"\x01") * p ** k
        for f in small:
            if 2 * (len(f) - 1) > k:
                break
            for n in _monic_multiples(f, k, p):
                flags[n] = 0
        for n in compress(range(p ** k), flags):
            q = _monic_from_index(n, k, p)
            if 2 * k <= max_degree:
                small.append(q.coeffs)
            yield q


def find_irreducible(p: int, degree: int) -> Poly:
    """First monic irreducible of the given degree in canonical order.

    Only the candidates of that degree are tested, in order: a sieve would
    need p^degree flags, and about one candidate in every `degree` is
    irreducible, so a hit comes early.
    """
    for n in range(p ** degree):
        q = _monic_from_index(n, degree, p)
        if is_irreducible(q):
            return q
    raise ValueError("unreachable: irreducibles exist in every degree")


def primitive_root(p: int) -> int:
    """Smallest primitive root of F_p."""
    if p == 2:
        return 1
    fac = factorize_int(p - 1)
    g = 2
    while True:
        if all(pow(g, (p - 1) // ell, p) != 1 for ell in fac):
            return g
        g += 1


def bsgs_dlog(ops, base, target, order: int) -> int:
    """x in [0, order) with base^x = target, by baby-step giant-step.

    ops is a field adapter (PrimeOps, QuotientField) and order a multiple
    of the order of base, so the work is about sqrt(order) products.
    """
    target = ops.el(target)
    if ops.is_zero(target):
        raise ValueError("0 has no discrete log")
    m = isqrt(order - 1) + 1
    table = {}
    e = ops.one()
    for j in range(m):
        table.setdefault(e, j)
        e = ops.mul(e, base)
    giant = ops.pow(base, order - m)  # base^(-m)
    gamma = target
    for i in range(m + 1):
        if gamma in table:
            return (i * m + table[gamma]) % order
        gamma = ops.mul(gamma, giant)
    raise ValueError(f"{target} is not in the subgroup generated by {base}")


class PrimeOps:
    """Field operations on F_p with plain int elements.

    Mirrors the QuotientField interface so code generic over a field (curve
    arithmetic, mostly) runs unchanged over F_p and over extensions.
    """

    def __init__(self, p: int):
        self.p = p

    def __repr__(self):
        return f"PrimeOps({self.p})"

    def el(self, c: int) -> int:
        return c % self.p

    def embed(self, c: int) -> int:
        return c % self.p

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise NonInvertible("0 has no inverse")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return a * self.inv(b) % self.p

    def pow(self, a: int, e: int) -> int:
        return pow(a, e, self.p)

    def is_zero(self, a: int) -> bool:
        return a % self.p == 0

    def eq(self, a: int, b: int) -> bool:
        return (a - b) % self.p == 0

    def random_el(self, rng: random.Random) -> int:
        return rng.randrange(self.p)


class QuotientField:
    """Arithmetic in F_p[X]/(modulus), a field when the modulus is irreducible.

    Elements are Poly values reduced below the modulus degree.  The class
    only bundles the modulus, and the packed kernel built for it once, with
    the handful of operations the rest of the package needs; it does not
    wrap elements.
    """

    def __init__(self, modulus: Poly):
        if modulus.degree is NEG_INF or modulus.degree < 1:
            raise ValueError("modulus must have positive degree")
        self.modulus = modulus.monic()
        self.p = modulus.p
        self.degree = modulus.degree
        self.packed = PackedModulus(self.modulus)

    def __repr__(self):
        return f"QuotientField(F_{self.p}[X]/deg{self.degree})"

    def order(self) -> int:
        return self.p ** self.degree

    def el(self, coeffs) -> Poly:
        if isinstance(coeffs, Poly):
            return coeffs % self.modulus
        return Poly(coeffs, self.p) % self.modulus

    def embed(self, c: int) -> Poly:
        return Poly([c], self.p)

    def zero(self) -> Poly:
        return Poly([], self.p)

    def one(self) -> Poly:
        return Poly([1], self.p)

    def x(self) -> Poly:
        return Poly([0, 1], self.p) % self.modulus

    def add(self, a: Poly, b: Poly) -> Poly:
        return a + b

    def sub(self, a: Poly, b: Poly) -> Poly:
        return a - b

    def neg(self, a: Poly) -> Poly:
        return -a

    def mul(self, a: Poly, b: Poly) -> Poly:
        k = self.packed
        return k.unpack(k.mul(k.pack(a), k.pack(b)))

    def inv(self, a: Poly) -> Poly:
        return poly_invert_mod(a, self.modulus)

    def div(self, a: Poly, b: Poly) -> Poly:
        return self.mul(a, self.inv(b))

    def pow(self, a: Poly, e: int) -> Poly:
        return poly_pow_mod(a, e, self.modulus, self.packed)

    def is_zero(self, a: Poly) -> bool:
        return a.is_zero()

    def eq(self, a: Poly, b: Poly) -> bool:
        return a == b

    def random_el(self, rng: random.Random) -> Poly:
        return Poly([rng.randrange(self.p) for _ in range(self.degree)], self.p)

    def elements(self):
        """All p^degree elements, for desk-scale brute force."""
        total = self.order()
        for n in range(total):
            coeffs, v = [], n
            for _ in range(self.degree):
                coeffs.append(v % self.p)
                v //= self.p
            yield Poly(coeffs, self.p)


class FixedBasePowers:
    """g^e for one fixed element g of a QuotientField, from a window-4 table
    (Brickell, Gordon, McCurley and Wilson, 1992).

    Row j holds g^(c * 16^j) for the hex digits c = 1..15, packed, so a power
    costs one packed product per nonzero hex digit of e instead of a square
    per bit.  `order` is a multiple of the order of g (for a unit, the group
    order p^d - 1), so e is reduced mod order first; a negative e is fine.
    """

    def __init__(self, ring: QuotientField, g: Poly, order: int):
        self.ring = ring
        self.order = order
        k = ring.packed
        base = k.pack(g)
        self._rows = []
        for _ in range(max(1, -(-(order - 1).bit_length() // 4))):
            row = {"1": base}
            acc = base
            for c in "23456789abcdef":
                acc = k.mul(acc, base)
                row[c] = acc
            self._rows.append(row)
            base = k.mul(acc, base)  # g^(16^(j+1))

    def pow(self, e: int) -> Poly:
        k = self.ring.packed
        acc = 1  # the packed constant 1
        for row, c in zip(self._rows, reversed(f"{e % self.order:x}")):
            if c != "0":
                acc = row[c] if acc == 1 else k.mul(acc, row[c])
        return k.unpack(acc)


# ---------------------------------------------------------------------------
# Sparse linear algebra mod a prime: one incremental echelon.


class Echelon:
    """Row echelon form over F_p, one sparse row at a time (LaMacchia and
    Odlyzko, 1990).  `pivots` maps each pivot column c to a row {column:
    value} whose lowest nonzero column is c, with 1 there and the right side
    at column ncols.  A row is reduced once, lowest column first, until its
    lowest column has no pivot and becomes one: the pivots of the RREF."""

    def __init__(self, ncols: int, p: int):
        self.ncols, self.p, self.pivots = ncols, p, {}

    @property
    def full(self) -> bool:
        return len(self.pivots) == self.ncols

    def add(self, row: dict, rhs: int = 0):
        """Add the equation sum row[c] x_c = rhs; ValueError if the rows contradict it."""
        p, pivots = self.p, self.pivots
        row = {c: v % p for c, v in {**row, self.ncols: rhs}.items() if v % p}
        while row:
            c = min(row)
            if c == self.ncols:
                raise ValueError(f"rows are inconsistent modulo {p}")
            f = row[c]
            if c not in pivots:
                inv = pow(f, -1, p)
                pivots[c] = {j: v * inv % p for j, v in row.items()}
                return
            for j, v in pivots[c].items():
                if w := (row.get(j, 0) - f * v) % p:
                    row[j] = w
                else:
                    del row[j]

    def solve(self, free=()) -> list[int]:
        """The solution with 1 at each column in free, 0 at the other non-pivots."""
        x = [int(c in free) for c in range(self.ncols)] + [-1]
        for c in sorted(self.pivots, reverse=True):
            # x[c] is still 0, and x[ncols] = -1 carries the right side
            x[c] = -sum(v * x[j] for j, v in self.pivots[c].items()) % self.p
        return x[:-1]


def kernel_basis(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right null space over F_p, as read from the RREF: per
    column without a pivot, ascending, the vector 1 there, 0 at the others."""
    ech = Echelon(ncols, p)
    for row in rows:
        ech.add(dict(enumerate(row)))
    return [ech.solve(free=(c,)) for c in range(ncols) if c not in ech.pivots]


def coefficient_rows(polys, n: int) -> list[list[int]]:
    """The n x len(polys) matrix over F_p whose column i holds the
    coefficients of polys[i] below degree n."""
    return [[q.coeffs[c] if c < len(q.coeffs) else 0 for q in polys] for c in range(n)]


def fraction_kernel(vals, zvals, n: int, p: int) -> list[list[int]]:
    """Kernel basis of [vals | -zvals], each column the coefficients of one
    element of F_p[X]/(A) below degree n = deg A: the vectors (a, b) with
    sum a_i vals[i] = sum b_i zvals[i].  With zvals[i] = z * vals[i] these
    are the fractions z = num / den, num = sum a_i vals[i] and
    den = sum b_i vals[i] (when den != 0), over the span of vals."""
    rows = [
        row + [-c % p for c in zrow]
        for row, zrow in zip(coefficient_rows(vals, n), coefficient_rows(zvals, n))
    ]
    return kernel_basis(rows, 2 * len(vals), p)


def _combine(coeffs, polys):
    """sum_i coeffs[i] * polys[i] over F_p."""
    acc = [0] * max(len(q.coeffs) for q in polys)
    for c, q in zip(coeffs, polys):
        if c:
            for j, a in enumerate(q.coeffs):
                acc[j] += c * a
    return Poly(acc, polys[0].p)
