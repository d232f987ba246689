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
irreducibility test each, and a sieve candidate is tested for
kappa-smoothness before it is factored.  `is_smooth` decides it exactly
without factoring: f is kappa-smooth if and only if f divides F^m for
F = prod_{k <= kappa} (X^(p^k) - X) and any m >= deg f, since F is the
product of the monic irreducibles of degree <= kappa (each at least
once) and no irreducible divides f more than deg f times.  That is a
few Frobenius powers and squarings in one packed kernel of f, so
`factor` runs only on the candidates that pass.
"""

from __future__ import annotations

import operator
import random
import struct
from itertools import compress
from math import isqrt

from .errors import NonInvertible

# Degree of the zero polynomial.  A distinct sentinel rather than -1 so
# that degree bookkeeping (sub-additivity checks, orbit walks) cannot
# silently treat the zero polynomial as a unit.
NEG_INF = float("-inf")

_TRIAL_BOUND = 10 ** 6


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
    """Factor a positive integer: trial division to 10^6, Pollard rho after.

    Returns {prime: multiplicity}.  Trial division takes out every prime
    below 10^6; a cofactor left above 10^12 that is not prime goes to
    Brent's rho.  Group orders on the ladder do get there: 43^11 - 1 leaves
    6038099 * 3664405207 and 199^11 - 1 leaves 75449464927 * 117942356533
    (about 8.9e21) for rho to split.
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
    # Brent's cycle finding.
    y, r, q, d = 2, 1, 1, 1
    g = lambda v: (v * v + c) % n
    x = ys = y
    while d == 1:
        x = y
        for _ in range(r):
            y = g(y)
        k = 0
        while k < r and d == 1:
            ys = y
            for _ in range(min(128, r - k)):
                y = g(y)
                q = q * abs(x - y) % n
            d = _gcd(q, n)
            k += 128
        r *= 2
    if d == n:
        d = 1
        while d == 1:
            ys = g(ys)
            d = _gcd(abs(x - ys), n)
    return d


def _gcd(a: int, b: int) -> int:
    while b:
        a, b = b, a % b
    return a


def crt(residues: list[int], moduli: list[int]) -> int:
    """Combine residues over pairwise coprime moduli."""
    x, m = 0, 1
    for r, q in zip(residues, moduli):
        # solve x' = x mod m, x' = r mod q
        t = ((r - x) * pow(m, -1, q)) % q
        x += m * t
        m *= q
    return x % m


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
        p = self.p
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly([], p), self
        quo = [0] * (dq + 1)
        inv_lc = pow(other.coeffs[-1], p - 2, p)
        for i in range(dq, -1, -1):
            c = rem[i + len(other.coeffs) - 1]
            if c == 0:
                continue
            q = c * inv_lc % p
            quo[i] = q
            for j, b in enumerate(other.coeffs):
                rem[i + j] = (rem[i + j] - q * b) % p
        return Poly(quo, p), Poly(rem, p)

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

    def pth_root(self) -> "Poly":
        """For f = g(X^p), recover g.  Coefficients are F_p-fixed under x -> x^p."""
        p = self.p
        out = []
        for i, c in enumerate(self.coeffs):
            if i % p == 0:
                out.append(c)
            elif c != 0:
                raise ValueError("polynomial is not a p-th power")
        return Poly(out, p)

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
    while g:
        f, g = g, f % g
    if not f:
        return f
    return f.monic()


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


def _slot_codec(count: int, width: int):
    """Packs `count` slots of `width` bytes to bytes and back."""
    fmt = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)
    return struct.Struct(f"<{count}{fmt}") if fmt else _WideSlots(count, width)


class PackedModulus:
    """The packed kernel for F_p[X]/(modulus): elements as ints, d slots each.

    Slot i of an element holds its X^i coefficient.  The slot width is
    S = bit_length(2d(p-1)^2) bits (see the module docstring), rounded up to
    1, 2, 4 or 8 bytes so that struct moves the slots in and out of bytes in
    one call; past 64 bits it is rounded up to whole bytes.  The modulus
    need not be monic.
    """

    __slots__ = ("modulus", "p", "d", "_full", "_low", "_low_mask", "_zeros", "_rows")

    def __init__(self, modulus: Poly):
        p, d = modulus.p, modulus.degree
        if d is NEG_INF or d < 1:
            raise ValueError("modulus must have positive degree")
        self.modulus = modulus
        self.p = p
        self.d = d
        width = -(-(2 * d * (p - 1) ** 2).bit_length() // 8)  # bytes for S bits
        if width <= 8:
            width = 1 << (width - 1).bit_length()  # 1, 2, 4 or 8
        self._full = _slot_codec(2 * d - 1, width)  # a product before folding
        self._low = _slot_codec(d, width)
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

    def pack(self, f: Poly) -> int:
        if f.p != self.p:
            raise ValueError("mixed moduli")
        cs = f.coeffs
        if len(cs) > self.d:
            cs = (f % self.modulus).coeffs
        return int.from_bytes(self._low.pack(*cs, *self._zeros[len(cs):]), "little")

    def unpack(self, a: int) -> Poly:
        return Poly(self._low.unpack(a.to_bytes(self._low.size, "little")), self.p)

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


def poly_invert_mod(f: Poly, modulus: Poly) -> Poly:
    """Inverse of f modulo an irreducible modulus, by extended Euclid."""
    r0, r1 = modulus, f % modulus
    s0, s1 = Poly([], f.p), Poly([1], f.p)
    while r1:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, s0 - q * s1
    if r0.degree != 0:
        raise NonInvertible(f"gcd has degree {r0.degree}, element is not a unit")
    inv_c = pow(r0.coeffs[0], f.p - 2, f.p)
    return s0 * inv_c % modulus


def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_p via the x^(p^k) - x gcd ladder."""
    n = f.degree
    if n is NEG_INF or n == 0:
        return False
    if n == 1:
        return True
    p = f.p
    x = Poly([0, 1], p)
    packed = PackedModulus(f)
    xq = poly_pow_mod(x, p ** n, f, packed)
    if xq != x % f:
        return False
    for ell in factorize_int(n):
        h = poly_pow_mod(x, p ** (n // ell), f, packed)
        if poly_gcd(f, h - x).degree != 0:
            return False
    return True


def squarefree_decomposition(f: Poly) -> list[tuple[Poly, int]]:
    """Monic f into pairwise coprime squarefree parts with multiplicities."""
    p = f.p
    out: list[tuple[Poly, int]] = []
    deriv = f.derivative()
    if deriv.is_zero():
        for g, m in squarefree_decomposition(f.pth_root()):
            out.append((g, m * p))
        return out
    c = poly_gcd(f, deriv)
    w = f // c
    m = 1
    while w.degree != 0:
        y = poly_gcd(w, c)
        z = w // y
        if z.degree != 0:
            out.append((z, m))
        w = y
        c = c // y
        m += 1
    if c.degree != 0:
        for g, mm in squarefree_decomposition(c.pth_root()):
            out.append((g, mm * p))
    return out


def _ddf(f: Poly) -> list[tuple[int, Poly]]:
    # Distinct-degree split of a squarefree monic polynomial.
    p = f.p
    x = Poly([0, 1], p)
    out = []
    h = x
    k = 0
    rest = f
    packed = None  # the kernel of rest, built when first needed
    while rest.degree >= 2 * (k + 1):
        k += 1
        packed = packed or PackedModulus(rest)
        h = poly_pow_mod(h, p, rest, packed)
        g = poly_gcd(rest, h - x)
        if g.degree != 0:
            out.append((k, g))
            rest = rest // g
            h = h % rest
            packed = None
    if rest.degree != 0:
        out.append((rest.degree, rest))
    return out


def _edf(f: Poly, k: int, rng: random.Random) -> list[Poly]:
    # Cantor-Zassenhaus equal-degree split: every factor of f has degree k.
    if f.degree == k:
        return [f]
    p = f.p
    n = f.degree
    packed = None  # the kernel of f, built when first needed
    while True:
        h = Poly([rng.randrange(p) for _ in range(n)], p)
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
            return _edf(g, k, rng) + _edf(f // g, k, rng)


def factor(f: Poly, seed: int = 0) -> tuple[int, list[tuple[Poly, int]]]:
    """Full factorization over F_p.

    Returns (unit, factors) with unit in F_p^* and factors a sorted list of
    (monic irreducible, multiplicity).  Deterministic for a given seed: the
    equal-degree stage draws from an RNG keyed on the seed and f itself.
    """
    if f.is_zero():
        raise ValueError("cannot factor the zero polynomial")
    unit = f.lc()
    if f.degree == 0:
        return unit, []
    mix = seed
    for c in f.coeffs:
        mix = mix * f.p + c + 1
    rng = random.Random(mix)
    work = f.monic()
    factors: list[tuple[Poly, int]] = []
    for sqf, mult in squarefree_decomposition(work):
        for k, piece in _ddf(sqf):
            for irr in _edf(piece, k, rng):
                factors.append((irr, mult))
    factors.sort(key=lambda t: poly_sort_key(t[0]))
    return unit, factors


def is_smooth(f: Poly, kappa: int) -> bool:
    """Whether every irreducible factor of f has degree <= kappa.

    Exact, and no factoring: with F = prod_{k <= kappa} (X^(p^k) - X),
    f is kappa-smooth if and only if f divides F^m for some m >= deg f.
    X^(p^k) - X is the product of the monic irreducibles of degree
    dividing k, so the irreducibles dividing F are exactly those of degree
    <= kappa, each at least once.  An irreducible q divides f at most
    deg f times, so for m >= deg f its whole power in f divides F^m when
    deg q <= kappa, while a q of degree > kappa never divides F^m.  One
    packed kernel of f computes h_k = X^(p^k) mod f as h_(k-1)^p,
    multiplies the (h_k - X) together, and squares the product
    ceil(log2 deg f) times, stopping once it is zero.  The zero
    polynomial raises ValueError.
    """
    if f.is_zero():
        raise ValueError("the zero polynomial has no smoothness")
    n = f.degree
    if n <= max(kappa, 0):
        return True
    p = f.p
    packed = PackedModulus(f)
    h = x = packed.pack(Poly([0, 1], p))
    acc = 1  # the packed constant 1
    for _ in range(kappa):
        h = packed.pow(h, p)
        acc = packed.mul(acc, packed.sub(h, x))
    for _ in range((n - 1).bit_length()):
        if not acc:
            return True
        acc = packed.mul(acc, acc)
    return not acc


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
    return Poly(coeffs, p)


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
# Small dense linear algebra mod a prime.  Rows are lists of ints.


def rref_mod_p(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form over F_p.  Returns (rows, pivot column list)."""
    mat = [[c % p for c in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] % p != 0), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [v * inv % p for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [(v - f * w) % p for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


def kernel_basis(rows: list[list[int]], ncols: int, p: int) -> list[list[int]]:
    """Basis of the right null space of the matrix over F_p."""
    if not rows:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    rref, pivots = rref_mod_p(rows, p)
    pivot_set = set(pivots)
    free_cols = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free_cols:
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rref, pivots):
            vec[pc] = (-row[fc]) % p
        basis.append(vec)
    return basis


def solve_mod_prime(rows: list[list[int]], rhs: list[int], p: int):
    """Solve A x = b over F_p.

    Returns (particular solution, free column list), or None if inconsistent.
    Free columns are set to 0 in the particular solution.
    """
    aug = [list(r) + [b % p] for r, b in zip(rows, rhs)]
    ncols = len(rows[0]) if rows else 0
    rref, pivots = rref_mod_p(aug, p)
    if ncols in pivots:
        return None
    x = [0] * ncols
    for row, pc in zip(rref, pivots):
        x[pc] = row[-1] % p
    free = [c for c in range(ncols) if c not in set(pivots)]
    return x, free
