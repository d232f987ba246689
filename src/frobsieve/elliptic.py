"""Elliptic curves over F_p and residue fields built on isogeny fibers.

The construction here gives F_{p^d} a curve-flavored structure: quotient an
elliptic curve E by a rational cyclic subgroup T of order d (Vélu), pick a
rational point a on the image curve whose fiber is irreducible, and let A
be the fiber polynomial.  The d geometric points above a are conjugate,
Frobenius permutes them, and since the fiber is a T-coset the permutation
is translation by a kernel point t*.  That makes x -> x^p computable by
one curve addition instead of a modular exponentiation, and it works for
degrees d dividing neither p-1 nor p+1.

Everything is short Weierstrass internally; long-form coefficients are
converted on input (p > 3 makes that lossless) and kept for reference.
"""

import math

from .errors import (
    DegreeNotCompatible,
    InconsistentFrobenius,
    InvalidPoint,
    NonInvertible,
    NotFound,
)
from .ffcore import (
    Poly,
    PrimeField,
    PrimeOps,
    QuotientField,
    _combine,
    double_and_add,
    factorize_int,
    fraction_kernel,
    horner,
    is_irreducible,
    is_prime,
    order_from_multiple,
    poly_invert_mod,
    poly_pow_mod,
)
from .galoisrep import ELLIPTIC, CurveFrobenius, Representation, verify_representation


# ---------------------------------------------------------------------------
# Point arithmetic, generic over a field adapter (PrimeOps / QuotientField).
# Points are (x, y) pairs of field elements; None is the point at infinity.


def ec_on_curve(ops, a4, a6, P) -> bool:
    if P is None:
        return True
    x, y = P
    lhs = ops.mul(y, y)
    rhs = ops.add(ops.mul(ops.mul(x, x), x), ops.add(ops.mul(ops.embed(a4), x), ops.embed(a6)))
    return ops.eq(lhs, rhs)


def ec_neg(ops, P):
    if P is None:
        return None
    return (P[0], ops.neg(P[1]))


def ec_add(ops, a4, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if ops.eq(x1, x2):
        if ops.eq(y1, ops.neg(y2)):
            return None
        # doubling; y1 == y2 != 0 here
        num = ops.add(ops.mul(ops.embed(3), ops.mul(x1, x1)), ops.embed(a4))
        lam = ops.div(num, ops.mul(ops.embed(2), y1))
    else:
        lam = ops.div(ops.sub(y2, y1), ops.sub(x2, x1))
    x3 = ops.sub(ops.sub(ops.mul(lam, lam), x1), x2)
    y3 = ops.sub(ops.mul(lam, ops.sub(x1, x3)), y1)
    return (x3, y3)


def ec_sub(ops, a4, P, Q):
    return ec_add(ops, a4, P, ec_neg(ops, Q))


def ec_scalar(ops, a4, k: int, P):
    if k < 0:
        return ec_scalar(ops, a4, -k, ec_neg(ops, P))
    return double_and_add(lambda Q, R: ec_add(ops, a4, Q, R), None, P, k)


def ec_point_order(ops, a4, P, n: int, n_factors) -> int:
    """Exact order of P given a multiple n of it with known factorization."""
    return order_from_multiple(n, n_factors, lambda m: ec_scalar(ops, a4, m, P) is None)


# ---------------------------------------------------------------------------


class Curve:
    """y^2 = x^3 + a4 x + a6 over F_p, possibly converted from long form."""

    def __init__(self, p: int, a4: int, a6: int, long_coeffs=None, shift=None):
        if p <= 3 or not is_prime(p):
            raise ValueError("curve arithmetic needs a prime p > 3")
        self.p = p
        self.a4 = a4 % p
        self.a6 = a6 % p
        if (4 * self.a4**3 + 27 * self.a6**2) % p == 0:
            raise InvalidPoint(f"singular curve (a4={a4}, a6={a6}) mod {p}")
        self.long_coeffs = tuple(c % p for c in long_coeffs) if long_coeffs else None
        # (r, s1, s0): long (x, y) maps to short (x + r, y + s1*x + s0)
        self.shift = shift
        self.ops = PrimeOps(p)
        self._count = None

    @classmethod
    def from_long(cls, p: int, a1: int, a2: int, a3: int, a4: int, a6: int):
        """Complete the square and depress the cubic; p > 3 keeps this exact."""
        inv2 = pow(2, -1, p)
        inv3 = pow(3, -1, p)
        b2 = (a1 * a1 + 4 * a2) % p
        b4 = (2 * a4 + a1 * a3) % p
        b6 = (a3 * a3 + 4 * a6) % p
        # mid model y^2 = x^3 + c2 x^2 + c4 x + c6
        c2 = b2 * inv2 % p * inv2 % p
        c4 = b4 * inv2 % p
        c6 = b6 * inv2 % p * inv2 % p
        r = c2 * inv3 % p
        A = (c4 - c2 * c2 % p * inv3) % p
        B = (c6 - c2 * c4 % p * inv3 + 2 * pow(c2, 3, p) * pow(27, -1, p)) % p
        shift = (r, a1 * inv2 % p, a3 * inv2 % p)
        return cls(p, A, B, long_coeffs=(a1, a2, a3, a4, a6), shift=shift)

    def __repr__(self):
        return f"Curve(p={self.p}, a4={self.a4}, a6={self.a6})"

    def __eq__(self, other):
        return (
            isinstance(other, Curve)
            and (self.p, self.a4, self.a6) == (other.p, other.a4, other.a6)
        )

    def to_short_point(self, P):
        """Map a point given in long-form coordinates onto the short model."""
        if P is None:
            return None
        if self.shift is None:
            return (P[0] % self.p, P[1] % self.p)
        r, s1, s0 = self.shift
        x, y = P
        return ((x + r) % self.p, (y + s1 * x + s0) % self.p)

    def rhs(self, x: int) -> int:
        return (x**3 + self.a4 * x + self.a6) % self.p

    def point_count(self) -> int:
        if self._count is None:
            p = self.p
            half = (p - 1) // 2
            n = p + 1
            for x in range(p):
                chi = pow(self.rhs(x), half, p)
                if chi == 1:
                    n += 1
                elif chi == p - 1:
                    n -= 1
            t = p + 1 - n
            if t * t > 4 * p:
                raise InconsistentFrobenius(f"trace {t} violates the Hasse bound")
            self._count = n
        return self._count

    def trace(self) -> int:
        return self.p + 1 - self.point_count()

    def is_ordinary(self) -> bool:
        return self.trace() % self.p != 0

    def points(self):
        """Affine rational points, x ascending then y ascending."""
        p = self.p
        roots = {}
        for y in range(p):
            roots.setdefault(y * y % p, []).append(y)
        out = []
        for x in range(p):
            for y in roots.get(self.rhs(x), ()):
                out.append((x, y))
        return out

    def to_json(self):
        return {
            "p": self.p,
            "coeffs_long": list(self.long_coeffs) if self.long_coeffs else None,
            "coeffs_short": [self.a4, self.a6],
            "order": self.point_count(),
        }


def curve_iter(p: int, target: int):
    """All short curves with the given point count and nonzero trace mod p,
    in lexicographic (a4, a6) order."""
    for a4 in range(p):
        for a6 in range(p):
            if (4 * a4**3 + 27 * a6**2) % p == 0:
                continue
            crv = Curve(p, a4, a6)
            if crv.point_count() == target and crv.is_ordinary():
                yield crv


def curve_search(p: int, target: int) -> Curve:
    """First ordinary curve with exactly the requested number of points."""
    for crv in curve_iter(p, target):
        return crv
    raise NotFound(f"no ordinary curve over F_{p} with {target} points")


# ---------------------------------------------------------------------------
# Vélu quotient by an odd-order rational cyclic subgroup.


class Isogeny:
    """Separable isogeny E -> F with kernel polynomial h.

    x-map: N_x / h^2 with deg N_x = degree, monic.
    y-map: y * N_y / h^3.
    """

    def __init__(self, domain, codomain, degree, h, N_x, N_y, kernel_points):
        self.domain = domain
        self.codomain = codomain
        self.degree = degree
        self.h = h
        self.N_x = N_x
        self.N_y = N_y
        self.kernel_points = kernel_points

    def __repr__(self):
        return f"Isogeny(degree={self.degree}, p={self.domain.p})"

    def apply(self, P):
        """Image of a rational point of the domain; None maps to None, and
        so does a point of the kernel."""
        if P is None:
            return None
        ops = self.domain.ops
        x, y = P
        hx = horner(ops, self.h, x)
        if ops.is_zero(hx):
            return None
        h2 = ops.mul(hx, hx)
        h3 = ops.mul(h2, hx)
        xi = ops.div(horner(ops, self.N_x, x), h2)
        yi = ops.mul(y, ops.div(horner(ops, self.N_y, x), h3))
        return (xi, yi)

    def to_json(self):
        return {
            "domain": self.domain.to_json(),
            "codomain": self.codomain.to_json(),
            "degree": self.degree,
            "kernel_poly": self.h.to_list(),
            "x_map_num": self.N_x.to_list(),
            "y_map_num": self.N_y.to_list(),
        }


def velu_quotient(E: Curve, T_gen) -> Isogeny:
    """Quotient of E by the cyclic group generated by T_gen (odd order)."""
    p = E.p
    ops = E.ops
    if T_gen is None:
        raise InvalidPoint("kernel generator must not be the identity")
    if not ec_on_curve(ops, E.a4, E.a6, T_gen):
        raise InvalidPoint(f"{T_gen} is not on the curve")
    kernel = [None]
    Q = T_gen
    while Q is not None:
        kernel.append(Q)
        if len(kernel) > 4 * p:
            raise InvalidPoint("kernel generator order exceeds the group bound")
        Q = ec_add(ops, E.a4, Q, T_gen)
    d = len(kernel)
    if d % 2 == 0:
        raise DegreeNotCompatible("even-degree quotients are not supported")
    if d % p == 0:
        raise DegreeNotCompatible("kernel order divisible by p is not separable")
    if d < 3:
        raise DegreeNotCompatible("kernel must have order at least 3")

    field = PrimeField(p)
    half = kernel[1:(d - 1) // 2 + 1]
    t_sum = w_sum = 0
    h = field.poly([1])
    data = []
    for Qx, Qy in half:
        tQ = (6 * Qx * Qx + 2 * E.a4) % p
        uQ = 4 * Qy * Qy % p
        wQ = (uQ + tQ * Qx) % p
        t_sum = (t_sum + tQ) % p
        w_sum = (w_sum + wQ) % p
        data.append((Qx, tQ, uQ))
        h = h * field.poly([-Qx, 1])
    a4_new = (E.a4 - 5 * t_sum) % p
    a6_new = (E.a6 - 7 * w_sum) % p
    F = Curve(p, a4_new, a6_new)

    x_poly = field.poly([0, 1])
    N_x = x_poly * h * h
    for Qx, tQ, uQ in data:
        h_Q = h // field.poly([-Qx, 1])
        hQ2 = h_Q * h_Q
        N_x = N_x + (x_poly - Qx) * hQ2 * tQ + hQ2 * uQ
    N_y = N_x.derivative() * h - N_x * h.derivative() * 2

    iso = Isogeny(E, F, d, h, N_x, N_y, kernel)
    for P in kernel[1:]:
        if iso.apply(P) is not None:
            raise InconsistentFrobenius("kernel point does not map to infinity")
    return iso


# ---------------------------------------------------------------------------
# Residue field on an irreducible fiber.


class EllipticResidueRep:
    """F_{p^d} presented as F_p[X]/(A) where A cuts out the fiber of an
    isogeny over a rational point a; Frobenius is translation by t*."""

    def __init__(self, rep, curve, isogeny, target, Y, t_star, subgroup, generator):
        self.rep = rep
        self.curve = curve
        self.isogeny = isogeny
        self.target = target
        self.Y = Y
        self.t_star = t_star
        self.subgroup = subgroup
        self.generator = generator
        rep.ext = self

    @property
    def ring(self):
        return self.rep.ring

    def point(self):
        """The fiber point B = (x, Y) with coordinates in L."""
        return (self.ring.x(), self.Y)

    def __repr__(self):
        return (
            f"EllipticResidueRep(p={self.rep.p}, d={self.rep.d}, "
            f"curve={self.curve!r})"
        )

    def curve_json(self):
        """The keys a stored elliptic rep keeps beside the Representation's."""
        return {
            "curve": self.curve.to_json(),
            "isogeny": self.isogeny.to_json(),
            "target": list(self.target),
            "Y": self.Y.to_list(),
            "t_star": list(self.t_star),
        }

    def to_json(self):
        return self.rep.to_json()


def translate_point(ext: EllipticResidueRep, P, t):
    """P (+) t for P with coordinates in L and t a rational point."""
    return _translate(ext.ring, ext.curve.a4, P, t)


def _translate(ring, a4, P, t):
    if t is None:
        return P
    xt = ring.embed(t[0])
    if ring.eq(P[0], xt):
        # would need a doubling; cannot happen for fiber points vs rational t
        raise NonInvertible("fiber point collides with a rational point")
    return ec_add(ring, a4, P, (xt, ring.embed(t[1])))


def translate_x(ext: EllipticResidueRep, t) -> Poly:
    """x(B (+) t) as an element of L = F_p[X]/A."""
    return translate_point(ext, ext.point(), t)[0]


def hasse_multiples(p: int, d: int) -> range:
    """The positive multiples of d in [p + 1 - 2 isqrt(p), p + 1 + 2 isqrt(p)]:
    the curve orders over F_p the builder scans, inside Hasse's bound."""
    root = 2 * math.isqrt(p)
    return range(-(-max(p + 1 - root, 1) // d) * d, p + 2 + root, d)


def build_elliptic_residue(p: int, d: int) -> EllipticResidueRep:
    """Full pipeline: curve with d | #E and cyclic rational points, Vélu
    quotient by the order-d subgroup, scan for an irreducible fiber, then
    identify Frobenius among the d translations."""
    if d % 2 == 0 or d < 3:
        raise DegreeNotCompatible("fiber construction needs odd degree >= 3")
    if p <= 3 or not is_prime(p):
        raise DegreeNotCompatible("need a prime p > 3")
    if d % p == 0:
        raise DegreeNotCompatible("degree divisible by p needs a different model")

    candidates = hasse_multiples(p, d)
    if not candidates:
        raise NotFound(f"no multiple of {d} in the Hasse interval of F_{p}")

    for D in candidates:
        facs = factorize_int(D)
        for crv in curve_iter(p, D):
            gen = None
            for P in crv.points():
                if ec_point_order(crv.ops, crv.a4, P, D, facs) == D:
                    gen = P
                    break
            if gen is None:
                continue  # rational points not cyclic on this curve
            T_gen = ec_scalar(crv.ops, crv.a4, D // d, gen)
            iso = velu_quotient(crv, T_gen)
            ext = _fiber_scan(crv, iso, gen)
            if ext is not None:
                verify_representation(ext.rep)
                return ext
    raise NotFound(f"no irreducible degree-{d} fiber found over F_{p}")


def _fiber_scan(crv: Curve, iso: Isogeny, gen):
    p = crv.p
    d = iso.degree
    field = PrimeField(p)
    h2 = iso.h * iso.h
    f_poly = field.poly([crv.a6, crv.a4, 0, 1])

    for a in iso.codomain.points():
        A = iso.N_x - h2 * a[0]
        if not is_irreducible(A):
            continue
        ring = QuotientField(A)
        try:
            Ny_inv = poly_invert_mod(iso.N_y % A, A)
        except NonInvertible:
            continue
        h3 = ring.el(iso.h * iso.h * iso.h)
        Y = ring.mul(ring.mul(ring.embed(a[1]), h3), Ny_inv)
        if ring.mul(Y, Y) != ring.el(f_poly):
            continue

        subgroup = iso.kernel_points
        B = (ring.x(), Y)
        x_p = poly_pow_mod(ring.x(), p, A)
        t_star = next((t for t in subgroup
                       if t is not None and _translate(ring, crv.a4, B, t)[0] == x_p), None)
        if t_star is None:
            raise InconsistentFrobenius(
                "no kernel translation matches x^p on an irreducible fiber"
            )
        # the images x^(p^k) are the x-coordinates of B (+) k t*
        points = [B]
        for _ in range(d - 1):
            points.append(_translate(ring, crv.a4, points[-1], t_star))
        # the y-coordinate must follow along: Frobenius of B is (x^p, Y^p)
        if points[1][1] != ring.pow(Y, p):
            raise InconsistentFrobenius("translation matches x^p but not y^p")
        rep = Representation(
            ELLIPTIC,
            field,
            d,
            A,
            CurveFrobenius([P[0] for P in points]),
            {"a4": crv.a4, "a6": crv.a6, "x_a": a[0], "y_a": a[1],
             "t_star": list(t_star)},
        )
        return EllipticResidueRep(rep, crv, iso, a, Y, t_star, subgroup, gen)
    return None


# ---------------------------------------------------------------------------
# Degree filtration via Riemann-Roch spaces based at kernel points.
#
# An element z of L is a function on the fiber; its degree is the smallest k
# such that z = n/d on B with n, d in the space of functions having a pole
# of order <= k at a single point t of T.  Basing the spaces at kernel
# points (rather than only at infinity) is what makes the filtration
# invariant under Frobenius, which permutes fibers by T-translation.


class Interpolation:
    """Certificate that z = num/den with num, den in L(k*(t))."""

    __slots__ = ("t", "k", "basis", "num_coeffs", "den_coeffs", "num", "den")

    def __init__(self, t, k, basis, num_coeffs, den_coeffs, num, den):
        self.t = t
        self.k = k
        self.basis = basis
        self.num_coeffs = num_coeffs
        self.den_coeffs = den_coeffs
        self.num = num
        self.den = den

    def __repr__(self):
        return f"Interpolation(k={self.k}, t={self.t})"


def _monomial_basis(k: int):
    """Exponent pairs (i, j) with x^i y^j having pole order 2i + 3j <= k at
    infinity, j <= 1; pole orders 0, 2, 3, ..., k each appear once."""
    basis = [(0, 0)]
    for m in range(2, k + 1):
        if m % 2 == 0:
            basis.append((m // 2, 0))
        else:
            basis.append(((m - 3) // 2, 1))
    return basis


def _monomial_values(ops, P, basis):
    """The value x^i y^j at the point P = (x, y) of each (i, j) in basis,
    through the field adapter ops (j <= 1, as _monomial_basis gives)."""
    x, y = P
    x_pows = [ops.one()]
    for _ in range(max(i for i, _ in basis)):
        x_pows.append(ops.mul(x_pows[-1], x))
    return [ops.mul(x_pows[i], y) if j else x_pows[i] for i, j in basis]


def interpolate(ext: EllipticResidueRep, z: Poly, k: int):
    """Find z = num/den with both sides in L(k*(t)) for some kernel point t,
    or None if no kernel point admits one at this k."""
    ring = ext.ring
    z = ring.el(z)
    basis = _monomial_basis(k)
    B = ext.point()
    for t in ext.subgroup:
        Q = translate_point(ext, B, ec_neg(ext.curve.ops, t)) if t is not None else B
        vals = _monomial_values(ring, Q, basis)
        zvals = [ring.mul(z, v) for v in vals]
        for vec in fraction_kernel(vals, zvals, ext.rep.d, ext.rep.p):
            num_coeffs, den_coeffs = vec[:len(basis)], vec[len(basis):]
            den = _combine(den_coeffs, vals)
            if den.is_zero():
                continue
            num = _combine(num_coeffs, vals)
            return Interpolation(t, k, basis, num_coeffs, den_coeffs, num, den)
    return None


def function_degree(ext: EllipticResidueRep, z: Poly) -> int:
    """Smallest k admitting an interpolation; 0 for constants, 2 for x."""
    ring = ext.ring
    z = ring.el(z)
    if z.is_zero():
        raise ValueError("degree of the zero element is undefined")
    for k in range(0, ext.rep.d + 1):
        if interpolate(ext, z, k) is not None:
            return k
    raise InconsistentFrobenius("interpolation failed at k = d, which cannot happen")


# ---------------------------------------------------------------------------
# The endomorphism ring Z[phi], phi^2 - t*phi + p = 0.


class EndomorphismElement:
    """m + n*phi with phi the Frobenius endomorphism of a fixed curve."""

    __slots__ = ("m", "n", "t", "p")

    def __init__(self, m: int, n: int, t: int, p: int):
        self.m = m
        self.n = n
        self.t = t
        self.p = p

    def _like(self, m, n):
        return EndomorphismElement(m, n, self.t, self.p)

    def __repr__(self):
        return f"({self.m} + {self.n}*phi)"

    def __eq__(self, other):
        return (
            isinstance(other, EndomorphismElement)
            and (self.m, self.n, self.t, self.p) == (other.m, other.n, other.t, other.p)
        )

    def __hash__(self):
        return hash((self.m, self.n, self.t, self.p))

    def __add__(self, other):
        return self._like(self.m + other.m, self.n + other.n)

    def __sub__(self, other):
        return self._like(self.m - other.m, self.n - other.n)

    def __neg__(self):
        return self._like(-self.m, -self.n)

    def __mul__(self, other):
        if isinstance(other, int):
            return self._like(self.m * other, self.n * other)
        # (m + n phi)(m' + n' phi) with phi^2 = t phi - p
        m = self.m * other.m - self.n * other.n * self.p
        n = self.m * other.n + self.n * other.m + self.n * other.n * self.t
        return self._like(m, n)

    __rmul__ = __mul__

    def conj(self):
        return self._like(self.m + self.n * self.t, -self.n)

    def norm(self) -> int:
        return self.m * self.m + self.m * self.n * self.t + self.n * self.n * self.p

    def trace(self) -> int:
        return 2 * self.m + self.n * self.t

    def is_zero(self) -> bool:
        return self.m == 0 and self.n == 0

    def exact_divide(self, other):
        """self / other in Z[phi] when the quotient is integral, else None."""
        nrm = other.norm()
        if nrm == 0:
            return None
        prod = self * other.conj()
        if prod.m % nrm or prod.n % nrm:
            return None
        return self._like(prod.m // nrm, prod.n // nrm)

    def apply(self, ops, a4, P, frob):
        """[m]P (+) [n]phi(P), with frob the point-level Frobenius."""
        part = ec_scalar(ops, a4, self.m, P)
        if self.n:
            part = ec_add(ops, a4, part, ec_scalar(ops, a4, self.n, frob(P)))
        return part
