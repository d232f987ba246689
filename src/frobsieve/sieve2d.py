"""Relation collection on product surfaces.

Two sieves share the same skeleton: pick a surface S with two projections,
a curve (or pair of curves) on S cut out so that its residue field is the
target field L, then run through low-degree functions on S and keep those
whose restrictions to the two sides both factor into small places.  Each
kept function equates two factorizations in L^*.

The first instance is the rational one: S = P^1 x P^1 glued along the
correspondence y = f(x), x = g(y), with relations between univariate
factorizations on either side.  The second runs on E x E for an elliptic
curve with endomorphism ring bookkeeping: ample classes are checked with
the intersection form, function spaces are built from Riemann-Roch bases
and cut down by evaluation along the graph of an endomorphism, and both
restrictions live on copies of E.  There places group into classes under
translation by the subgroup T of Frobenius, each labelled by the x-place
of E/T below it, read off the Vélu quotient by T.

Both sieves restrict a candidate as one F_p combination of basis
products cached per setup (`_combine`), and check each relation on the
restrictions they already hold.  The JL check, exact products and one
nonzero value in L, is also the core of `JLRelation.verify`, which first
recomputes the restrictions independently by Horner substitution.  The
EE sieve also reads its norm denominators from one cached factorization
and its values in L from cached basis values.  Every section's norm on a
side carries the same fixed part G, the gcd of the norms of the linear
system (Joux & Lercier 2006 test only the part of a norm that varies), so
G is factored once per restriction and a trial divides it out and tests
and splits only the quotient.  A section and its scalar multiples have
one divisor, so `ee_sieve` evaluates each projective class of sections
once per call and rescales that relation for a later multiple, checking
the multiple's values at the intersection point.  `verify_ee_relation`
recomputes all of it with gcds and Horner substitution.
"""

import random
from itertools import chain, combinations
from math import isqrt
from operator import mul

from .errors import (
    InsufficientPoints,
    NonInvertible,
    SearchFailed,
    SieveTimeout,
)
from .ffcore import (
    Poly,
    PrimeField,
    QuotientField,
    _combine,
    coefficient_rows,
    double_and_add,
    factor,
    find_irreducible,
    horner,
    is_irreducible,
    kernel_basis,
    poly_gcd,
    poly_sort_key,
    smooth_pieces,
)
from .elliptic import (
    Curve,
    EndomorphismElement,
    _monomial_basis,
    _monomial_values,
    build_elliptic_residue,
    ec_add,
    ec_neg,
    ec_scalar,
    ec_sub,
    velu_quotient,
)
from .indexcalc import _mix, sieve_trials

# ---------------------------------------------------------------------------
# The rational surface: bidegrees and the correspondence setup.


class NSClassP1P1:
    """A curve class on P^1 x P^1 is just its bidegree."""

    __slots__ = ("d_x", "d_y")

    def __init__(self, d_x: int, d_y: int):
        if d_x < 0 or d_y < 0:
            raise ValueError("bidegrees are nonnegative")
        self.d_x = d_x
        self.d_y = d_y

    def __repr__(self):
        return f"NSClassP1P1({self.d_x}, {self.d_y})"

    def __eq__(self, other):
        return (
            isinstance(other, NSClassP1P1)
            and (self.d_x, self.d_y) == (other.d_x, other.d_y)
        )


def intersection_form_p1p1(D: NSClassP1P1, E: NSClassP1P1) -> int:
    return E.d_x * D.d_y + D.d_x * E.d_y


class BivariatePoly:
    """Sparse polynomial in x, y over F_p, the sieving element lambda."""

    __slots__ = ("p", "coeffs")

    def __init__(self, p: int, coeffs):
        self.p = p
        self.coeffs = {
            (i, j): c % p for (i, j), c in dict(coeffs).items() if c % p
        }

    def __repr__(self):
        return f"BivariatePoly({self.coeffs})"

    def __eq__(self, other):
        return (
            isinstance(other, BivariatePoly)
            and (self.p, self.coeffs) == (other.p, other.coeffs)
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    def degrees(self):
        if not self.coeffs:
            return (0, 0)
        return (
            max(i for i, _ in self.coeffs),
            max(j for _, j in self.coeffs),
        )

    def substitute_curve_x(self, f: Poly) -> Poly:
        """lambda(X, f(X)) as a univariate polynomial."""
        return self._substitute(f, 1)

    def substitute_curve_y(self, g: Poly) -> Poly:
        """lambda(g(Y), Y) as a univariate polynomial."""
        return self._substitute(g, 0)

    def _substitute(self, q: Poly, outer: int) -> Poly:
        """lambda with its variable number `outer` (0 for x, 1 for y)
        replaced by q in the other one, by Horner's rule in that variable."""
        layers = [{} for _ in range(max((m[outer] for m in self.coeffs), default=0) + 1)]
        for m, c in self.coeffs.items():
            layers[m[outer]][m[1 - outer]] = c
        acc = Poly([], self.p)
        for layer in reversed(layers):
            coeffs = [layer.get(i, 0) for i in range(max(layer, default=0) + 1)]
            acc = acc * q + Poly(coeffs, self.p)
        return acc

    def to_json(self):
        return sorted([i, j, c] for (i, j), c in self.coeffs.items())

    @classmethod
    def from_json(cls, p, data):
        return cls(p, {(i, j): c for i, j, c in data})


class JLSetup:
    """The glued correspondence: y = f(x) and x = g(y) meet in d_f*d_g
    points; h cuts out a Galois orbit of them of size d, and the residue
    field of that orbit is the target L = F_p[X]/h.

    The sieve's restrictions and values in L come from two caches, filled
    on first use: the basis products (X^i f(X)^j, g(Y)^i Y^j) of each
    monomial x^i y^j, and the powers y^k mod h of y_image."""

    def __init__(self, p: int, f: Poly, g: Poly, h: Poly):
        self.p = p
        self.f = f
        self.g = g
        self.h = h.monic()
        if not is_irreducible(self.h):
            raise ValueError("h must be irreducible")
        rem = (g.compose(f) - Poly([0, 1], p)) % self.h
        if not rem.is_zero():
            raise ValueError("h does not divide g(f(X)) - X")
        self.ring = QuotientField(self.h)
        self.y_image = f % self.h
        self._products = {}
        self._y_powers = (None, [])

    @property
    def d(self) -> int:
        return self.h.degree

    def _restrict(self, lam: BivariatePoly, side: str) -> Poly:
        """lambda(X, f(X)) on side "a", lambda(g(Y), Y) on side "b": one
        F_p combination of the basis products of lambda's monomials."""
        k = 0 if side == "a" else 1
        products = self._products
        basis = []
        for m in lam.coeffs:
            pair = products.get(m)
            if pair is None:
                pair = products[m] = self._basis_product(*m)
            basis.append(pair[k])
        return _combine(lam.coeffs.values(), basis)

    def _basis_product(self, i: int, j: int):
        """(X^i f(X)^j, g(Y)^i Y^j), the two restrictions of x^i y^j."""
        f_j = g_i = Poly([1], self.p)
        for _ in range(j):
            f_j = f_j * self.f
        for _ in range(i):
            g_i = g_i * self.g
        return (
            Poly((0,) * i + f_j.coeffs, self.p),
            Poly((0,) * j + g_i.coeffs, self.p),
        )

    def _value_at_y(self, poly: Poly) -> Poly:
        """poly(y) in L, as a combination of the cached powers y^k mod h;
        the cache is rebuilt if y_image has been replaced."""
        base, powers = self._y_powers
        if base is not self.y_image:
            powers = [self.ring.one()]
            self._y_powers = (self.y_image, powers)
        while len(powers) < len(poly.coeffs):
            powers.append(self.ring.mul(powers[-1], self.y_image))
        return _combine(poly.coeffs, powers)

    def __repr__(self):
        return (
            f"JLSetup(p={self.p}, d_f={self.f.degree}, "
            f"d_g={self.g.degree}, d={self.d})"
        )

    def to_json(self):
        return {
            "p": self.p,
            "f": self.f.to_list(),
            "g": self.g.to_list(),
            "h": self.h.to_list(),
        }

    @classmethod
    def from_json(cls, data):
        p = int(data["p"])
        field = PrimeField(p)
        return cls(
            p,
            field.poly([int(c) for c in data["f"]]),
            field.poly([int(c) for c in data["g"]]),
            field.poly([int(c) for c in data["h"]]),
        )


def jl_setup(
    p: int, d_f: int, d_g: int, d: int, seed: int = 0, max_trials: int = 500
) -> JLSetup:
    """Sample f, g until g(f(X)) - X has a simple irreducible factor of
    degree d; that factor is the target field modulus."""
    if not 1 <= d <= d_f * d_g:
        raise ValueError("need 1 <= d <= d_f*d_g intersection points")
    field = PrimeField(p)
    x = field.poly([0, 1])
    for trial in range(max_trials):
        rng = random.Random(_mix(seed, trial))
        f = field.random_poly(rng, d_f)
        g = field.random_poly(rng, d_g)
        if f.degree != d_f or g.degree != d_g:
            continue
        r = g.compose(f) - x
        if r.degree != d_f * d_g:
            continue
        _, facs = factor(r)
        for q, mult in facs:
            if q.degree == d and mult == 1:
                return JLSetup(p, f, g, q)
    raise SieveTimeout(f"no degree-{d} simple factor in {max_trials} samples")


class JLRelation:
    """lambda restricted to both rulings, factored, with the F_p^* ratio.

    side_a is the factorization of lambda(X, f(X)), side_b that of
    lambda(g(Y), Y); both are (unit, [(monic irreducible, multiplicity)]).
    Modulo h the two products agree up to the unit ratio, so the relation
    lives in F_q^*/F_p^* exactly as the sieve wants it.
    """

    __slots__ = ("lam", "side_a", "side_b")

    def __init__(self, lam: BivariatePoly, side_a, side_b):
        self.lam = lam
        self.side_a = side_a
        self.side_b = side_b

    def __repr__(self):
        return (
            f"JLRelation(|a|={len(self.side_a[1])}, |b|={len(self.side_b[1])})"
        )

    def ratio(self, setup: JLSetup) -> int:
        """Constant in F_p^* relating the two monic products mod h:
        prod_a / prod_b, computed in full in L.  For a relation that passes
        `verify` it equals unit_b / unit_a mod p (see `_jl_consistent`)."""
        ring = setup.ring
        prod_a = ring.one()
        for q, e in self.side_a[1]:
            prod_a = ring.mul(prod_a, ring.pow(ring.el(q), e))
        prod_b = ring.one()
        yv = setup.y_image
        for q, e in self.side_b[1]:
            val = horner(ring, q, yv)
            prod_b = ring.mul(prod_b, ring.pow(val, e))
        quot = ring.mul(prod_a, ring.inv(prod_b))
        if quot.degree > 0:
            raise ValueError("sides disagree beyond a constant")
        c = quot.constant_value()
        if c == 0:
            raise ValueError("degenerate relation")
        return c

    def verify(self, setup: JLSetup) -> bool:
        """Independent re-derivation: the restrictions are recomputed by
        Horner substitution (not from the sieve's cached basis products),
        then `_jl_consistent` checks the factorizations and the agreement
        in L, then `ratio` is computed in full."""
        a_poly = self.lam.substitute_curve_x(setup.f)
        b_poly = self.lam.substitute_curve_y(setup.g)
        va = _jl_consistent(setup, self, a_poly, b_poly)
        if va is None or va.is_zero():
            return False
        try:
            self.ratio(setup)
        except (ValueError, NonInvertible):
            return False
        return True

    def to_json(self):
        def side(s):
            unit, facs = s
            return {
                "unit": unit,
                "factors": [[q.to_list(), e] for q, e in facs],
            }

        return {
            "lam": self.lam.to_json(),
            "side_a": side(self.side_a),
            "side_b": side(self.side_b),
        }


def _expand(unit: int, facs, p: int) -> Poly:
    """unit * prod q^e over F_p."""
    prod = Poly([unit], p)
    for q, e in facs:
        for _ in range(e):
            prod = prod * q
    return prod


def _jl_consistent(setup: JLSetup, rel: JLRelation, a_poly: Poly, b_poly: Poly):
    """The common value in L of the restrictions a_poly = lambda(X, f(X))
    and b_poly = lambda(g(Y), Y) if rel is consistent with them, else
    None: each side's factors multiply back to its restriction exactly in
    F_p[X], and va = a_poly mod h equals vb = b_poly(y) in L.

    A nonzero value implies that `ratio` succeeds.  With both products
    exact, va = unit_a * prod_a and vb = unit_b * prod_b in L, where prod_a
    and prod_b are the monic products `ratio` computes.  So va = vb != 0
    makes prod_b a unit and prod_a / prod_b = unit_b / unit_a, a nonzero
    constant of F_p: `ratio` can neither meet a zero divisor nor find the
    sides disagreeing, and returns unit_b / unit_a mod p.  A zero value
    means lambda vanishes on the orbit, and the relation says nothing in
    L^*."""
    p = setup.p
    for (unit, facs), target in ((rel.side_a, a_poly), (rel.side_b, b_poly)):
        if _expand(unit, facs, p) != target:
            return None
    va = setup.ring.el(a_poly)
    return va if va == setup._value_at_y(b_poly) else None


def jl_relation(setup: JLSetup, lam: BivariatePoly, kappa: int):
    """The relation carried by one lambda, or None if either side fails
    the smoothness bound or lambda vanishes at the intersection point
    (va = vb = 0, a candidate with no relation in L^*).

    Both restrictions are F_p combinations of the setup's cached basis
    products, and side b is restricted only once side a is smooth.  A
    relation is checked by `_jl_consistent` on the restrictions already
    at hand, exact products and agreement in L, which for a nonzero value
    also guarantees that its `ratio` exists; a failure raises ValueError."""
    if lam.is_zero():
        return None
    a_poly = setup._restrict(lam, "a")
    pieces_a = None if a_poly.is_zero() else smooth_pieces(a_poly, kappa)
    if pieces_a is None:
        return None
    b_poly = setup._restrict(lam, "b")
    pieces_b = None if b_poly.is_zero() else smooth_pieces(b_poly, kappa)
    if pieces_b is None:
        return None
    rel = JLRelation(
        lam, factor(a_poly, pieces=pieces_a), factor(b_poly, pieces=pieces_b)
    )
    va = _jl_consistent(setup, rel, a_poly, b_poly)
    if va is None:
        raise ValueError("relation failed verification; setup inconsistent")
    if va.is_zero():
        return None  # lambda vanishes on the orbit
    return rel


def jl_sieve(
    setup: JLSetup,
    u_x: int,
    u_y: int,
    kappa: int,
    budget: int,
    seed: int = 0,
    target: int = None,
):
    """Run through random lambda of bidegree <= (u_x, u_y) and keep the
    smooth ones.  Trials run through indexcalc.sieve_trials, keyed by the
    coefficients of lambda."""
    if u_x < 0 or u_y < 0 or (u_x == 0 and u_y == 0):
        raise ValueError("bidegree must be nonzero")

    def draw(rng):
        coeffs = {
            (i, j): rng.randrange(setup.p)
            for i in range(u_x + 1)
            for j in range(u_y + 1)
        }
        lam = BivariatePoly(setup.p, coeffs)
        if lam.is_zero() or lam.degrees() == (0, 0):
            return None
        return tuple(sorted(lam.coeffs.items())), lam

    return sieve_trials(
        seed, budget, target, draw, lambda lam: jl_relation(setup, lam, kappa)
    )


# ---------------------------------------------------------------------------
# Rational functions and the function field of an elliptic curve.


class RationalFunction:
    """num/den over F_p[x], kept reduced with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly([1], num.p)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            den = Poly([1], num.p)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num = (num // g)
                den = (den // g)
            lc = den.lc()
            if lc != 1:
                inv = pow(lc, -1, num.p)
                num = num * inv
                den = den * inv
        self.num = num
        self.den = den

    def __repr__(self):
        return f"({self.num!r})/({self.den!r})"

    def __eq__(self, other):
        return (
            isinstance(other, RationalFunction)
            and (self.num, self.den) == (other.num, other.den)
        )

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        return RationalFunction(
            self.num * other.den + other.num * self.den, self.den * other.den
        )

    def __sub__(self, other):
        return RationalFunction(
            self.num * other.den - other.num * self.den, self.den * other.den
        )

    def __neg__(self):
        return RationalFunction(-self.num, self.den)

    def __mul__(self, other):
        return RationalFunction(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def evaluate(self, ring, xv):
        num = horner(ring, self.num, xv)
        den = horner(ring, self.den, xv)
        return ring.mul(num, ring.inv(den))


def _rf_const(p: int, c: int) -> RationalFunction:
    return RationalFunction(Poly([c], p))


class FuncFieldOps:
    """Field adapter for F_p(x)[y] / (y^2 - f): elements are (u, v) pairs
    of rational functions standing for u + y*v.  Plugging the generic
    point (x, y) through the curve group law happens entirely here."""

    def __init__(self, p: int, f: Poly):
        self.p = p
        self.f = f
        self._f_rf = RationalFunction(f)

    def embed(self, c: int):
        return (_rf_const(self.p, c), _rf_const(self.p, 0))

    def zero(self):
        return self.embed(0)

    def one(self):
        return self.embed(1)

    def x(self):
        return (RationalFunction(Poly([0, 1], self.p)), _rf_const(self.p, 0))

    def y(self):
        return (_rf_const(self.p, 0), _rf_const(self.p, 1))

    def add(self, a, b):
        return (a[0] + b[0], a[1] + b[1])

    def sub(self, a, b):
        return (a[0] - b[0], a[1] - b[1])

    def neg(self, a):
        return (-a[0], -a[1])

    def mul(self, a, b):
        # (u1 + y v1)(u2 + y v2) with y^2 = f
        u = a[0] * b[0] + self._f_rf * a[1] * b[1]
        v = a[0] * b[1] + a[1] * b[0]
        return (u, v)

    def norm(self, a) -> RationalFunction:
        return a[0] * a[0] - self._f_rf * a[1] * a[1]

    def inv(self, a):
        n = self.norm(a)
        if n.is_zero():
            raise NonInvertible("zero divisor in the function field layer")
        return (a[0] / n, -(a[1] / n))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        return double_and_add(self.mul, self.one(), a, e)

    def eq(self, a, b) -> bool:
        return a[0] == b[0] and a[1] == b[1]

    def evaluate(self, ring, a, xv, yv):
        """Value of u + y*v at a point with coordinates in a ring."""
        out = a[0].evaluate(ring, xv)
        if not a[1].is_zero():
            out = ring.add(out, ring.mul(yv, a[1].evaluate(ring, xv)))
        return out


# ---------------------------------------------------------------------------
# Néron-Severi classes on E x E and the intersection form.


class NSClassEE:
    """(d1, d2, xi): fiber multiplicities plus an endomorphism component."""

    __slots__ = ("d1", "d2", "xi")

    def __init__(self, d1: int, d2: int, xi: EndomorphismElement):
        self.d1 = d1
        self.d2 = d2
        self.xi = xi

    def __repr__(self):
        return f"NSClassEE({self.d1}, {self.d2}, {self.xi!r})"


def intersection_degrees_ee(c: NSClassEE, alpha, beta):
    """Intersection numbers of the class with the two parametrized curves."""
    da = c.d1 + c.d2 * alpha.norm() - (c.xi * alpha.conj()).trace()
    db = c.d1 * beta.norm() + c.d2 - (c.xi * beta.conj()).trace()
    return da, db


def effectivity_check(c: NSClassEE) -> bool:
    """Whether the class admits the sections the sieve needs."""
    if c.d1 < 1 or c.d2 < 1:
        raise ValueError("need d1, d2 >= 1")
    return c.d1 * c.d2 >= c.xi.norm() + 1


def expected_dimension(c: NSClassEE) -> int:
    n = c.xi.norm()
    full = (c.d1 + n) * (c.d2 + 1)
    conditions = c.d1 + n + (c.d2 + 1) * n
    return full - conditions


# ---------------------------------------------------------------------------
# Linear systems cut out by vanishing along the graph of an endomorphism.


class SurfaceFunction:
    """Element of the product space L(k1*O) x L(k2*O) on E x E, stored as
    coefficients over the monomial-pair basis."""

    __slots__ = ("basis1", "basis2", "coeffs")

    def __init__(self, basis1, basis2, coeffs):
        self.basis1 = basis1
        self.basis2 = basis2
        self.coeffs = list(coeffs)

    def evaluate(self, ops, P, Q):
        acc = ops.zero()
        for c, v in zip(self.coeffs, _basis_products(ops, self.basis1, self.basis2, P, Q)):
            if c:
                acc = ops.add(acc, ops.mul(ops.embed(c), v))
        return acc

    def is_zero(self) -> bool:
        return not any(self.coeffs)


def _basis_products(ops, basis1, basis2, P, Q):
    """The value at (P, Q) of each product b1 * b2 over basis1 x basis2,
    b1 major, each side's monomial values computed once."""
    vals2 = _monomial_values(ops, Q, basis2)
    return [ops.mul(b1, b2) for b1 in _monomial_values(ops, P, basis1) for b2 in vals2]


class LinearSystemEE:
    """Kernel basis of the graph-vanishing conditions, with the evaluation
    data kept around for holdout checks."""

    def __init__(self, cls, basis1, basis2, kernel, holdout):
        self.cls = cls
        self.basis1 = basis1
        self.basis2 = basis2
        self.kernel = kernel
        self.holdout = holdout  # (field adapter, P, Q) triples, unused in solve

    def __repr__(self):
        return (
            f"LinearSystemEE(dim={len(self.kernel)}, "
            f"space={len(self.basis1)}x{len(self.basis2)})"
        )

    def function(self, vec) -> SurfaceFunction:
        return SurfaceFunction(self.basis1, self.basis2, vec)


def _extension_points(curve: Curve, e: int):
    """Affine points of E over F_{p^e}, e >= 2, in canonical order, one per
    Frobenius orbit, skipping the rational points."""
    p = curve.p
    fq = QuotientField(find_irreducible(p, e))
    squares = {}
    for yv in fq.elements():
        squares.setdefault(fq.mul(yv, yv).coeffs, []).append(yv)
    for xv in fq.elements():
        rhs = fq.add(
            fq.mul(fq.mul(xv, xv), xv),
            fq.add(fq.mul(fq.embed(curve.a4), xv), fq.embed(curve.a6)),
        )
        for yv in squares.get(rhs.coeffs, ()):
            if xv.degree <= 0 and yv.degree <= 0:
                continue  # rational point, already walked at degree 1
            conj = (fq.pow(xv, p), fq.pow(yv, p))
            key = (xv.coeffs, yv.coeffs)
            ckey = (conj[0].coeffs, conj[1].coeffs)
            if ckey < key:
                continue  # keep one representative per conjugate pair
            yield fq, (xv, yv)


# Graph points come from F_p and F_{p^2}; a linear system keeps this many
# more of them past its rows to check that its sections vanish there.
GRAPH_MAX_DEGREE = 2
HOLDOUT_POINTS = 20


def _graph_points(curve: Curve, xi: EndomorphismElement):
    """Deterministic stream of (ops, P, -xi(P), degree) along the graph.

    Rational points come first, walked as k*G0 from a fixed generator;
    when the base field cannot furnish enough conditions the stream
    continues with points over small extensions, one representative per
    Frobenius orbit.  The stream is lazy: a point, and its image under
    xi, is built when the consumer asks for it.  So the extension points
    are enumerated only once the rational points are used up, and
    `linear_system_ee` builds its row and holdout points and the one point
    that ends its loop, nothing more."""
    p = curve.p
    levels = []
    rational = curve.points()
    if rational:
        g0 = rational[0]
        walk = []
        P = g0
        while P is not None:
            walk.append(P)
            P = ec_add(curve.ops, curve.a4, P, g0)
        levels.append((1, [(curve.ops, P) for P in walk]))
    for e in range(2, GRAPH_MAX_DEGREE + 1):
        levels.append((e, _extension_points(curve, e)))
    for e, pts in levels:
        for ops, P in pts:
            frob = lambda R: (ops.pow(R[0], p), ops.pow(R[1], p))
            Q = ec_neg(ops, xi.apply(ops, curve.a4, P, frob))
            if Q is None:
                continue  # kernel of xi; second factor has a pole here
            yield ops, P, Q, e


def linear_system_ee(setup, c: NSClassEE) -> LinearSystemEE:
    """Sections of the class c vanishing on the graph of -xi.

    Conditions are imposed at graph points over F_p and F_{p^2}; a point
    of degree e contributes e rows.  Once the row count passes the
    intersection bound, vanishing at the sampled points forces vanishing
    along the whole graph, which is what makes the kernel a genuine
    linear system and not an artifact of the sample.
    """
    if not effectivity_check(c):
        raise ValueError("class fails the effectivity inequality")
    curve = setup.curve
    n = c.xi.norm()
    if n == 0:
        raise InsufficientPoints(
            "xi = 0 degenerates the graph; translate the class instead"
        )
    k1 = c.d1 + n
    k2 = c.d2 + 1
    basis1 = _monomial_basis(k1)
    basis2 = _monomial_basis(k2)
    ncols = len(basis1) * len(basis2)
    needed = k1 + k2 * n + 1

    stream = _graph_points(curve, c.xi)
    rows = []
    holdout = []
    for ops, P, Q, e in stream:
        if len(rows) >= needed + 4:
            if len(holdout) < HOLDOUT_POINTS:
                holdout.append((ops, P, Q))
                continue
            break
        vals = _basis_products(ops, basis1, basis2, P, Q)
        # a point over F_p gives its values, one over F_{p^e} their e coefficient rows
        rows.extend([vals] if e == 1 else coefficient_rows(vals, e))
    if len(rows) < needed:
        raise InsufficientPoints(
            f"only {len(rows)} usable graph conditions; need {needed}"
        )
    if len(holdout) < HOLDOUT_POINTS:
        raise InsufficientPoints(
            f"only {len(holdout)} graph points left for holdout checks"
        )
    kernel = kernel_basis(rows, ncols, curve.p)
    return LinearSystemEE(c, basis1, basis2, kernel, holdout)


# ---------------------------------------------------------------------------
# The elliptic-square setup: alpha, beta, and the intersection point.


class EESetup:
    """Everything the E x E sieve needs: the residue-field construction,
    the endomorphism pair with 1 - beta*alpha = phi - 1, the offset
    points, and the distinguished intersection point over L."""

    def __init__(self, ext, alpha, beta, a, b, m0, p_int, q_int):
        self.ext = ext
        self.curve = ext.curve
        self.alpha = alpha
        self.beta = beta
        self.a = a
        self.b = b
        self.m0 = m0
        self.p_int = p_int  # intersection point on side A, coords in L
        self.q_int = q_int  # its partner on side B

    def __repr__(self):
        return (
            f"EESetup(p={self.curve.p}, d={self.ext.rep.d}, "
            f"alpha={self.alpha!r}, beta={self.beta!r})"
        )

    @property
    def ring(self):
        return self.ext.ring

    def to_json(self):
        return {
            "p": self.curve.p,
            "d": self.ext.rep.d,
            "curve": self.curve.to_json(),
            "alpha": [self.alpha.m, self.alpha.n],
            "beta": [self.beta.m, self.beta.n],
            "a": list(self.a),
            "b": list(self.b) if self.b is not None else None,
            "m0": list(self.m0),
        }


# alpha = m + n*phi is sought in the box |m|, |n| <= ENDOMORPHISM_BOUND
ENDOMORPHISM_BOUND = 50


def _endomorphism_pair(t: int, p: int, bound: int = ENDOMORPHISM_BOUND):
    """alpha, beta in Z[phi] with beta*alpha = 2 - phi, minimizing the
    larger norm, with alpha = m + n*phi in the box |m|, |n| <= bound.
    alpha = 1 always works, so the search cannot fail unless the bound is
    made silly.

    Every alpha that divides 2 - phi lies in the ellipse
    N(alpha) <= N(2 - phi) = p + 4 - 2t, since N(alpha) N(beta) = N(2 - phi)
    and N(beta) >= 1.  The norm form is positive definite,
    4 N(m + n phi) = (2m + nt)^2 + n^2 (4p - t^2) with t^2 < 4p, so the walk
    takes the rows n with n^2 (4p - t^2) <= 4 N(2 - phi), and in each the m
    with |2m + nt| <= isqrt(4 N(2 - phi) - n^2 (4p - t^2)), clipped to the
    box.  It meets every alpha that the whole box could offer and ranks
    them by the same score, which no two alphas share, so the winner does
    not depend on the order of the walk."""
    target = EndomorphismElement(2, -1, t, p)
    top = 4 * target.norm()
    disc = 4 * p - t * t
    best = None
    rows = min(bound, isqrt(top // disc))
    for nn in range(-rows, rows + 1):
        s = isqrt(top - nn * nn * disc)
        for m in range(max(-bound, -((nn * t + s) // 2)), min(bound, (s - nn * t) // 2) + 1):
            alpha = EndomorphismElement(m, nn, t, p)
            beta = target.exact_divide(alpha)  # None for alpha = 0
            if beta is None:
                continue
            score = (
                max(alpha.norm(), beta.norm()),
                abs(m) + abs(nn),
                -m,
                -nn,
            )
            if best is None or score < best[0]:
                best = (score, alpha, beta)
    if best is None:
        raise SearchFailed(f"no factorization of 2 - phi within |m|,|n| <= {bound}")
    return best[1], best[2]


def ee_setup(p: int, d: int) -> EESetup:
    """Build the E x E sieve context over F_{p^d}.

    The residue-field construction fixes the curve and the order-d
    translation m0 = t*.  The offsets are then forced: a is the first
    rational point, b = m0 + beta(a), which puts the distinguished fiber
    point on the intersection of the two parametrized curves.
    """
    ext = build_elliptic_residue(p, d)
    curve = ext.curve
    alpha, beta = _endomorphism_pair(curve.trace(), p)

    one = EndomorphismElement(1, 0, curve.trace(), p)
    phi = EndomorphismElement(0, 1, curve.trace(), p)
    if one - beta * alpha != phi - one:
        raise SearchFailed("endomorphism pair does not satisfy the defining relation")

    ops = curve.ops
    a = curve.points()[0]
    beta_a = ec_scalar(ops, curve.a4, beta.m + beta.n, a)  # phi fixes rational points
    b = ec_add(ops, curve.a4, ext.t_star, beta_a)
    m0 = ext.t_star

    ring = ext.ring
    p_int = ext.point()
    frob_l = lambda R: (ring.pow(R[0], p), ring.pow(R[1], p))
    a_l = (ring.embed(a[0]), ring.embed(a[1]))
    q_int = ec_sub(ring, curve.a4, alpha.apply(ring, curve.a4, p_int, frob_l), a_l)
    if q_int is None:
        raise SearchFailed("intersection point degenerates; alpha(B) = a")

    # the defining identity: beta(Q) + b recovers P on the fiber
    b_l = None if b is None else (ring.embed(b[0]), ring.embed(b[1]))
    back = ec_add(ring, curve.a4, beta.apply(ring, curve.a4, q_int, frob_l), b_l)
    if back != p_int:
        raise SearchFailed("intersection identity failed; check the sign of m0")
    return EESetup(ext, alpha, beta, a, b, m0, p_int, q_int)


# ---------------------------------------------------------------------------
# Places on a copy of E, grouped by the x-place of E/T below them.


class PlaceClasses:
    """x-places of degree <= kappa, merged when they lie over one x-place
    of E/T, for T the subgroup generated by t.  The classes are the factor
    base columns of the E x E sieve.

    Translation by T is what links the places of one class: the images of
    P and P' in E/T share their x exactly when P' = +/-P + kt, the sign
    being the two sheets over an x-place.  The label of q is the x-place
    below it: the minimal polynomial over F_p of
    X(alpha) = N_x(alpha)/h(alpha)^2 for a root alpha of q, from the Vélu
    quotient by T.  A kernel place (h(alpha) = 0) lies over the origin of
    E/T and gets the label 1.  Labels are cached on first use.
    """

    def __init__(self, curve: Curve, kappa: int, t):
        self.curve = curve
        self.kappa = kappa
        self.isogeny = velu_quotient(curve, t)
        self._canonical = {}

    def class_of(self, q: Poly) -> Poly:
        """The x-place of E/T below q, as a monic polynomial over F_p."""
        if q.degree > self.kappa:
            raise ValueError("place exceeds the smoothness bound")
        got = self._canonical.get(q.coeffs)
        if got is not None:
            return got
        ring = QuotientField(q)
        h = ring.el(self.isogeny.h)
        prod = [ring.one()]  # prod (X - c) over the conjugates c of X(alpha)
        if not ring.is_zero(h):
            beta = c = ring.div(ring.el(self.isogeny.N_x), ring.mul(h, h))
            while True:
                prod = [
                    ring.sub(hi, ring.mul(c, lo))
                    for hi, lo in zip([ring.zero()] + prod, prod + [ring.zero()])
                ]
                c = ring.pow(c, ring.p)
                if c == beta:
                    break
        if any(cc.degree > 0 for cc in prod):
            raise ValueError("image place did not descend to F_p")
        got = self._canonical[q.coeffs] = Poly([cc.constant_value() for cc in prod], ring.p)
        return got


def translate_place(curve: Curve, q: Poly, t) -> Poly:
    """The degree-2e polynomial whose roots are x(P +/- sheets + t) for P
    running over the points above the x-place q."""
    p = curve.p
    xt, yt = t
    if yt == 0:
        raise ValueError("translation point of order 2 not supported")
    e = q.degree
    ring = QuotientField(q.monic())
    z = ring.x()
    fz = ring.add(
        ring.mul(ring.mul(z, z), z),
        ring.add(ring.mul(ring.embed(curve.a4), z), ring.embed(curve.a6)),
    )
    diff = ring.sub(z, ring.embed(xt))
    if ring.is_zero(diff):
        raise ValueError("place contains the translation point itself")
    dinv2 = ring.pow(ring.inv(diff), 2)
    # x' = (f(z) + yt^2 - 2 yt y)/(z - xt)^2 - z - xt = A - B*y
    A = ring.sub(
        ring.sub(ring.mul(ring.add(fz, ring.embed(yt * yt % p)), dinv2), z),
        ring.embed(xt),
    )
    B = ring.mul(ring.embed(2 * yt % p), dinv2)
    # both sheets: (X - A)^2 - B^2 f(z), a quadratic over the place field
    c0 = ring.sub(ring.mul(A, A), ring.mul(ring.mul(B, B), fz))
    c1 = ring.neg(ring.add(A, A))
    quad = [c0, c1, ring.one()]
    # product over the Galois conjugates lands in F_p[X]
    prod = [ring.one()]
    cur = quad
    for _ in range(e):
        nxt = [ring.zero()] * (len(prod) + 2)
        for i, a_ in enumerate(prod):
            for j, b_ in enumerate(cur):
                nxt[i + j] = ring.add(nxt[i + j], ring.mul(a_, b_))
        prod = nxt
        cur = [ring.pow(cc, p) for cc in cur]
    coeffs = []
    for cc in prod:
        if cc.degree > 0:
            raise ValueError("translated place did not descend to F_p")
        coeffs.append(cc.constant_value())
    return Poly(coeffs, p).monic()


# ---------------------------------------------------------------------------
# Restriction of surface functions to the two parametrized curves.


class EERestriction:
    """Precomputed symbolic data for restricting sections to the curves
    A = {(P, alpha(P) - a)} and B = {(beta(Q) + b, Q)}.

    Each side keeps its basis products over one common denominator:
    common[side] = (D, U, V), with D the monic lcm of every product's
    denominators, and basis product i restricts to (U[i]/D, V[i]/D), that
    is (U[i] + y V[i]) / D.  A section's restriction is then two F_p
    combinations of fixed numerators.

    Three more things are cached per side for the sieve's trials:
    den_factors[side], the factorization of D as a sorted list of
    (monic irreducible r, multiplicity m), so that a norm's denominator, a
    divisor of D^2, is read off by exact divisions instead of a gcd and a
    factorization; fixed[side] = (G, F, caps), the part of the norm that
    every section shares (see `_fixed_part`), so that a trial tests and
    splits only raw / G; and values[side], the value
    W[i] = (U[i](x_P) + y_P V[i](x_P)) / D(x_P) in L of each basis product
    at the side's intersection point (x_P, y_P) (p_int on side a, q_int on
    side b), so that a section's value there is one F_p combination of the
    W[i].  `norm`, `element` and `value_at_intersection` recompute the
    same things without these caches, for `verify_ee_relation`.

    D(x_P) != 0 holds for every setup `ee_setup` returns, since a root
    would put a pole of the side's parametrization on the intersection
    point; a setup where it fails raises SearchFailed naming the side."""

    def __init__(self, setup: EESetup, lin: LinearSystemEE, kappa: int):
        self.setup = setup
        self.lin = lin
        self.kappa = kappa
        curve = setup.curve
        p = curve.p
        field = PrimeField(p)
        f_poly = field.poly([curve.a6, curve.a4, 0, 1])
        self.ffops = FuncFieldOps(p, f_poly)
        ff = self.ffops
        generic = (ff.x(), ff.y())
        frob = lambda R: (ff.pow(R[0], p), ff.pow(R[1], p))

        a_pt = (ff.embed(setup.a[0]), ff.embed(setup.a[1]))
        image_a = setup.alpha.apply(ff, curve.a4, generic, frob)
        self.curve_a = (generic, ec_sub(ff, curve.a4, image_a, a_pt))

        b_pt = None
        if setup.b is not None:
            b_pt = (ff.embed(setup.b[0]), ff.embed(setup.b[1]))
        image_b = setup.beta.apply(ff, curve.a4, generic, frob)
        self.curve_b = (ec_add(ff, curve.a4, image_b, b_pt), generic)

        self.common = {
            "a": self._common_form(*self.curve_a),
            "b": self._common_form(*self.curve_b),
        }
        self.den_factors = {
            side: factor(den)[1] for side, (den, _, _) in self.common.items()
        }
        self.fixed = {side: self._fixed_part(side) for side in self.common}
        self.values = {
            "a": self._basis_values("a", setup.p_int),
            "b": self._basis_values("b", setup.q_int),
        }
        self.classes = PlaceClasses(curve, kappa, setup.m0)

    def _common_form(self, P, Q):
        ff = self.ffops
        prods = _basis_products(ff, self.lin.basis1, self.lin.basis2, P, Q)
        den = Poly([1], ff.p)
        for part in chain.from_iterable(prods):
            den = den * (part.den // poly_gcd(den, part.den))
        scaled = lambda r: r.num * (den // r.den)
        return den, [scaled(u) for u, _ in prods], [scaled(v) for _, v in prods]

    def _fixed_part(self, side: str):
        """(G, F, caps) for one side.

        The sections are the combinations sum w_i k_i of the kernel vectors
        k_i, and their raw norm U^2 - f V^2 is a quadratic form in the
        weights w.  Its diagonal terms are the raw norms of the k_i, and
        since p is odd each cross term is half of raw(k_i + k_j) - raw(k_i)
        - raw(k_j).  So G, the monic gcd of the raw norms of every k_i and
        every pair sum k_i + k_j, divides the raw norm of every section, and
        is the gcd of them all.

        G is factored here once.  A factor q of G that does not divide D
        stays in every reduced norm's numerator with its multiplicity
        v_q(G).  A factor r^m of D has v0 = v_r(G) of its 2m copies in D^2
        cancelled by G: F holds r^(v0 - 2m) when v0 > 2m, and caps holds
        (r, max(2m - v0, 0)), the number of times r may still be stripped
        from raw / G.  F is sorted as `factor` sorts."""
        f = self.ffops.f
        rows = [self.restrict(k, side) for k in self.lin.kernel]
        rows += [(u1 + u2, v1 + v2) for (u1, v1), (u2, v2) in combinations(rows, 2)]
        g = Poly([], f.p)
        for u, v in rows:
            g = poly_gcd(g, u * u - f * (v * v))
        if g.is_zero():
            g = Poly([1], f.p)  # every section vanishes on this side's curve
        _, g_factors = factor(g)
        twice = {r: 2 * m for r, m in self.den_factors[side]}
        fixed = [(q, e - twice.get(q, 0)) for q, e in g_factors if e > twice.get(q, 0)]
        v0 = dict(g_factors)
        caps = [(r, max(t - v0.get(r, 0), 0)) for r, t in twice.items()]
        return g, fixed, caps

    def _basis_values(self, side: str, point):
        """[(U[i](x_P) + y_P V[i](x_P)) / D(x_P)] in L over the basis
        products of one side, at its intersection point (x_P, y_P), each
        polynomial evaluated as a combination of the powers of x_P."""
        ring = self.setup.ring
        xv, yv = point
        den, us, vs = self.common[side]
        powers = [ring.one()]
        for _ in range(max(len(q.coeffs) for q in chain([den], us, vs)) - 1):
            powers.append(ring.mul(powers[-1], xv))
        at = lambda q: _combine(q.coeffs, powers)
        den_val = at(den)
        if ring.is_zero(den_val):
            raise SearchFailed(
                f"side {side}: the intersection point is a root of the common denominator"
            )
        den_inv = ring.inv(den_val)
        return [
            ring.mul(ring.add(at(u), ring.mul(yv, at(v))), den_inv)
            for u, v in zip(us, vs)
        ]

    def restrict(self, coeffs, side: str):
        """Numerators (U, V) of one side's restriction, which is
        (U + y V) / D over that side's common denominator D."""
        _, us, vs = self.common[side]
        return _combine(coeffs, us), _combine(coeffs, vs)

    def norm(self, uv, side: str) -> RationalFunction:
        """Norm to F_p(x) of a restriction (U, V): (U^2 - f V^2) / D^2."""
        u, v = uv
        den = self.common[side][0]
        return RationalFunction(u * u - self.ffops.f * (v * v), den * den)

    def element(self, uv, side: str):
        """The reduced function-field element (U/D, V/D) of a restriction."""
        den = self.common[side][0]
        return RationalFunction(uv[0], den), RationalFunction(uv[1], den)

    def value_at_intersection(self, elem, side: str):
        ring = self.setup.ring
        if side == "a":
            xv, yv = self.setup.p_int
        else:
            xv, yv = self.setup.q_int
        return self.ffops.evaluate(ring, elem, xv, yv)


class EERelation:
    """One smooth section: both restrictions factored over place classes,
    joined by the evaluation witness at the intersection point."""

    __slots__ = ("coeffs", "side_a", "side_b", "witness")

    def __init__(self, coeffs, side_a, side_b, witness):
        self.coeffs = tuple(coeffs)
        self.side_a = side_a
        self.side_b = side_b
        self.witness = witness

    def __repr__(self):
        return (
            f"EERelation(|a|={len(self.side_a['classes'])}, "
            f"|b|={len(self.side_b['classes'])})"
        )

    def to_json(self):
        def side(s):
            return {
                "unit": s["unit"],
                "num_factors": [[q.to_list(), e] for q, e in s["num"]],
                "den_factors": [[q.to_list(), e] for q, e in s["den"]],
                "classes": sorted(
                    [rep.to_list(), e] for rep, e in s["classes"].items()
                ),
            }

        return {
            "coeffs": list(self.coeffs),
            "side_a": side(self.side_a),
            "side_b": side(self.side_b),
            "witness": self.witness.to_list(),
        }


def _stripped_norm(restr: EERestriction, uv, side: str):
    """(quotient, denominator factors) of the norm of a nonzero
    restriction (U, V): the reduced fraction of `EERestriction.norm`,
    without its gcd and with the side's fixed part (G, F, caps) taken out
    of its numerator.

    The norm is raw / D^2 with raw = U^2 - f V^2.  G divides raw when the
    coefficients are a section, so raw / G is one exact division; a
    nonzero remainder raises ValueError.  Each factor r of D is then
    stripped from raw / G by exact division, at most cap times, so it goes
    j = min(v_r(raw / G), cap) times, and r^(cap - j) is left in the
    denominator.  The reduced norm is quotient * prod F over the
    denominator, monic; the denominator factors come sorted as `factor`
    sorts them."""
    u, v = uv
    g, _, caps = restr.fixed[side]
    num, rem = divmod(u * u - restr.ffops.f * (v * v), g)
    if rem:
        raise ValueError(
            f"side {side}: the coefficients are not a section of the linear system"
        )
    den = []
    for r, cap in caps:
        k = 0
        while k < cap:
            quo, rem = divmod(num, r)
            if rem:
                break
            num = quo
            k += 1
        if k < cap:
            den.append((r, cap - k))
    return num, den


def _smooth_norm(restr: EERestriction, coeffs, side: str, kappa: int):
    """(quotient, pieces, denominator factors) of one side's norm when the
    restriction is nonzero and its norm is kappa-smooth, else None.

    The fixed factors F are in every norm's numerator, so a side where one
    has degree > kappa is rejected before anything is restricted.  The
    denominator is smooth exactly when every r left in it has degree
    <= kappa, so only the quotient gets a smoothness test, whose pieces
    leave `_factor_side` only the equal-degree split."""
    if any(q.degree > kappa for q, _ in restr.fixed[side][1]):
        return None
    uv = restr.restrict(coeffs, side)
    if uv[0].is_zero() and uv[1].is_zero():
        return None
    num, den = _stripped_norm(restr, uv, side)
    if any(r.degree > kappa for r, _ in den):
        return None
    pieces = smooth_pieces(num, kappa)
    if pieces is None:
        return None
    return num, pieces, den


def _factor_side(num: Poly, pieces, den, fixed, classes: PlaceClasses):
    """Split a smooth side's quotient from its pieces, add in the fixed
    factors (multiplicities add, sorted as `factor` sorts), and group both
    factor lists into place classes; den is monic, so the unit is num's."""
    unit, facs = factor(num, pieces=pieces)
    mult = dict(fixed)
    for q, e in facs:
        mult[q] = mult.get(q, 0) + e
    facs_n = sorted(mult.items(), key=lambda t: poly_sort_key(t[0]))
    by_class = {}
    for q, e in facs_n:
        rep = classes.class_of(q)
        by_class[rep] = by_class.get(rep, 0) + e
    for q, e in den:
        rep = classes.class_of(q)
        by_class[rep] = by_class.get(rep, 0) - e
    return {
        "unit": unit,
        "num": facs_n,
        "den": den,
        "classes": {rep: e for rep, e in by_class.items() if e},
    }


def ee_relation(restr: EERestriction, coeffs, kappa: int):
    """Build and verify the relation carried by one section, or None.
    Side b is restricted only once side a is smooth, and the two sides are
    factored only once the section is known to give a relation.

    The values va and vb at the intersection point are F_p combinations
    of the restriction's cached basis values W.  Evaluation at x_P is a
    ring map, so the combination is (U(x_P) + y_P V(x_P)) / D(x_P) for the
    section's numerators (U, V); and since D(x_P) != 0 (checked at
    construction), every divisor of D is nonzero at x_P too, so this is
    also the value of the reduced element (U/D, V/D) that
    `value_at_intersection` evaluates by Horner.

    Raises ValueError when coeffs is not a section of the restriction's
    linear system (a side's raw norm is not divisible by its fixed part G;
    no kernel combination can fail this) or when the two sides disagree
    at the intersection point."""
    hit_a = _smooth_norm(restr, coeffs, "a", kappa)
    if hit_a is None:
        return None
    hit_b = _smooth_norm(restr, coeffs, "b", kappa)
    if hit_b is None:
        return None
    va = _combine(coeffs, restr.values["a"])
    vb = _combine(coeffs, restr.values["b"])
    if va.is_zero() or vb.is_zero():
        return None  # the section vanishes at the distinguished point
    if va != vb:
        raise ValueError("restrictions disagree at the intersection point")
    side_a = _factor_side(*hit_a, restr.fixed["a"][1], restr.classes)
    side_b = _factor_side(*hit_b, restr.fixed["b"][1], restr.classes)
    return EERelation(coeffs, side_a, side_b, va)


def verify_ee_relation(restr: EERestriction, rel: EERelation) -> bool:
    """Independent re-derivation of everything the relation claims."""
    p = restr.setup.curve.p
    elems = []
    for side_tag, stored in (("a", rel.side_a), ("b", rel.side_b)):
        uv = restr.restrict(rel.coeffs, side_tag)
        norm = restr.norm(uv, side_tag)
        num = _expand(stored["unit"], stored["num"], p)
        den = _expand(1, stored["den"], p)
        if RationalFunction(num, den) != norm:
            return False
        by_class = {}
        for q, e in stored["num"]:
            rep = restr.classes.class_of(q)
            by_class[rep] = by_class.get(rep, 0) + e
        for q, e in stored["den"]:
            rep = restr.classes.class_of(q)
            by_class[rep] = by_class.get(rep, 0) - e
        if {rep: e for rep, e in by_class.items() if e} != stored["classes"]:
            return False
        elems.append(restr.element(uv, side_tag))
    va = restr.value_at_intersection(elems[0], "a")
    vb = restr.value_at_intersection(elems[1], "b")
    return va == vb == rel.witness and not restr.setup.ring.is_zero(va)


def projective_class(coeffs, p: int) -> tuple:
    """A nonzero section's coefficients scaled so that the first nonzero
    one is 1: the key it shares with its multiples lambda * coeffs,
    lambda in F_p^*."""
    inv = pow(next(c for c in coeffs if c), -1, p)
    return tuple(c * inv % p for c in coeffs)


def ee_sieve(
    setup: EESetup,
    cls: NSClassEE,
    kappa: int,
    budget: int,
    seed: int = 0,
    target: int = None,
    restriction: EERestriction = None,
):
    """Draw sections from the linear system of cls and keep the ones whose
    two restrictions are both kappa-smooth.  Linear-equivalence variation
    comes from the random coefficient draws over the kernel basis; trials
    run through indexcalc.sieve_trials, keyed by the section's
    coefficients.  A given restriction must be built for cls and kappa.

    Each projective class of sections is evaluated once per call:
    `ee_relation` runs on the first draw c of a class, and a later draw
    lambda * c gets c's relation rescaled, or None if c gave none.  The
    rescaling is exact: the restrictions (U, V) are linear in the
    section, so the raw norm U^2 - f V^2 and with it the norm's
    numerator and unit scale by lambda^2, while D, G, every monic factor
    and so every class exponent are unchanged, and the value at the
    intersection point scales by lambda.  A rebuilt relation still gets
    the sieve's check: its values va and vb are recomputed from the
    cached basis values, and ValueError is raised unless
    va = vb = lambda * (the first draw's witness)."""
    if restriction is None:
        lin = linear_system_ee(setup, cls)
        restriction = EERestriction(setup, lin, kappa)
    built = restriction.lin.cls
    if restriction.kappa != kappa:
        raise ValueError(
            f"restriction built for kappa={restriction.kappa}, not {kappa}"
        )
    if (built.d1, built.d2, built.xi) != (cls.d1, cls.d2, cls.xi):
        raise ValueError(f"restriction built for {built!r}, not {cls!r}")
    kernel = restriction.lin.kernel
    if not kernel:
        raise InsufficientPoints("the linear system has no sections")
    p = setup.curve.p

    def draw(rng):
        weights = [rng.randrange(p) for _ in kernel]
        coeffs = [sum(map(mul, weights, col)) % p for col in zip(*kernel)]
        if not any(coeffs):
            return None
        return tuple(coeffs), coeffs

    first = {}  # projective class -> the relation of its first draw, or None

    def relation(coeffs):
        key = projective_class(coeffs, p)
        if key not in first:
            first[key] = ee_relation(restriction, coeffs, kappa)
            return first[key]
        rel = first[key]
        if rel is None:
            return None
        i = next(i for i, c in enumerate(coeffs) if c)
        lam = coeffs[i] * pow(rel.coeffs[i], -1, p) % p
        va = _combine(coeffs, restriction.values["a"])
        vb = _combine(coeffs, restriction.values["b"])
        if va != vb or va != rel.witness * lam:
            raise ValueError("a rescaled relation disagrees at the intersection point")

        def side(s):
            return {
                "unit": s["unit"] * lam * lam % p,
                "num": list(s["num"]),
                "den": list(s["den"]),
                "classes": dict(s["classes"]),
            }

        return EERelation(coeffs, side(rel.side_a), side(rel.side_b), va)

    return sieve_trials(seed, budget, target, draw, relation)
