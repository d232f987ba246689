"""Explicit finite field models carrying a structural Frobenius action.

A representation packages F_{p^d} = F_p[X]/(A) together with a closed form
for x |-> x^p on the residue class of X.  Three families are built here,
and in each x^p = (a x + b)/(c x + d) for one matrix of PGL_2(F_p):

* Kummer: A = X^d - r with r a primitive root mod p and d | p-1; Frobenius
  scales x by a root of unity zeta, the matrix [[zeta, 0], [0, 1]].
* Artin-Schreier: A = X^p - X - a with d = p; Frobenius translates x by a,
  the matrix [[1, a], [0, 1]].
* Norm-one torus: d | p+1; the residue x is a coordinate on a rank-one
  torus and Frobenius is the non-split homography [[tau, D], [1, tau]].

The elliptic-curve family reuses the same Representation container but is
constructed in the elliptic module, which stores precomputed power images.

Knowing Frobenius structurally lets p-th powering of polynomials in x be
read off combinatorially, which is what the orbit machinery below exploits:
the homography permutes the monic polynomials of each degree up to scalars,
so the monic irreducibles of small degree fall into short Frobenius orbits,
and each orbit contributes one unknown (plus bookkeeping) instead of one
unknown per polynomial.
"""

import json
from itertools import accumulate, zip_longest
from operator import mul

from .errors import (
    DegreeNotCompatible,
    FrobsieveError,
    InconsistentFrobenius,
    InvalidPoint,
    NotFound,
)
from .ffcore import (
    Poly,
    PrimeField,
    QuotientField,
    double_and_add,
    factorize_int,
    fraction_kernel,
    horner,
    is_irreducible,
    order_from_multiple,
    primitive_root,
)

KUMMER = "kummer"
ARTIN_SCHREIER = "artin-schreier"
TORUS = "torus"
ELLIPTIC = "elliptic-residue"


# ---------------------------------------------------------------------------
# Frobenius action on the residue class of X, in closed form.


class HomographyFrobenius:
    """x^p = (a*x + b) / (c*x + d) for one matrix (a, b, c, d) of PGL_2(F_p),
    normalised to c = 1 when c != 0 and to d = 1 otherwise.

    Kummer is [[zeta, 0], [0, 1]], Artin-Schreier [[1, a], [0, 1]] and the
    rank-one torus [[tau, D], [1, tau]].  Stored as `affine` {u, v} when
    c = 0 (x^p = u*x + v) and as `homography` {tau, D} otherwise.
    """

    def __init__(self, a: int, b: int, c: int, d: int, p: int):
        s = pow(c % p or d % p, -1, p)
        self.matrix = (a * s % p, b * s % p, c * s % p, d * s % p)
        self.p = p

    def __repr__(self):
        return f"HomographyFrobenius{self.matrix}"

    def image(self, k: int, ring: QuotientField) -> Poly:
        """x^(p^k), from the k-th power of the matrix."""
        p = self.p
        a, b, c, d = 1, 0, 0, 1
        ma, mb, mc, md = self.matrix
        for _ in range(k):
            a, b, c, d = ((a * ma + b * mc) % p, (a * mb + b * md) % p,
                          (c * ma + d * mc) % p, (c * mb + d * md) % p)
        if c == 0:
            # a constant denominator is inverted in F_p
            s = pow(d, -1, p)
            return ring.el([b * s, a * s])
        return ring.mul(ring.el([b, a]), ring.inv(ring.el([d, c])))

    def to_json(self):
        a, b, c, d = self.matrix
        if c == 0:
            return {"variant": "affine", "u": a, "v": b}
        if a != d:
            raise ValueError(f"{self!r} has no stored form: a homography needs a = d")
        return {"variant": "homography", "tau": a, "D": b}


class CurveFrobenius:
    """Precomputed images x^{p^k} for k = 0..d-1, supplied by the builder."""

    def __init__(self, images):
        self.images = list(images)

    def __repr__(self):
        return f"CurveFrobenius(d={len(self.images)})"

    def image(self, k: int, ring: QuotientField) -> Poly:
        return self.images[k % len(self.images)]

    def to_json(self):
        return {
            "variant": "curve-translation",
            "images": [img.to_list() for img in self.images],
        }


class Representation:
    """F_{p^d} = F_p[X]/(A) with a structural Frobenius on the class of X."""

    def __init__(self, kind, field: PrimeField, d: int, A: Poly, frobenius, params=None):
        self.kind = kind
        self.field = field
        self.p = field.p
        self.d = d
        self.A = A
        self.frobenius = frobenius
        self.params = dict(params or {})
        self.ring = QuotientField(A)
        self.ext = None  # elliptic builder attaches its curve data here
        self._image_cache = {}
        self._step_basis = {}  # orbit walk, see _step_basis
        self._order_factors = None

    def __repr__(self):
        return f"Representation({self.kind}, p={self.p}, d={self.d})"

    def order(self) -> int:
        """Order of the multiplicative group."""
        return self.p ** self.d - 1

    def order_factors(self) -> dict[int, int]:
        """{prime: multiplicity} of the group order, factored on first use."""
        if self._order_factors is None:
            self._order_factors = factorize_int(self.order())
        return self._order_factors

    def frobenius_image(self, k: int) -> Poly:
        """The residue x^{p^k}, computed from structure rather than powering."""
        k %= self.d
        img = self._image_cache.get(k)
        if img is None:
            img = self.frobenius.image(k, self.ring)
            self._image_cache[k] = img
        return img

    def to_json(self):
        data = {
            "kind": self.kind,
            "p": self.p,
            "d": self.d,
            "A": self.A.to_list(),
            "frobenius": self.frobenius.to_json(),
            "params": dict(self.params),
        }
        if self.ext is not None:
            data.update(self.ext.curve_json())
        return data


def verify_representation(rep: Representation):
    """Check x^p really equals the claimed structural image.

    Cheap insurance for every builder: one modular exponentiation versus
    the closed form.  Curve images x^(p^k) are checked as a whole chain:
    image 0 is x, image k+1 is image k evaluated at x^p, and the chain
    closes at x.
    """
    actual = rep.ring.pow(rep.ring.x(), rep.p)
    if isinstance(rep.frobenius, CurveFrobenius):
        images = rep.frobenius.images
        if len(images) != rep.d:
            raise InconsistentFrobenius(f"curve Frobenius needs {rep.d} images")
        cur = rep.ring.x()
        for k, img in enumerate(images + [cur]):
            if img != cur:
                raise InconsistentFrobenius(f"stored image {k % rep.d} is not x^(p^{k})")
            cur = horner(rep.ring, cur, actual)
    claimed = rep.frobenius_image(1)
    if actual != claimed:
        raise InconsistentFrobenius(
            f"x^p mod A is {actual!r} but the structural action gives {claimed!r}"
        )


def apply_frobenius(rep: Representation, z: Poly, k: int = 1) -> Poly:
    """z^{p^k} for a residue element z, via the structural image of x.

    Evaluates the coefficient polynomial of z at x^{p^k}; coefficients are
    fixed by Frobenius, so this is exactly the p^k-power map.
    """
    return horner(rep.ring, z, rep.frobenius_image(k))


# ---------------------------------------------------------------------------
# Rank-one torus: projective points [U : V] with group law inherited from
# the norm-one subgroup of F_p(sqrt(D))^*, D a non-square.  The point set
# is all of P^1(F_p) (p + 1 points) and the group is cyclic.

NEUTRAL = (1, 0)


def torus_check(P, D: int, p: int):
    U, V = P
    if U % p == 0 and V % p == 0:
        raise InvalidPoint("[0 : 0] is not projective")
    # U^2 - D V^2 = 0 would need D to be a square
    if (U * U - D * V * V) % p == 0:
        raise InvalidPoint(f"[{U} : {V}] lies on the degenerate conic")


def torus_normalize(P, p: int):
    U, V = P[0] % p, P[1] % p
    if V != 0:
        s = pow(V, -1, p)
        return (U * s % p, 1)
    return (1, 0)


def torus_eq(P, Q, p: int) -> bool:
    # cross-multiplication avoids inversions
    return (P[0] * Q[1] - Q[0] * P[1]) % p == 0


def torus_is_neutral(P, p: int) -> bool:
    return P[1] % p == 0


def torus_add(P, Q, D: int, p: int):
    U1, V1 = P
    U2, V2 = Q
    return ((U1 * U2 + D * V1 * V2) % p, (U1 * V2 + U2 * V1) % p)


def torus_neg(P, p: int):
    return ((-P[0]) % p, P[1] % p)


def torus_scalar(k: int, P, D: int, p: int):
    if k < 0:
        return torus_scalar(-k, torus_neg(P, p), D, p)
    return torus_normalize(double_and_add(lambda Q, R: torus_add(Q, R, D, p), NEUTRAL, P, k), p)


def torus_u(P, p: int):
    """Affine coordinate U/V, or None for the neutral point."""
    if torus_is_neutral(P, p):
        return None
    return P[0] * pow(P[1], -1, p) % p


def torus_order(P, D: int, p: int, group_factors) -> int:
    return order_from_multiple(
        p + 1, group_factors, lambda m: torus_is_neutral(torus_scalar(m, P, D, p), p)
    )


# ---------------------------------------------------------------------------
# Builders.


def build_kummer(p: int, d: int, r=None) -> Representation:
    """F_{p^d} as F_p[X]/(X^d - r) with r a primitive root mod p.

    Needs d | p - 1 so that x^p = zeta * x for the root of unity
    zeta = r^((p-1)/d).
    """
    field = PrimeField(p)
    if d < 1 or (p - 1) % d != 0:
        raise DegreeNotCompatible(f"need d | p - 1, got d={d}, p={p}")
    if r is None:
        r = primitive_root(p)
    else:
        r %= p
        facs = factorize_int(p - 1)
        if r == 0 or any(pow(r, (p - 1) // ell, p) == 1 for ell in facs):
            raise ValueError(f"{r} is not a primitive root mod {p}")
    zeta = pow(r, (p - 1) // d, p)
    A = field.poly([-r] + [0] * (d - 1) + [1])
    if not is_irreducible(A):
        raise InconsistentFrobenius(f"X^{d} - {r} is not irreducible mod {p}")
    rep = Representation(
        KUMMER, field, d, A, HomographyFrobenius(zeta, 0, 0, 1, p), {"r": r, "zeta": zeta}
    )
    verify_representation(rep)
    return rep


def build_artin_schreier(p: int, a: int = 1) -> Representation:
    """F_{p^p} as F_p[X]/(X^p - X - a), with x^p = x + a."""
    field = PrimeField(p)
    a %= p
    if a == 0:
        raise ValueError("a must be nonzero mod p")
    d = p
    A = field.poly([-a, -1] + [0] * (p - 2) + [1])
    if not is_irreducible(A):
        raise InconsistentFrobenius(f"X^{p} - X - {a} is not irreducible mod {p}")
    rep = Representation(
        ARTIN_SCHREIER, field, d, A, HomographyFrobenius(1, a, 0, 1, p), {"a": a}
    )
    verify_representation(rep)
    return rep


def _poly_from_torus_generator(field: PrimeField, d: int, u_r: int, D: int) -> Poly:
    """Minimal polynomial of a coordinate generator: the [d]-multiplication
    numerator in the U-coordinate, expanded binomially from (u_r + sqrt(D))^d."""
    p = field.p
    from math import comb

    even = [0] * (d + 1)
    odd = [0] * (d + 1)
    for k in range(0, d + 1, 2):
        even[d - k] = comb(d, k) * pow(D, k // 2, p) % p
    for k in range(1, d + 1, 2):
        odd[d - k] = comb(d, k) * pow(D, k // 2, p) % p
    return field.poly([(even[i] - u_r * odd[i]) % p for i in range(d + 1)])


def build_torus(p: int, d: int, u_r=None) -> Representation:
    """F_{p^d} modeled on the rank-one torus of order p + 1, for d | p + 1.

    The residue x is the affine coordinate of a point t of exact order d,
    obtained as [-(p+1)/d] times a base point r on the torus.  Frobenius
    becomes the homography x -> (tau*x + D)/(x + tau) with tau = u(t).

    When u_r is omitted the base point is the first [u : 1] generating the
    full group; an explicit u_r is accepted whenever its multiple t still
    has exact order d, which is the only property the construction uses.
    """
    field = PrimeField(p)
    if p == 2:
        raise DegreeNotCompatible("torus model needs an odd prime")
    if d < 2 or (p + 1) % d != 0:
        raise DegreeNotCompatible(f"need d | p + 1 and d >= 2, got d={d}, p={p}")

    D = next(
        c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1
    )
    group_factors = factorize_int(p + 1)

    if u_r is None:
        for u in range(p):
            cand = (u, 1)
            if torus_order(cand, D, p, group_factors) == p + 1:
                u_r = u
                break
        else:
            raise NotFound(f"no full-order torus point over F_{p}")
    else:
        u_r %= p
        torus_check((u_r, 1), D, p)
    base = (u_r, 1)

    m = (p + 1) // d
    t = torus_scalar(-m, base, D, p)
    order = torus_order(t, D, p, group_factors)
    if order != d:
        raise ValueError(
            f"u_r={u_r} gives a translation point of order {order}, need exact order {d}"
        )
    tau = torus_u(t, p)

    A = _poly_from_torus_generator(field, d, u_r, D)
    if not is_irreducible(A):
        raise InconsistentFrobenius(
            f"torus minimal polynomial for u_r={u_r} failed irreducibility"
        )

    # The orientation of sqrt(D) inside the field is not observable from
    # u_r alone, so the translation can come out as +-t; try both signs.
    rep = None
    for sign, tt in (("-", t), ("+", torus_neg(t, p))):
        tau_s = torus_u(tt, p)
        cand = Representation(
            TORUS,
            field,
            d,
            A,
            HomographyFrobenius(tau_s, D, 1, tau_s, p),
            {"D": D, "u_r": u_r, "m": m, "tau": tau_s, "sign": sign},
        )
        try:
            verify_representation(cand)
        except InconsistentFrobenius:
            continue
        rep = cand
        break
    if rep is None:
        raise InconsistentFrobenius(
            f"neither sign of the order-{d} translation matches x^p for u_r={u_r}"
        )
    return rep


# ---------------------------------------------------------------------------
# Loading: a stored representation is its build.


def _read(data, key, convert, where=""):
    """convert(data[key]); a missing key, a wrong type or an out-of-range
    value raises InconsistentFrobenius naming the field where + key."""
    try:
        return convert(data[key])
    except (AttributeError, KeyError, IndexError, TypeError, ValueError) as exc:
        raise InconsistentFrobenius(
            f"bad representation field '{where}{key}': {exc!r}") from exc


def _artin_schreier(p, d, **inputs):
    if d != p:
        raise DegreeNotCompatible(f"the additive model forces d = p, got d={d}, p={p}")
    return build_artin_schreier(p, **inputs)


def _elliptic_residue(p, d):
    from .elliptic import build_elliptic_residue  # elliptic imports this module

    return build_elliptic_residue(p, d).rep


# kind -> (build(p, d, **inputs), the names of the inputs, kept in params)
BUILDERS = {
    KUMMER: (build_kummer, ("r",)),
    ARTIN_SCHREIER: (_artin_schreier, ("a",)),
    TORUS: (build_torus, ("u_r",)),
    ELLIPTIC: (_elliptic_residue, ()),
}


class _Missing:
    def __repr__(self):
        return "missing"


_MISSING = _Missing()


def _first_difference(stored, built, path=""):
    """(path, stored value, built value) at the first field where two JSON
    documents differ, or None.  Dicts are walked in built's key order and
    then the keys only stored has, lists of lists (the curve images) item
    by item; an absent value is _MISSING."""
    if isinstance(stored, dict) and isinstance(built, dict):
        keys = list(built) + [k for k in stored if k not in built]
        pairs = [(stored.get(k, _MISSING), built.get(k, _MISSING), f"{path}.{k}" if path else k)
                 for k in keys]
    elif isinstance(stored, list) and isinstance(built, list) and built \
            and isinstance(built[0], list):
        pairs = [(s, b, f"{path}[{i}]")
                 for i, (s, b) in enumerate(zip_longest(stored, built, fillvalue=_MISSING))]
    else:
        return None if stored == built else (path, stored, built)
    return next(filter(None, (_first_difference(*pair) for pair in pairs)), None)


def rep_from_json(data) -> Representation:
    """Load a stored representation by building it again.

    A representation is fixed by kind, p, d and its builder's inputs in
    params (none for the elliptic residue).  The stored document must
    equal the build's to_json(); otherwise InconsistentFrobenius names
    the first field that differs, or the inputs the builder refuses; an
    elliptic file whose curve order no build from (p, d) has is refused
    before the build.  The build is returned, so an elliptic rep carries
    its ext.
    """
    kind = _read(data, "kind", str)
    if kind not in BUILDERS:
        raise InconsistentFrobenius(f"bad representation field 'kind': {kind!r}")
    build, names = BUILDERS[kind]
    p = _read(data, "p", int)
    d = _read(data, "d", int)
    params = _read(data, "params", dict)
    inputs = {name: _read(params, name, int, "params.") for name in names if name in params}
    source = ", ".join([f"p={p}", f"d={d}"] + [f"params.{k}={v}" for k, v in inputs.items()])
    try:
        if kind == ELLIPTIC:  # refused before a curve search of about p^2 steps
            from .elliptic import hasse_multiples  # elliptic imports this module

            order = _read(_read(data, "curve", dict), "order", int, "curve.")
            if d > 0 and order not in hasse_multiples(p, d):
                raise InconsistentFrobenius(f"field 'curve.order' is {order} in the file, "
                                            "not a multiple of d in the Hasse interval")
        rep = build(p, d, **inputs)
    except (FrobsieveError, ValueError) as exc:
        raise InconsistentFrobenius(f"no {kind} representation builds from {source}: {exc}") from exc
    try:
        stored, built = (json.loads(json.dumps(doc)) for doc in (data, rep.to_json()))
    except (TypeError, ValueError) as exc:
        raise InconsistentFrobenius(f"representation is not a JSON document: {exc}") from exc
    found = _first_difference(stored, built)
    if found:
        path, in_file, in_build = found
        raise InconsistentFrobenius(
            f"field '{path}' is {in_file!r} in the file but {in_build!r} in the {kind} build "
            f"from {source}"
        )
    return rep


# ---------------------------------------------------------------------------
# Frobenius orbits of monic irreducible polynomials in the residue x.
#
# For a monic irreducible q of degree n and x^p = (a x + b)/(c x + d),
# q(x)^p factors through a single "successor" polynomial sigma(q):
#
#   q(x)^p = s * sigma(q)(x) / (c x + d)^n,
#   sigma(q) = monic sum_i q_i (aX + b)^i (cX + d)^(n-i),
#
# with s in F_p^*.  Iterating walks a finite orbit; all logarithms inside an
# orbit reduce to the anchor's plus explicit scalar and pole weights.  When
# c = 0 (Kummer, Artin-Schreier) the pole c x + d is 1 and carries no
# weight.  When c != 0 (the torus, c x + d = x + tau) the orbit through the
# pole X + d is special: it ends at X - a, whose image degenerates to a
# constant (the successor lives at infinity).


class OrbitMember:
    """q_j = anchor^{p^j} * scalar^{-1} * (x+tau)^{ker_weight}, as elements."""

    __slots__ = ("poly", "shift", "scalar", "ker_weight")

    def __init__(self, poly: Poly, shift: int, scalar: int, ker_weight: int):
        self.poly = poly
        self.shift = shift
        self.scalar = scalar
        self.ker_weight = ker_weight

    def __repr__(self):
        return f"OrbitMember({self.poly!r}, shift={self.shift})"


class Orbit:
    """One Frobenius orbit with enough bookkeeping to recover every member's
    logarithm from the anchor's.

    closure_* record the relation obtained by walking once around:
      regular orbit:  anchor^{p^size - 1} * (x+tau)^{closure_ker_weight}
                      = closure_scalar
      kernel orbit:   (x+tau)^{closure_exponent} = closure_scalar
    Scalar values are kept as field elements; consumers translate them into
    exponents of whatever base-field generator they use.
    """

    def __init__(self, rep, members, is_kernel, closure_scalar,
                 closure_ker_weight=0, closure_exponent=None):
        self.rep = rep
        self.members = members
        self.is_kernel = is_kernel
        self.closure_scalar = closure_scalar
        self.closure_ker_weight = closure_ker_weight
        self.closure_exponent = closure_exponent

    @property
    def anchor(self) -> Poly:
        return self.members[0].poly

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def full_size(self) -> int:
        """Orbit size counting the place at infinity for the kernel orbit."""
        return len(self.members) + (1 if self.is_kernel else 0)

    def polys(self):
        return [mem.poly for mem in self.members]

    def __repr__(self):
        tag = "kernel " if self.is_kernel else ""
        return f"Orbit({tag}anchor={self.anchor!r}, size={self.size})"


def _step_basis(rep: Representation, n: int):
    """Columns of the powers (aX + b)^i (cX + d)^(n-i), i = 0..n, for the
    Frobenius matrix (a, b, c, d): entry [j][i] is the X^j coefficient of
    the i-th power.  Cached per degree n."""
    cols = rep._step_basis.get(n)
    if cols is None:
        a, b, c, d = rep.frobenius.matrix
        one = rep.field.poly([1])
        num_pows = list(accumulate([rep.field.poly([b, a])] * n, mul, initial=one))
        den_pows = list(accumulate([rep.field.poly([d, c])] * n, mul, initial=one))
        rows = [(num_pows[i] * den_pows[n - i]).coeffs for i in range(n + 1)]
        cols = [tuple(row[j] if j < len(row) else 0 for row in rows)
                for j in range(n + 1)]
        rep._step_basis[n] = cols
    return cols


def frobenius_step(rep: Representation, q: Poly):
    """One step of the orbit walk: (sigma(q), scalar) with
    q(x)^p = scalar * sigma(q)(x) * (c x + d)^(-deg q).

    The numerator sum_i q_i (aX + b)^i (cX + d)^(n-i) is an F_p-combination
    of the cached power basis.  Only q = X - a/c (c != 0) makes it drop
    degree; then it is a constant and the function returns (None, constant)
    with q(x)^p = constant / (c x + d).
    """
    p = rep.p
    acc = [sum(map(mul, q.coeffs, col)) for col in _step_basis(rep, q.degree)]
    s = acc[-1] % p
    if s == 0:
        # the successor is the place at infinity
        return None, Poly(acc, p).constant_value()
    inv = pow(s, -1, p)
    return Poly([c * inv for c in acc], p), s


def _walk(rep: Representation, q: Poly):
    """Walk q, sigma(q), ... until it comes back to q or degenerates.

    Returns (members, scalar, weight, degenerate): scalar and weight are
    the running products after the last step, which give the closure.
    Weights count powers of the pole c x + d, which is 1 when c = 0.
    """
    p = rep.p
    track_weight = rep.frobenius.matrix[2] != 0
    members = []
    cur, scalar, weight, shift = q, 1, 0, 0
    while True:
        members.append(OrbitMember(cur, shift, scalar, weight))
        nxt, s = frobenius_step(rep, cur)
        # scalars live in F_p, so the p-th power of the running product is
        # the product itself
        scalar = scalar * s % p
        if track_weight:
            weight = p * weight + cur.degree
        shift += 1
        if nxt is None or nxt == q:
            return members, scalar, weight, nxt is None
        if shift > rep.d + 1:
            raise InconsistentFrobenius(
                f"orbit of {q!r} did not close within {rep.d + 1} steps"
            )
        cur = nxt


def frobenius_orbit(rep: Representation, q: Poly) -> Orbit:
    """The full Frobenius orbit through the monic irreducible q.

    One walk from q records the members as it goes.  It either cycles back
    to the anchor or, when c != 0, runs into the degenerate step at X - a;
    then q lies on the kernel orbit, which is walked again from the pole
    X + d (unless q is X + d already) so that its bookkeeping is uniform.
    """
    q = q.monic()
    p = rep.p

    if rep.kind == ELLIPTIC:
        # no usable successor structure on plain x-polynomials; every
        # polynomial is its own orbit with trivial closure
        member = OrbitMember(q, 0, 1, 0)
        return Orbit(rep, [member], False, 1)

    members, scalar, weight, degenerate = _walk(rep, q)
    if not degenerate:
        return Orbit(rep, members, False, scalar, closure_ker_weight=weight)
    ker_anchor = rep.field.poly([rep.frobenius.matrix[3], 1])  # the pole X + d
    if q != ker_anchor:
        members, scalar, _weight, degenerate = _walk(rep, ker_anchor)
        if not degenerate:
            raise InconsistentFrobenius(
                f"{q!r} degenerates but the orbit of {ker_anchor!r} does not"
            )
    # walking off the end: (x+tau)^{p^{shift-1} + W} = scalar as elements,
    # once the final degenerate constant is folded in; the left exponent
    # collects into closure_exponent below.
    last = members[-1]
    exponent = p * (p ** last.shift + last.ker_weight) + 1
    return Orbit(rep, members, True, scalar, closure_exponent=exponent)


def orbit_partition(rep: Representation, polys) -> list:
    """Partition an iterable of monic irreducibles into Frobenius orbits.

    Members outside the input list (possible for the kernel orbit, whose
    anchor is forced to X + tau) are still carried by their orbit.
    """
    seen = set()
    orbits = []
    for q in polys:
        q = q.monic()
        if q.coeffs in seen:
            continue
        orb = frobenius_orbit(rep, q)
        for mem in orb.members:
            seen.add(mem.poly.coeffs)
        orbits.append(orb)
    return orbits


# ---------------------------------------------------------------------------
# Degree filtration.


def degree(rep: Representation, z: Poly) -> int:
    """Filtration degree of a nonzero residue element.

    For the polynomial models this is plain polynomial degree.  On the
    torus, x is a coordinate of P^1 rather than an affine line, and the
    right notion is the smallest k such that z = a(x)/b(x) with
    deg a, deg b <= k; constants get 0 and x itself gets 1.
    """
    z = rep.ring.el(z)
    if z.is_zero():
        raise ValueError("degree of the zero element is undefined")
    if rep.kind == TORUS:
        return _torus_degree(rep, z)
    if rep.kind == ELLIPTIC:
        from .elliptic import function_degree

        if rep.ext is None:
            raise ValueError("an elliptic representation needs the curve data its builder attaches")
        return function_degree(rep.ext, z)
    return z.degree if z.degree >= 0 else 0


def _torus_degree(rep: Representation, z: Poly) -> int:
    p, d = rep.p, rep.d
    ring = rep.ring
    x_pows = [ring.one()]
    for _ in range(d):
        x_pows.append(ring.mul(x_pows[-1], ring.x()))
    zx_pows = [ring.mul(z, xp) for xp in x_pows]
    max_k = (d - 2 + 1) // 2 + 1  # 2k + 2 > d guarantees a kernel by then
    for k in range(0, max_k + 1):
        if fraction_kernel(x_pows[:k + 1], zx_pows[:k + 1], d, p):
            return k
    raise InconsistentFrobenius("torus degree sweep failed to terminate")
