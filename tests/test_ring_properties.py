"""Property tests of factoring, the smoothness test and ring arithmetic.

They need hypothesis, and skip where it is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from frobsieve.ffcore import (
    Poly,
    QuotientField,
    factor,
    smooth_pieces,
    is_irreducible,
    poly_sort_key,
)
from frobsieve.galoisrep import build_kummer, build_torus

# derandomized, so a tier-1 run draws the same examples every time
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

PRIMES = [2, 3, 5, 43, 199]
MAX_DEGREE = 14


@st.composite
def polynomials(draw):
    """A nonzero polynomial of degree <= 14 over a small prime field: a
    unit times monic parts raised to powers, so that repeated factors and
    (for small p) p-th powers turn up as often as squarefree ones."""
    p = draw(st.sampled_from(PRIMES))
    f = Poly([draw(st.integers(1, p - 1))], p)
    for _ in range(draw(st.integers(1, 4))):
        low = draw(st.lists(st.integers(0, p - 1), min_size=0, max_size=4))
        e = draw(st.sampled_from([1, 1, 2, 3, p]))
        if f.degree + e * len(low) > MAX_DEGREE:
            break
        f = f * _power(Poly(low + [1], p), e)
    return f


def _power(q, e):
    out = Poly([1], q.p)
    for _ in range(e):
        out = out * q
    return out


@PROPERTY
@given(f=polynomials())
def test_factor_multiplies_back(f):
    unit, factors = factor(f)
    prod = Poly([unit], f.p)
    for q, m in factors:
        prod = prod * _power(q, m)
    assert prod == f


@PROPERTY
@given(f=polynomials())
def test_factors_are_sorted_monic_irreducibles(f):
    _, factors = factor(f)
    qs = [q for q, _ in factors]
    assert all(q.lc() == 1 and is_irreducible(q) for q in qs)
    keys = [poly_sort_key(q) for q in qs]
    assert keys == sorted(set(keys))
    assert all(m >= 1 for _, m in factors)


@PROPERTY
@given(f=polynomials(), low=st.booleans(), extra=st.integers(0, 2))
def test_ladder_decides_smoothness(f, low, extra):
    # kappa at or above deg f / 2 (the peel decides) or below it (the
    # product test does), so both deciders meet every kind of input
    n = max(f.degree, 0)
    kappa = max(1, (n + 1) // 2 + extra) if low else max(1, (n - 1) // 2 - extra)
    _, factors = factor(f)
    pieces = smooth_pieces(f, kappa)
    assert (pieces is not None) == all(q.degree <= kappa for q, _ in factors)
    if pieces is not None:
        assert factor(f, pieces=pieces) == factor(f)


KUMMER = build_kummer(43, 6).ring
TORUS = build_torus(13, 7).ring


@st.composite
def ring_elements(draw, ring: QuotientField, nonzero=False):
    cs = draw(st.lists(st.integers(0, ring.p - 1), min_size=ring.degree, max_size=ring.degree))
    if nonzero and not any(cs):
        cs[0] = 1
    return ring.el(cs)


rings = st.sampled_from([KUMMER, TORUS])
exponents = st.integers(-(10 ** 6), 10 ** 6)


@PROPERTY
@given(data=st.data(), ring=rings)
def test_ring_mul_is_a_commutative_ring_product(data, ring):
    a, b, c = (data.draw(ring_elements(ring)) for _ in range(3))
    assert ring.mul(a, b) == ring.mul(b, a)
    assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
    assert ring.mul(a, ring.add(b, c)) == ring.add(ring.mul(a, b), ring.mul(a, c))
    assert ring.mul(a, ring.one()) == a


@PROPERTY
@given(data=st.data(), ring=rings, m=exponents, n=exponents)
def test_ring_pow_adds_and_multiplies_exponents(data, ring, m, n):
    a = data.draw(ring_elements(ring, nonzero=True))
    assert ring.pow(a, m + n) == ring.mul(ring.pow(a, m), ring.pow(a, n))
    assert ring.pow(ring.pow(a, m), n) == ring.pow(a, m * n)
    assert ring.pow(a, ring.order() - 1) == ring.one()


@PROPERTY
@given(data=st.data(), ring=rings, n=exponents)
def test_ring_inv_is_the_inverse(data, ring, n):
    a = data.draw(ring_elements(ring, nonzero=True))
    b = ring.inv(a)
    assert ring.mul(a, b) == ring.one()
    assert ring.inv(b) == a
    assert ring.pow(a, -n) == ring.pow(b, n)
