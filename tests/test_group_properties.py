"""Property tests of the shared binary method on the groups the models use.

They need hypothesis, and skip where it is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from frobsieve.elliptic import build_elliptic_residue, ec_add, ec_scalar
from frobsieve.ffcore import double_and_add
from frobsieve.galoisrep import NEUTRAL, build_torus, torus_add, torus_eq, torus_scalar

# derandomized, so a tier-1 run draws the same examples every time
PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

CURVE = build_elliptic_residue(11, 7).curve
CURVE_POINTS = [None] + CURVE.points()

TORUS_P = 13
TORUS_D = build_torus(TORUS_P, 7).params["D"]
TORUS_POINTS = [(u, 1) for u in range(TORUS_P)] + [NEUTRAL]

scalars = st.integers(-60, 60)


@PROPERTY
@given(n=st.integers(1, 1000), x=st.integers(0, 999), k=st.integers(0, 400))
def test_double_and_add_is_repeated_addition(n, x, k):
    calls = []

    def add(a, b):
        calls.append((a, b))
        return (a + b) % n

    expect = 0
    for _ in range(k):
        expect = (expect + x) % n
    assert double_and_add(add, 0, x % n, k) == expect
    assert len(calls) == (bin(k).count("1") + k.bit_length() - 1 if k else 0)


@PROPERTY
@given(P=st.sampled_from(CURVE_POINTS), a=scalars, b=scalars)
def test_curve_scalar_is_linear(P, a, b):
    ops, a4 = CURVE.ops, CURVE.a4
    aP, bP = ec_scalar(ops, a4, a, P), ec_scalar(ops, a4, b, P)
    assert ec_add(ops, a4, aP, bP) == ec_scalar(ops, a4, a + b, P)
    assert ec_scalar(ops, a4, a, bP) == ec_scalar(ops, a4, a * b, P)


@PROPERTY
@given(P=st.sampled_from(TORUS_POINTS), a=scalars, b=scalars)
def test_torus_scalar_is_linear(P, a, b):
    D, p = TORUS_D, TORUS_P
    aP, bP = torus_scalar(a, P, D, p), torus_scalar(b, P, D, p)
    assert torus_eq(torus_add(aP, bP, D, p), torus_scalar(a + b, P, D, p), p)
    assert torus_eq(torus_scalar(a, bP, D, p), torus_scalar(a * b, P, D, p), p)
