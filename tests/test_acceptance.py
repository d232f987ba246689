"""Acceptance suite: the end-to-end contract, one test per criterion.

Each test pins a worked example or a bulk guarantee at its stated time
budget.  Values asserted exactly here were derived by hand or through
an independent computation before the implementation existed.
"""

import random
import time

import pytest

from frobsieve.elliptic import (
    Curve,
    EndomorphismElement,
    build_elliptic_residue,
    translate_point,
)
from frobsieve.ffcore import Poly, is_irreducible, monic_irreducibles
from frobsieve.galoisrep import (
    apply_frobenius,
    build_artin_schreier,
    build_kummer,
    build_torus,
    degree,
)
from frobsieve.indexcalc import build_factor_base, compute_logs, individual_log
from frobsieve.sieve2d import (
    EERestriction,
    NSClassEE,
    NSClassP1P1,
    ee_setup,
    ee_sieve,
    effectivity_check,
    expected_dimension,
    intersection_form_p1p1,
    jl_setup,
    jl_sieve,
    linear_system_ee,
    verify_ee_relation,
)


@pytest.fixture(scope="module")
def ee11():
    return ee_setup(11, 7)


def test_01_kummer_small_model():
    t0 = time.monotonic()
    rep = build_kummer(43, 6, r=3)
    assert rep.A == Poly([-3, 0, 0, 0, 0, 0, 1], 43)
    ring = rep.ring
    assert ring.pow(ring.x(), 43) == ring.el([0, 37])
    assert rep.frobenius_image(1) == ring.el([0, 37])
    assert time.monotonic() - t0 < 1.0


def test_02_kummer_large_root_of_unity():
    t0 = time.monotonic()
    p = 370801
    rep = build_kummer(p, 30, r=17)
    zeta = rep.params["zeta"]
    assert zeta == 172960
    assert (p - 1) // 30 == 12360
    assert pow(17, 12360, p) == zeta
    ring = rep.ring
    assert ring.pow(ring.x(), p) == ring.el([0, zeta])
    assert time.monotonic() - t0 < 1.0


def test_03_artin_schreier_model():
    t0 = time.monotonic()
    rep = build_artin_schreier(7, a=1)
    assert rep.A == Poly([-1, -1, 0, 0, 0, 0, 0, 1], 7)
    ring = rep.ring
    assert ring.pow(ring.x(), 7) == ring.el([1, 1])
    assert time.monotonic() - t0 < 1.0


def test_04_torus_model_and_homography():
    t0 = time.monotonic()
    rep = build_torus(13, 7, u_r=8)
    # the target modulus, written out the long way:
    #   X^7 + 3X^5 + 10X^3 + 4X - 8*(7X^6 + 5X^4 + 6X^2 + 8)
    odd = Poly([0, 4, 0, 10, 0, 3, 0, 1], 13)
    even = Poly([8, 0, 6, 0, 5, 0, 7], 13)
    assert rep.A == odd - Poly([8], 13) * even
    # x^13 = (4x + 2)/(x + 4), cross-multiplied to stay in the ring
    ring = rep.ring
    xp = ring.pow(ring.x(), 13)
    assert ring.mul(xp, ring.el([4, 1])) == ring.el([2, 4])
    assert rep.frobenius_image(1) == xp
    assert time.monotonic() - t0 < 1.0


def test_05_elliptic_residue_frobenius_translation():
    t0 = time.monotonic()
    # trace-5 existence witness over F_11, counted directly
    crv = Curve.from_long(11, 1, 0, 0, 2, 8)
    assert crv.point_count() == 7
    assert crv.trace() == 5

    ext = build_elliptic_residue(11, 7)
    rep = ext.rep
    assert rep.A.degree == 7
    assert is_irreducible(rep.A)

    # Frobenius on the residue field is translation by a kernel point
    assert ext.t_star in ext.subgroup
    assert len([t for t in ext.subgroup if t is not None]) + 1 == 7
    ring = rep.ring
    B = ext.point()
    moved = translate_point(ext, B, ext.t_star)
    assert moved[0] == ring.pow(B[0], 11) == rep.frobenius_image(1)
    assert moved[1] == ring.pow(B[1], 11)
    assert time.monotonic() - t0 < 10.0


def test_06_orbit_reduction():
    rep = build_kummer(43, 6)
    fb = build_factor_base(rep, 2)
    polys = list(monic_irreducibles(43, 2))

    # reduced column count stays under half the raw base
    assert fb.ncols <= len(polys) // 2

    # the orbits partition the raw base and sizes divide the field degree
    members = [m.poly.coeffs for o in fb.orbits for m in o.members]
    assert len(members) == len(set(members)) == len(polys)
    assert all(6 % o.size == 0 for o in fb.orbits)
    assert any(o.size == 6 for o in fb.orbits)

    ratio = len(polys) / fb.ncols
    print(f"orbit reduction: {len(polys)} polynomials -> "
          f"{fb.ncols} columns (ratio {ratio:.2f}, degree 6)")


def test_07_end_to_end_dlog():
    rng = random.Random(2024)
    for build, kappa, seed in (
        (lambda: build_kummer(43, 6), 2, 0),
        (lambda: build_torus(13, 7, u_r=8), 2, 1),
    ):
        t0 = time.monotonic()
        rep = build()
        fb, g, relations, table = compute_logs(rep, kappa, seed=seed)
        assert table.verify_all(rep)
        ring = rep.ring
        for i in range(5):
            z = ring.random_el(rng)
            while z.is_zero():
                z = ring.random_el(rng)
            lam = individual_log(rep, fb, table, z, seed=i)
            assert ring.pow(ring.el(g), lam) == ring.el(z)
        assert time.monotonic() - t0 < 60.0


def test_08_intersection_arithmetic():
    rng = random.Random(81)
    for _ in range(100):
        d_f = rng.randrange(1, 40)
        d_g = rng.randrange(1, 40)
        da = NSClassP1P1(d_f, 1)
        db = NSClassP1P1(1, d_g)
        assert intersection_form_p1p1(da, db) == 1 + d_f * d_g

    # the composite polynomial realizes the predicted degree in every setup
    for p, d_f, d_g, d in (
        (43, 3, 2, 6),
        (43, 2, 3, 6),
        (43, 2, 2, 4),
        (43, 3, 3, 9),
        (13, 3, 2, 6),
        (13, 2, 2, 4),
    ):
        setup = jl_setup(p, d_f, d_g, d, seed=0)
        comp = setup.g.compose(setup.f) - Poly([0, 1], p)
        assert comp.degree == d_f * d_g


def test_09_effectivity_linear_systems(ee11):
    t0 = time.monotonic()
    t = ee11.curve.trace()
    rng = random.Random(90)
    checked = 0
    draws = 0
    while checked < 20:
        draws += 1
        assert draws < 400
        xi = EndomorphismElement(rng.randrange(-2, 3), rng.randrange(-1, 2), t, 11)
        c = NSClassEE(rng.randrange(1, 5), rng.randrange(1, 4), xi)
        if xi.norm() == 0 or not effectivity_check(c):
            continue
        lin = linear_system_ee(ee11, c)
        assert len(lin.kernel) >= expected_dimension(c)
        assert len(lin.holdout) == 20
        for vec in lin.kernel:
            fn = lin.function(vec)
            for ops, P, Q in lin.holdout:
                assert ops.is_zero(fn.evaluate(ops, P, Q))
        checked += 1
    assert time.monotonic() - t0 < 60.0


def test_10_sieve_relation_soundness(ee11):
    jl = jl_setup(43, 3, 2, 6, seed=0)
    jl_rels = jl_sieve(jl, 1, 1, 2, 200, seed=0)
    assert jl_rels
    assert all(rel.verify(jl) for rel in jl_rels)
    for rel in jl_rels:
        ratio = rel.ratio(jl)
        assert 1 <= ratio < 43

    cls = NSClassEE(2, 2, EndomorphismElement(1, 0, ee11.curve.trace(), 11))
    restr = EERestriction(ee11, linear_system_ee(ee11, cls), 4)
    ee_rels = ee_sieve(ee11, cls, 4, 200, seed=0, restriction=restr)
    assert ee_rels
    assert all(verify_ee_relation(restr, rel) for rel in ee_rels)


def test_11_property_suites():
    reps = [
        build_kummer(43, 6),
        build_artin_schreier(7),
        build_torus(13, 7, u_r=8),
        build_elliptic_residue(11, 7).rep,
    ]
    rng = random.Random(11)

    for rep in reps:
        ring = rep.ring
        for _ in range(100):
            z = ring.random_el(rng)
            assert apply_frobenius(rep, z) == ring.pow(z, rep.p)

    for rep in reps:
        ring = rep.ring
        pairs = 0
        while pairs < 100:
            z = ring.random_el(rng)
            w = ring.random_el(rng)
            if z.is_zero() or w.is_zero():
                continue
            dz = degree(rep, z)
            dw = degree(rep, w)
            assert degree(rep, apply_frobenius(rep, z)) == dz
            assert degree(rep, ring.mul(z, w)) <= dz + dw
            pairs += 1

    # the conjugates of x multiply back out to the fiber polynomial
    rep = reps[3]
    ring = rep.ring
    prod = [ring.one()]
    for k in range(rep.d):
        c = rep.frobenius_image(k)
        nxt = [ring.zero()] * (len(prod) + 1)
        for i, co in enumerate(prod):
            nxt[i + 1] = ring.add(nxt[i + 1], co)
            nxt[i] = ring.sub(nxt[i], ring.mul(c, co))
        prod = nxt
    assert len(prod) == rep.d + 1
    for i, co in enumerate(prod):
        expect = rep.A.coeffs[i] if i < len(rep.A.coeffs) else 0
        assert co == ring.embed(expect)
