"""Tests for the structured field models and their Frobenius orbits."""

import hashlib
import itertools
import json
import random
import re

import pytest

from frobsieve import galoisrep
from frobsieve.errors import (
    DegreeNotCompatible,
    InconsistentFrobenius,
    InvalidPoint,
)
from frobsieve.ffcore import Poly, monic_irreducibles
from frobsieve.galoisrep import (
    NEUTRAL,
    HomographyFrobenius,
    apply_frobenius,
    build_artin_schreier,
    build_kummer,
    build_torus,
    degree,
    frobenius_orbit,
    frobenius_step,
    orbit_partition,
    rep_from_json,
    torus_add,
    torus_check,
    torus_is_neutral,
    torus_neg,
    torus_normalize,
    torus_order,
    torus_scalar,
    torus_u,
)
from frobsieve.indexcalc import build_factor_base


def orbit_identity_oracle(rep, orb):
    """Every member must satisfy
    q_j(x) = anchor(x)^{p^j} * scalar^{-1} * (x+tau)^{ker_weight}
    in the field, and the closure relation must evaluate to a constant."""
    ring = rep.ring
    anchor = ring.el(orb.anchor)
    tau = rep.params.get("tau")
    for mem in orb.members:
        rhs = ring.pow(anchor, rep.p ** mem.shift)
        rhs = ring.mul(rhs, ring.embed(pow(mem.scalar, -1, rep.p)))
        if mem.ker_weight:
            rhs = ring.mul(rhs, ring.pow(ring.el([tau, 1]), mem.ker_weight))
        assert ring.el(mem.poly) == rhs
    if orb.is_kernel:
        lhs = ring.pow(ring.el([tau, 1]), orb.closure_exponent)
        assert lhs == ring.embed(orb.closure_scalar)
    else:
        lhs = ring.pow(anchor, rep.p ** orb.size - 1)
        if orb.closure_ker_weight:
            lhs = ring.mul(lhs, ring.pow(ring.el([tau, 1]), orb.closure_ker_weight))
        assert lhs == ring.embed(orb.closure_scalar)


def reference_step(rep, q):
    """The orbit step by column sums: the X^j coefficient of the numerator
    sum_i q_i (aX + b)^i (cX + d)^(n-i) is the sum over i of q_i times
    the X^j coefficient of the i-th power, each power built by Poly
    products; then (monic numerator, top coefficient), or (None, the
    constant) when the numerator drops degree."""
    p, n = rep.p, q.degree
    a, b, c, d = rep.frobenius.matrix
    powers = []
    for i in range(n + 1):
        term = rep.field.poly([1])
        for factor in [rep.field.poly([b, a])] * i + [rep.field.poly([d, c])] * (n - i):
            term = term * factor
        powers.append(term.coeffs + (0,) * (n + 1 - len(term.coeffs)))
    acc = [sum(qi * power[j] for qi, power in zip(q.coeffs, powers)) for j in range(n + 1)]
    s = acc[-1] % p
    if s == 0:
        return None, Poly(acc, p).constant_value()
    return Poly([v * pow(s, -1, p) for v in acc], p), s


# ---------------------------------------------------------------------------
# Builders.


class TestKummer:
    def test_small_field(self):
        rep = build_kummer(43, 6)
        assert rep.params["r"] == 3
        assert rep.params["zeta"] == 37
        assert rep.A.to_list() == [40, 0, 0, 0, 0, 0, 1]
        ring = rep.ring
        assert ring.pow(ring.x(), 43) == ring.el([0, 37])

    def test_large_field(self):
        rep = build_kummer(370801, 30)
        assert rep.params["r"] == 17
        assert rep.params["zeta"] == 172960
        assert rep.order() == 370801**30 - 1

    def test_degree_one(self):
        rep = build_kummer(43, 1)
        assert rep.A.degree == 1

    def test_incompatible_degree(self):
        with pytest.raises(DegreeNotCompatible):
            build_kummer(43, 5)  # 5 does not divide 42

    def test_rejects_non_primitive_root(self):
        # 4 is a square mod 43, never primitive
        with pytest.raises(ValueError):
            build_kummer(43, 6, r=4)

    def test_explicit_primitive_root(self):
        rep = build_kummer(43, 6, r=5)
        assert rep.params["r"] == 5
        assert rep.ring.pow(rep.ring.x(), 43) == rep.ring.el([0, rep.params["zeta"]])


class TestArtinSchreier:
    def test_p7(self):
        rep = build_artin_schreier(7)
        assert rep.d == 7
        assert rep.A.to_list() == [6, 6, 0, 0, 0, 0, 0, 1]
        ring = rep.ring
        assert ring.pow(ring.x(), 7) == ring.el([1, 1])

    def test_p13(self):
        rep = build_artin_schreier(13)
        assert rep.d == 13
        assert rep.ring.pow(rep.ring.x(), 13) == rep.ring.el([1, 1])

    def test_zero_a_rejected(self):
        with pytest.raises(ValueError):
            build_artin_schreier(7, a=7)


class TestTorus:
    def test_explicit_base_point(self):
        rep = build_torus(13, 7, u_r=8)
        assert rep.params["D"] == 2
        assert rep.params["tau"] == 4
        assert rep.A.to_list() == [1, 4, 4, 10, 12, 3, 9, 1]
        # x^13 * (x + 4) == 4x + 2 in the field
        ring = rep.ring
        lhs = ring.mul(ring.pow(ring.x(), 13), ring.el([4, 1]))
        assert lhs == ring.el([2, 4])

    def test_default_scan_picks_full_order_generator(self):
        rep = build_torus(13, 7)
        u_r = rep.params["u_r"]
        D = rep.params["D"]
        facs = {ell: 1 for ell in (2, 7)}
        assert torus_order((u_r, 1), D, 13, facs) == 14

    def test_explicit_point_needs_order_d_translation(self):
        # [0:1] has order 2, so [-2][0:1] is neutral, never order 7
        with pytest.raises(ValueError):
            build_torus(13, 7, u_r=0)

    def test_incompatible_degree(self):
        with pytest.raises(DegreeNotCompatible):
            build_torus(13, 5)  # 5 does not divide 14
        with pytest.raises(DegreeNotCompatible):
            build_torus(2, 3)

    def test_degree_two(self):
        rep = build_torus(13, 2)
        assert rep.A.degree == 2
        ring = rep.ring
        tau = rep.params["tau"]
        D = rep.params["D"]
        lhs = ring.mul(ring.pow(ring.x(), 13), ring.el([tau, 1]))
        assert lhs == ring.el([D, tau])

    def test_small_odd_prime(self):
        rep = build_torus(5, 3)
        assert rep.A.degree == 3


# ---------------------------------------------------------------------------
# Torus point arithmetic.


class TestTorusGroup:
    p = 13
    D = 2  # non-square mod 13

    def all_points(self):
        return [(u, 1) for u in range(self.p)] + [NEUTRAL]

    def test_group_size(self):
        # D non-square: every [u:1] and the neutral are admissible
        pts = self.all_points()
        assert len(pts) == self.p + 1
        for P in pts:
            torus_check(P, self.D, self.p)

    def test_degenerate_points_rejected(self):
        with pytest.raises(InvalidPoint):
            torus_check((0, 0), self.D, self.p)
        # U^2 = D V^2 with V != 0 needs D to be a square; 3 is one mod 13
        with pytest.raises(InvalidPoint):
            torus_check((4, 1), 3, self.p)

    def test_neutral_and_inverses(self):
        for P in self.all_points():
            assert torus_normalize(torus_add(P, NEUTRAL, self.D, self.p), self.p) == torus_normalize(P, self.p)
            s = torus_add(P, torus_neg(P, self.p), self.D, self.p)
            assert torus_is_neutral(s, self.p)

    def test_commutative_exhaustive(self):
        pts = self.all_points()
        for P in pts:
            for Q in pts:
                a = torus_add(P, Q, self.D, self.p)
                b = torus_add(Q, P, self.D, self.p)
                assert torus_normalize(a, self.p) == torus_normalize(b, self.p)

    def test_associative_exhaustive(self):
        pts = self.all_points()
        for P in pts:
            for Q in pts:
                PQ = torus_add(P, Q, self.D, self.p)
                for R in pts:
                    left = torus_add(PQ, R, self.D, self.p)
                    right = torus_add(P, torus_add(Q, R, self.D, self.p), self.D, self.p)
                    assert torus_normalize(left, self.p) == torus_normalize(right, self.p)

    def test_cyclic_of_order_p_plus_one(self):
        facs = {2: 1, 7: 1}
        orders = [torus_order(P, self.D, self.p, facs) for P in self.all_points()]
        assert max(orders) == self.p + 1
        for n in orders:
            assert (self.p + 1) % n == 0
        # cyclic: exactly phi(14) = 6 generators
        assert orders.count(self.p + 1) == 6

    def test_scalar_matches_repeated_addition(self):
        P = (2, 1)
        acc = NEUTRAL
        for k in range(1, 30):
            acc = torus_add(acc, P, self.D, self.p)
            assert torus_normalize(torus_scalar(k, P, self.D, self.p), self.p) == torus_normalize(acc, self.p)

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 8, 15, 16, 45, 100])
    def test_scalar_adds_once_per_set_bit_and_lower_bit(self, monkeypatch, k):
        # no doubling after the top bit: popcount(k) + bit_length(k) - 1
        calls = []

        def counted(*args):
            calls.append(args)
            return torus_add(*args)

        monkeypatch.setattr(galoisrep, "torus_add", counted)
        P = (2, 1)
        expect = NEUTRAL
        for _ in range(k):
            expect = torus_add(expect, P, self.D, self.p)
        assert torus_normalize(torus_scalar(k, P, self.D, self.p), self.p) == torus_normalize(expect, self.p)
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1

    def test_negative_scalar(self):
        P = (2, 1)
        for k in range(1, 15):
            a = torus_scalar(-k, P, self.D, self.p)
            b = torus_neg(torus_scalar(k, P, self.D, self.p), self.p)
            assert torus_normalize(a, self.p) == torus_normalize(b, self.p)

    def test_affine_coordinate(self):
        assert torus_u(NEUTRAL, self.p) is None
        assert torus_u((24, 2), self.p) == 12


# ---------------------------------------------------------------------------
# Frobenius application.


class TestApplyFrobenius:
    def test_exhaustive_torus_quadratic(self):
        rep = build_torus(13, 2)
        for z in rep.ring.elements():
            assert apply_frobenius(rep, z, 1) == rep.ring.pow(z, 13)

    def test_exhaustive_kummer_cubic(self):
        rep = build_kummer(7, 3)
        for z in rep.ring.elements():
            assert apply_frobenius(rep, z, 1) == rep.ring.pow(z, 7)

    def test_exhaustive_artin_schreier_p3(self):
        rep = build_artin_schreier(3)
        for z in rep.ring.elements():
            assert apply_frobenius(rep, z, 1) == rep.ring.pow(z, 3)

    @pytest.mark.parametrize(
        "rep",
        [
            build_kummer(43, 6),
            build_artin_schreier(7),
            build_torus(13, 7, u_r=8),
            build_torus(5, 3),
        ],
        ids=["kummer-43-6", "as-7", "torus-13-7", "torus-5-3"],
    )
    def test_random_elements_match_powering(self, rep):
        rng = random.Random(2024)
        for _ in range(30):
            z = rep.ring.random_el(rng)
            k = rng.randrange(2 * rep.d)
            assert apply_frobenius(rep, z, k) == rep.ring.pow(z, rep.p ** (k % rep.d))

    def test_composition(self):
        rep = build_torus(13, 7, u_r=8)
        rng = random.Random(5)
        for _ in range(20):
            z = rep.ring.random_el(rng)
            i, j = rng.randrange(7), rng.randrange(7)
            assert apply_frobenius(rep, apply_frobenius(rep, z, i), j) == \
                apply_frobenius(rep, z, i + j)

    def test_fixed_field_is_prime_field(self):
        rep = build_kummer(43, 6)
        for c in range(0, 43, 7):
            z = rep.ring.embed(c)
            assert apply_frobenius(rep, z, 1) == z


# ---------------------------------------------------------------------------
# Orbits.


class TestOrbits:
    def test_kummer_orbit_of_x(self):
        rep = build_kummer(43, 6)
        orb = frobenius_orbit(rep, rep.field.x())
        assert orb.size == 1
        assert not orb.is_kernel
        # closure: x^{p-1} = zeta
        assert orb.closure_scalar == rep.params["zeta"]
        orbit_identity_oracle(rep, orb)

    def test_kummer_degree_one_orbits_have_size_d(self):
        rep = build_kummer(43, 6)
        orb = frobenius_orbit(rep, rep.field.poly([-2, 1]))
        assert orb.size == 6
        orbit_identity_oracle(rep, orb)

    @pytest.mark.parametrize("p", [2, 3, 7, 13])
    def test_step_matches_column_sums(self, p):
        # every monic polynomial of degree 1-3, irreducible or not, under
        # the Kummer, Artin-Schreier and torus matrices over F_p.  The
        # torus step degenerates at X - a/c, and only there; its proper
        # multiples, which no walk meets, have no step
        reps = [build_kummer(p, max(p - 1, 1)), build_artin_schreier(p)]
        if p > 2:
            reps.append(build_torus(p, p + 1))
        for rep in reps:
            a, _b, c, _d = rep.frobenius.matrix
            pole = a * pow(c, -1, p) % p if c else None
            degenerate = []
            for n in (1, 2, 3):
                for low in itertools.product(range(p), repeat=n):
                    q = Poly(list(low) + [1], p)
                    if n > 1 and pole is not None and q(pole) == 0:
                        continue
                    step = frobenius_step(rep, q)
                    assert step == reference_step(rep, q), (rep, q)
                    if step[0] is None:
                        degenerate.append(q)
            assert degenerate == ([Poly([-pole, 1], p)] if c else []), rep

    @pytest.mark.parametrize("low", [[0, 1], [0, 2], [2, 0], [1, 2]])
    def test_reducible_through_the_pole_rejected(self, low):
        # at build_torus(3, 4) a/c = 2: x^2 + x, x^2 + 2 and (x + 1)^2 have
        # that root, and x^2 + 2x walks to x^2 + x in one step
        rep = build_torus(3, 4)
        a, _b, c, _d = rep.frobenius.matrix
        assert a * pow(c, -1, 3) % 3 == 2
        q = Poly(low + [1], 3)
        with pytest.raises(ValueError, match="is not irreducible"):
            frobenius_orbit(rep, q)

    @pytest.mark.parametrize("build", [lambda p: build_kummer(p, 3), lambda p: build_torus(p, 4)],
                             ids=["kummer", "torus"])
    def test_step_exact_at_a_32_bit_prime(self, build):
        # at p = 2^32 + 15 a degree-3 step sums four products near 2^64 in
        # a slot: the orbits of random monic polynomials with coefficients
        # in [0, p) must follow the column sums member by member
        p = 2 ** 32 + 15
        rep = build(p)
        rng = random.Random(32)
        for n in (1, 2, 3) * 6:
            q = Poly([rng.randrange(p) for _ in range(n)] + [1], p)
            orb = frobenius_orbit(rep, q)
            succs = [mem.poly for mem in orb.members[1:]] + [None if orb.is_kernel else orb.anchor]
            scalars = [mem.scalar for mem in orb.members[1:]] + [orb.closure_scalar]
            for mem, succ, scalar in zip(orb.members, succs, scalars):
                ref, s = reference_step(rep, mem.poly)
                assert ref == succ
                assert mem.scalar * s % p == scalar

    def test_kummer_partition_counts(self):
        rep = build_kummer(43, 6)
        polys = list(monic_irreducibles(43, 2))
        assert len(polys) == 946
        orbits = orbit_partition(rep, polys)
        assert len(orbits) == 162
        assert sum(o.size for o in orbits) == 946
        assert all(rep.d % o.size == 0 for o in orbits)
        assert any(o.size == 6 for o in orbits)
        # partition: no polynomial in two orbits
        seen = set()
        for o in orbits:
            for q in (mem.poly for mem in o.members):
                assert q.coeffs not in seen
                seen.add(q.coeffs)

    def test_kummer_orbit_identities_all(self):
        rep = build_kummer(43, 6)
        for o in orbit_partition(rep, monic_irreducibles(43, 2)):
            orbit_identity_oracle(rep, o)

    def test_artin_schreier_orbits(self):
        rep = build_artin_schreier(7)
        orbits = orbit_partition(rep, monic_irreducibles(7, 2))
        assert sum(o.size for o in orbits) == 7 + 21
        assert all(rep.d % o.size == 0 for o in orbits)
        for o in orbits:
            orbit_identity_oracle(rep, o)

    def test_torus_kernel_orbit(self):
        rep = build_torus(13, 7, u_r=8)
        tau = rep.params["tau"]
        orb = frobenius_orbit(rep, rep.field.poly([tau, 1]))
        assert orb.is_kernel
        assert orb.size == 6
        assert orb.full_size == 7
        got = {m.poly.to_list()[0] for m in orb.members}
        assert got == {4, 12, 8, 5, 1, 9}
        orbit_identity_oracle(rep, orb)

    def test_torus_kernel_reanchored_from_any_member(self):
        rep = build_torus(13, 7, u_r=8)
        orb = frobenius_orbit(rep, rep.field.poly([1, 1]))  # X+1 sits mid-orbit
        assert orb.is_kernel
        assert orb.anchor.to_list() == [4, 1]

    def test_torus_partition(self):
        rep = build_torus(13, 7, u_r=8)
        orbits = orbit_partition(rep, monic_irreducibles(13, 2))
        kernels = [o for o in orbits if o.is_kernel]
        assert len(kernels) == 1
        assert kernels[0].full_size == 7
        for o in orbits:
            assert rep.d % o.full_size == 0
            orbit_identity_oracle(rep, o)

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: build_kummer(43, 6),
             "8c3f4ea2882ce9c1412b44bb9a376bffd8a2029d1f6dfe06f45fbaca1b95cbbc"),
            (lambda: build_torus(13, 7, u_r=8),
             "9b1d3a8999f2802cef6eecf21c88a9de9d3d2e52437a80b0a45901abc8d12bbd"),
            (lambda: build_torus(13, 7),
             "e72b49453b500cc11a6c900109705ccdce7ae8b10da61a2e403c10e490cb5ad0"),
            (lambda: build_artin_schreier(7),
             "9c1c6297d3b6e5c2226ee86d507ec34c7a774624f42684672c9b2a11e6a76281"),
        ],
        ids=["kummer-43x6", "torus-13x7-u8", "torus-13x7", "artin-schreier-7"],
    )
    def test_partition_pinned(self, build, digest):
        # sha256 of every orbit at kappa = 2 (members, shifts, scalars,
        # kernel weights, closure), as the filter-and-double-walk code and
        # the per-kind orbit steps computed it
        rep = build()
        rows = [(o.is_kernel, o.closure_scalar, o.closure_ker_weight, o.closure_exponent,
                 tuple((m.poly.coeffs, m.shift, m.scalar, m.ker_weight) for m in o.members))
                for o in orbit_partition(rep, monic_irreducibles(rep.p, 2))]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == digest

    def test_torus_41x7_orbit_identities(self):
        rep = build_torus(41, 7)
        orbits = orbit_partition(rep, monic_irreducibles(41, 2))
        assert sum(o.is_kernel for o in orbits) == 1
        assert sum(o.size for o in orbits) == 41 + (41 * 41 - 41) // 2
        for o in orbits:
            assert rep.d % o.full_size == 0
            orbit_identity_oracle(rep, o)

    @pytest.mark.parametrize(
        "build",
        [lambda: build_kummer(43, 6), lambda: build_artin_schreier(7),
         lambda: build_torus(13, 7)],
        ids=["kummer", "artin-schreier", "torus"],
    )
    def test_walk_reads_only_the_matrix(self, build):
        # params are build provenance; the orbits and their closure rows
        # come from the Frobenius matrix alone
        rep = build()
        before = build_factor_base(rep, 2).free_relations()
        rep.params.clear()
        rep._step_basis.clear()
        assert build_factor_base(rep, 2).free_relations() == before

    def test_free_relation_shape(self):
        # the member identity log q_j = p^j log q_0 - log s + w log(x+tau)
        # is what makes one unknown per orbit enough; spot-check that the
        # multiplicative form holds for a degree-2 torus orbit
        rep = build_torus(13, 7, u_r=8)
        q = next(q for q in monic_irreducibles(13, 2) if q.degree == 2)
        orb = frobenius_orbit(rep, q)
        ring = rep.ring
        for mem in orb.members[1:]:
            prev_pow = ring.pow(ring.el(orb.anchor), 13 ** mem.shift)
            expected = ring.mul(
                ring.mul(prev_pow, ring.embed(pow(mem.scalar, -1, 13))),
                ring.pow(ring.el([4, 1]), mem.ker_weight),
            )
            assert ring.el(mem.poly) == expected


# ---------------------------------------------------------------------------
# Degree filtration.


class TestDegree:
    def test_polynomial_models_use_poly_degree(self):
        rep = build_kummer(43, 6)
        rng = random.Random(11)
        for _ in range(50):
            z = rep.ring.random_el(rng)
            if z.is_zero():
                continue
            assert degree(rep, z) == max(z.degree, 0)

    def test_zero_rejected(self):
        rep = build_kummer(43, 6)
        with pytest.raises(ValueError):
            degree(rep, rep.ring.zero())

    def test_torus_constants_and_coordinate(self):
        rep = build_torus(13, 7, u_r=8)
        assert degree(rep, rep.ring.embed(1)) == 0
        assert degree(rep, rep.ring.embed(12)) == 0
        assert degree(rep, rep.ring.x()) == 1

    def test_torus_reciprocal_of_linear_is_degree_one(self):
        rep = build_torus(13, 7, u_r=8)
        z = rep.ring.inv(rep.ring.el([3, 1]))
        assert degree(rep, z) == 1

    def test_torus_degree_bounded(self):
        rep = build_torus(13, 7, u_r=8)
        rng = random.Random(3)
        degs = set()
        for _ in range(100):
            z = rep.ring.random_el(rng)
            if z.is_zero():
                continue
            k = degree(rep, z)
            assert 0 <= k <= 3
            degs.add(k)
        assert 3 in degs  # generic elements hit the ceiling

    def test_frobenius_invariance(self):
        for rep in (build_torus(13, 7, u_r=8), build_kummer(43, 6)):
            rng = random.Random(17)
            for _ in range(40):
                z = rep.ring.random_el(rng)
                if z.is_zero():
                    continue
                assert degree(rep, apply_frobenius(rep, z, 1)) == degree(rep, z)

    def test_torus_subadditive(self):
        rep = build_torus(13, 7, u_r=8)
        ring = rep.ring
        rng = random.Random(23)
        checked = 0
        while checked < 30:
            ka, kb = rng.randrange(2), rng.randrange(2)
            a = ring.el([rng.randrange(13) for _ in range(ka + 1)])
            b = ring.el([rng.randrange(13) for _ in range(kb + 1)])
            if a.is_zero() or b.is_zero():
                continue
            z = ring.mul(a, b)
            assert degree(rep, z) <= degree(rep, a) + degree(rep, b)
            checked += 1


# ---------------------------------------------------------------------------
# Serialization.


class TestJson:
    @pytest.mark.parametrize(
        "rep",
        [build_kummer(43, 6), build_artin_schreier(7), build_torus(13, 7, u_r=8)],
        ids=["kummer", "artin-schreier", "torus"],
    )
    def test_roundtrip(self, rep):
        data = json.loads(json.dumps(rep.to_json()))
        back = rep_from_json(data)
        assert back.kind == rep.kind
        assert back.A == rep.A
        assert back.frobenius_image(1) == rep.frobenius_image(1)
        assert back.to_json() == data

    @pytest.mark.parametrize(
        "build, digest",
        [
            (lambda: build_kummer(43, 6),
             "15afe09d9a0ef49d54059f70b3b018e76759938d80703e0a1e907ecd36d5c605"),
            (lambda: build_artin_schreier(7),
             "e692c284bcf7b6455c95c266de5e8a5a398ec07abbccab51832cd1a5f301a720"),
            (lambda: build_torus(13, 7, u_r=8),
             "a2527a465414c91664d35bbf7edf5de477dad6de0229fdc8171f217340966b52"),
        ],
        ids=["kummer-43x6", "artin-schreier-7", "torus-13x7-u8"],
    )
    def test_to_json_pinned(self, build, digest):
        # sha256 of the stored form as the per-kind Frobenius classes wrote it
        text = json.dumps(build().to_json(), sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_matrix_normalised(self):
        # one projective matrix, whatever scalar it is given with
        a = HomographyFrobenius(3 * 4, 3 * 2, 3, 3 * 4, 13)
        assert a.matrix == (4, 2, 1, 4)
        assert a.to_json() == {"variant": "homography", "tau": 4, "D": 2}
        b = HomographyFrobenius(5 * 7, 0, 0, 5, 43)
        assert b.matrix == (7, 0, 0, 1)
        assert b.to_json() == {"variant": "affine", "u": 7, "v": 0}
        with pytest.raises(ValueError, match="a = d"):
            HomographyFrobenius(1, 2, 1, 3, 13).to_json()

    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda d: d.pop("frobenius"), "field 'frobenius'"),
            (lambda d: d["frobenius"].pop("u"), "field 'frobenius.u'"),
            (lambda d: d["frobenius"].update(variant="curve-translation"),
             "field 'frobenius.variant'"),
            (lambda d: d.update(p=44), "from p=44,"),
            (lambda d: d.update(d="six"), "field 'd'"),
            (lambda d: d.update(A=[[1]]), "field 'A'"),
            (lambda d: d.update(params=[1, 2]), "field 'params'"),
        ],
        ids=["no-frobenius", "no-u", "curve-variant", "p-composite", "d-text",
             "A-nested", "params-list"],
    )
    def test_malformed_field_named(self, edit, named):
        # a field that differs from the build is named by its path; a
        # builder input that no build accepts is named with its value
        data = json.loads(json.dumps(build_kummer(43, 6).to_json()))
        edit(data)
        with pytest.raises(InconsistentFrobenius, match=re.escape(named)):
            rep_from_json(data)

    def test_modulus_degree_must_be_d(self):
        data = json.loads(json.dumps(build_kummer(43, 6).to_json()))
        data["A"] = [3]
        with pytest.raises(InconsistentFrobenius,
                           match=re.escape("field 'A' is [3] in the file but [40, 0, 0, 0, 0, 0, 1]")):
            rep_from_json(data)

    def test_corrupted_modulus_detected(self):
        rep = build_kummer(43, 6)
        data = rep.to_json()
        data["A"] = list(data["A"])
        data["A"][0] = (data["A"][0] + 1) % 43
        with pytest.raises(InconsistentFrobenius):
            rep_from_json(data)

    @pytest.mark.parametrize(
        "rep, key",
        [
            (build_kummer(43, 6), "zeta"),
            (build_kummer(43, 6), "r"),
            (build_artin_schreier(7), "a"),
            (build_torus(13, 7, u_r=8), "tau"),
            (build_torus(13, 7, u_r=8), "D"),
        ],
        ids=["kummer-zeta", "kummer-r", "artin-schreier-a", "torus-tau", "torus-D"],
    )
    def test_tampered_params_detected(self, rep, key):
        # the Frobenius object and the modulus are left as built; a builder
        # input (r, a) is named with its value, a derived value by its path
        data = json.loads(json.dumps(rep.to_json()))
        data["params"][key] = (data["params"][key] + 1) % rep.p
        with pytest.raises(InconsistentFrobenius, match=rf"params\.{key}\b"):
            rep_from_json(data)

    def test_tampered_frobenius_shift_detected(self):
        # a Kummer Frobenius x^p = zeta x + v with v != 0 fails x^p first
        data = json.loads(json.dumps(build_kummer(43, 6).to_json()))
        data["frobenius"]["v"] = 1
        with pytest.raises(InconsistentFrobenius):
            rep_from_json(data)

    def test_kind_and_variant_must_match(self):
        data = json.loads(json.dumps(build_kummer(43, 6).to_json()))
        data["kind"] = "torus"
        with pytest.raises(InconsistentFrobenius,
                           match=re.escape("no torus representation builds from p=43, d=6:")):
            rep_from_json(data)
