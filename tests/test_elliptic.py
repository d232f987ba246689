"""Tests for curve arithmetic, quotient isogenies, and fiber residue fields."""

import hashlib
import json
import random
import re
import time

import pytest

from frobsieve import elliptic
from frobsieve.elliptic import (
    Curve,
    EndomorphismElement,
    build_elliptic_residue,
    curve_iter,
    curve_search,
    ec_add,
    ec_neg,
    ec_on_curve,
    ec_point_order,
    ec_scalar,
    function_degree,
    interpolate,
    translate_point,
    translate_x,
    velu_quotient,
)
from frobsieve.errors import (
    DegreeNotCompatible,
    InconsistentFrobenius,
    InvalidPoint,
    NotFound,
)
from frobsieve.ffcore import factorize_int, poly_pow_mod
from frobsieve.galoisrep import (
    CurveFrobenius,
    apply_frobenius,
    degree,
    rep_from_json,
    verify_representation,
)


REFERENCE_LONG = (11, 1, 0, 0, 2, 8)  # y^2 + xy = x^3 + 2x + 8


def _count_calls(monkeypatch, module, name):
    """Replace module.name by a wrapper that records each call."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


class TestPointCount:
    def test_reference_curve_has_seven_points(self):
        E = Curve.from_long(*REFERENCE_LONG)
        assert E.point_count() == 7
        assert E.trace() == 5
        assert E.is_ordinary()

    def test_hasse_bound_small_curve(self):
        E = Curve(5, 1, 0)
        n = E.point_count()
        assert (5 + 1 - n) ** 2 <= 4 * 5

    @pytest.mark.parametrize("p,a4,a6", [(11, 2, 7), (13, 1, 1), (17, 3, 5)])
    def test_count_matches_enumeration(self, p, a4, a6):
        E = Curve(p, a4, a6)
        brute = 1 + sum(
            1
            for x in range(p)
            for y in range(p)
            if (y * y - x**3 - a4 * x - a6) % p == 0
        )
        assert E.point_count() == brute
        assert len(E.points()) == brute - 1

    def test_long_form_points_map_to_short_model(self):
        E = Curve.from_long(*REFERENCE_LONG)
        p, a1, a2, a3, a4, a6 = REFERENCE_LONG
        long_points = [
            (x, y)
            for x in range(p)
            for y in range(p)
            if (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6) % p == 0
        ]
        assert len(long_points) == 6  # 7 including infinity
        for P in long_points:
            assert ec_on_curve(E.ops, E.a4, E.a6, E.to_short_point(P))

    def test_singular_rejected(self):
        with pytest.raises(InvalidPoint):
            Curve(11, 0, 0)


class TestCurveSearch:
    def test_order_seven_exists_at_p11(self):
        E = curve_search(11, 7)
        assert E.point_count() == 7
        assert E.trace() % 11 != 0

    def test_supersingular_targets_rejected(self):
        # #E = p+1 forces trace 0; every candidate is skipped
        with pytest.raises(NotFound):
            curve_search(13, 14)

    def test_order_nine_at_p11_verified_by_recount(self):
        E = curve_search(11, 9)
        assert E.point_count() == 9

    def test_deterministic(self):
        assert curve_search(11, 7) == curve_search(11, 7)


class TestGroupLaw:
    def setup_method(self):
        self.E = curve_search(13, 16)
        self.pts = [None] + self.E.points()

    def test_closure_and_commutativity(self):
        E = self.E
        for P in self.pts:
            for Q in self.pts:
                S = ec_add(E.ops, E.a4, P, Q)
                assert ec_on_curve(E.ops, E.a4, E.a6, S)
                assert S == ec_add(E.ops, E.a4, Q, P)

    def test_associativity_exhaustive(self):
        E = self.E
        for P in self.pts:
            for Q in self.pts:
                PQ = ec_add(E.ops, E.a4, P, Q)
                for R in self.pts:
                    left = ec_add(E.ops, E.a4, PQ, R)
                    right = ec_add(E.ops, E.a4, P, ec_add(E.ops, E.a4, Q, R))
                    assert left == right

    def test_inverses(self):
        E = self.E
        for P in self.pts:
            assert ec_add(E.ops, E.a4, P, ec_neg(E.ops, P)) is None

    def test_scalar_and_order(self):
        E = self.E
        n = E.point_count()
        facs = factorize_int(n)
        for P in self.pts[1:]:
            assert ec_scalar(E.ops, E.a4, n, P) is None
            assert n % ec_point_order(E.ops, E.a4, P, n, facs) == 0

    @pytest.mark.parametrize("k", [1, 2, 3, 6, 7, 8, 15, 16, 45, 100])
    def test_scalar_adds_once_per_set_bit_and_lower_bit(self, monkeypatch, k):
        # no doubling after the top bit: popcount(k) + bit_length(k) - 1
        E = self.E
        P = self.pts[1]
        expect = None
        for _ in range(k):
            expect = ec_add(E.ops, E.a4, expect, P)
        calls = _count_calls(monkeypatch, elliptic, "ec_add")
        assert ec_scalar(E.ops, E.a4, k, P) == expect
        assert len(calls) == bin(k).count("1") + k.bit_length() - 1


class TestVelu:
    def setup_method(self):
        self.E = curve_search(11, 7)
        self.gen = self.E.points()[0]

    def test_degree_seven_maps(self):
        iso = velu_quotient(self.E, self.gen)
        assert iso.degree == 7
        assert iso.N_x.degree == 7
        assert iso.N_x.lc() == 1
        assert iso.h.degree == 3  # (d-1)/2

    def test_kernel_maps_to_infinity(self):
        iso = velu_quotient(self.E, self.gen)
        assert iso.apply(None) is None
        for t in iso.kernel_points[1:]:
            assert iso.apply(t) is None

    def test_image_points_on_codomain(self):
        iso = velu_quotient(self.E, self.gen)
        F = iso.codomain
        for P in [None] + self.E.points():
            assert ec_on_curve(F.ops, F.a4, F.a6, iso.apply(P))

    def test_homomorphism_exhaustive(self):
        iso = velu_quotient(self.E, self.gen)
        F = iso.codomain
        pts = [None] + self.E.points()
        for P in pts:
            for Q in pts:
                lhs = iso.apply(ec_add(self.E.ops, self.E.a4, P, Q))
                rhs = ec_add(F.ops, F.a4, iso.apply(P), iso.apply(Q))
                assert lhs == rhs

    def test_kernel_walked_once(self, monkeypatch):
        calls = _count_calls(monkeypatch, elliptic, "ec_add")
        iso = velu_quotient(self.E, self.gen)
        assert len(calls) == iso.degree - 1
        assert iso.kernel_points == [
            ec_scalar(self.E.ops, self.E.a4, k, self.gen) for k in range(iso.degree)
        ]

    def test_residue_subgroup_is_the_kernel(self):
        ext = build_elliptic_residue(11, 7)
        E, T = ext.curve, ext.subgroup[1]
        assert ext.subgroup == [ec_scalar(E.ops, E.a4, k, T) for k in range(7)]
        assert ext.subgroup == ext.isogeny.kernel_points

    def test_degree_three_toy(self):
        # a curve over F_13 with a rational 3-torsion point
        E = None
        for cand_order in range(8, 21):
            if cand_order % 3 != 0:
                continue
            for crv in curve_iter(13, cand_order):
                facs = factorize_int(cand_order)
                for P in crv.points():
                    if ec_point_order(crv.ops, crv.a4, P, cand_order, facs) == 3:
                        E, t = crv, P
                        break
                if E:
                    break
            if E:
                break
        assert E is not None
        iso = velu_quotient(E, t)
        assert iso.degree == 3
        for P in [None] + E.points():
            shifted = ec_add(E.ops, E.a4, P, t)
            assert iso.apply(P) == iso.apply(shifted)

    def test_even_order_kernel_rejected(self):
        E = curve_search(13, 16)
        n = E.point_count()
        facs = factorize_int(n)
        two = next(
            P for P in E.points()
            if ec_point_order(E.ops, E.a4, P, n, facs) == 2
        )
        with pytest.raises(DegreeNotCompatible):
            velu_quotient(E, two)


class TestResidueField:
    def setup_method(self):
        self.ext = build_elliptic_residue(11, 7)

    def test_build_under_ten_seconds(self):
        t0 = time.time()
        ext = build_elliptic_residue(11, 7)
        assert time.time() - t0 < 10.0
        assert ext.rep.A.degree == 7

    def test_fiber_polynomial_irreducible(self):
        from frobsieve.ffcore import is_irreducible

        assert is_irreducible(self.ext.rep.A)

    def test_point_satisfies_curve_equation(self):
        ext = self.ext
        ring = ext.ring
        x, Y = ext.point()
        rhs = ring.add(
            ring.mul(ring.mul(x, x), x),
            ring.add(
                ring.mul(ring.embed(ext.curve.a4), x), ring.embed(ext.curve.a6)
            ),
        )
        assert ring.mul(Y, Y) == rhs

    def test_frobenius_is_kernel_translation(self):
        ext = self.ext
        assert ext.t_star in ext.subgroup
        xp = poly_pow_mod(ext.ring.x(), 11, ext.rep.A)
        assert translate_x(ext, ext.t_star) == xp

    def test_translate_by_identity(self):
        assert translate_x(self.ext, None) == self.ext.ring.x()

    def test_fiber_product_identity(self):
        ext = self.ext
        ring = ext.ring
        conjugates = [translate_x(ext, t) if t else ring.x() for t in ext.subgroup]
        # expand prod (Z - conj) in L[Z]; must reproduce A over F_p
        coeffs = [ring.one()]
        for v in conjugates:
            nxt = [ring.zero()] * (len(coeffs) + 1)
            for i, cf in enumerate(coeffs):
                nxt[i + 1] = ring.add(nxt[i + 1], cf)
                nxt[i] = ring.sub(nxt[i], ring.mul(cf, v))
            coeffs = nxt
        for i, cf in enumerate(coeffs):
            expect = ext.rep.A.coeffs[i] if i < len(ext.rep.A.coeffs) else 0
            assert cf == ring.embed(expect)

    def test_translation_compatible_with_group(self):
        ext = self.ext
        E = ext.curve
        B = ext.point()
        for t1 in ext.subgroup:
            for t2 in ext.subgroup:
                t12 = ec_add(E.ops, E.a4, t1, t2)
                one_step = translate_point(ext, B, t12)
                two_step = translate_point(ext, translate_point(ext, B, t1), t2)
                assert one_step == two_step

    def test_apply_frobenius_matches_powers(self):
        ext = self.ext
        rng = random.Random(6)
        for _ in range(25):
            z = ext.ring.random_el(rng)
            k = rng.randrange(7)
            assert apply_frobenius(ext.rep, z, k) == ext.ring.pow(z, 11**k)

    def test_p13_d5_pipeline(self):
        ext = build_elliptic_residue(13, 5)
        assert ext.rep.A.degree == 5
        xp = poly_pow_mod(ext.ring.x(), 13, ext.rep.A)
        assert translate_x(ext, ext.t_star) == xp

    def test_target_is_affine(self):
        # the scan never proposes the identity of the codomain, whose fiber
        # would be the (split) kernel
        assert self.ext.target is not None
        assert len(self.ext.target) == 2

    def test_even_degree_rejected(self):
        with pytest.raises(DegreeNotCompatible):
            build_elliptic_residue(11, 4)


class TestFunctionDegree:
    def setup_method(self):
        self.ext = build_elliptic_residue(11, 7)

    def test_constants_are_degree_zero(self):
        for c in (1, 5, 10):
            assert function_degree(self.ext, self.ext.ring.embed(c)) == 0

    def test_coordinate_is_degree_two(self):
        assert function_degree(self.ext, self.ext.ring.x()) == 2

    def test_y_is_degree_three(self):
        assert function_degree(self.ext, self.ext.Y) == 3

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            function_degree(self.ext, self.ext.ring.zero())

    def test_interpolation_certificate(self):
        ext = self.ext
        ring = ext.ring
        rng = random.Random(9)
        for _ in range(10):
            z = ring.random_el(rng)
            if z.is_zero():
                continue
            k = function_degree(ext, z)
            cert = interpolate(ext, z, k)
            assert cert is not None
            assert not cert.den.is_zero()
            assert cert.num == ring.mul(z, cert.den)
            if k > 0:
                assert interpolate(ext, z, k - 1) is None

    def test_invariance_under_frobenius(self):
        ext = self.ext
        rng = random.Random(31)
        for _ in range(20):
            z = ext.ring.random_el(rng)
            if z.is_zero():
                continue
            img = apply_frobenius(ext.rep, z, 1)
            assert function_degree(ext, z) == function_degree(ext, img)

    def test_subadditive(self):
        ext = self.ext
        ring = ext.ring
        rng = random.Random(41)
        for _ in range(15):
            z = ring.random_el(rng)
            w = ring.random_el(rng)
            if z.is_zero() or w.is_zero():
                continue
            dzw = function_degree(ext, ring.mul(z, w))
            assert dzw <= function_degree(ext, z) + function_degree(ext, w)

    def test_x_squared_subadditive_tight(self):
        ext = self.ext
        ring = ext.ring
        x2 = ring.mul(ring.x(), ring.x())
        assert function_degree(ext, x2) <= 4

    def test_degrees_bounded_by_riemann_roch(self):
        # 2k basis columns against d coordinates force success by k = 4
        ext = self.ext
        rng = random.Random(55)
        for _ in range(20):
            z = ext.ring.random_el(rng)
            if z.is_zero():
                continue
            assert function_degree(ext, z) <= 4


class TestEndomorphismRing:
    def mk(self, m, n):
        return EndomorphismElement(m, n, 5, 11)

    def test_reference_norm(self):
        assert self.mk(2, -1).norm() == 5  # 4 - 10 + 11

    def test_characteristic_equation(self):
        phi = self.mk(0, 1)
        assert (phi * phi - 5 * phi + self.mk(11, 0)).is_zero()

    def test_norm_multiplicative(self):
        rng = random.Random(77)
        for _ in range(50):
            a = self.mk(rng.randrange(-9, 10), rng.randrange(-9, 10))
            b = self.mk(rng.randrange(-9, 10), rng.randrange(-9, 10))
            assert (a * b).norm() == a.norm() * b.norm()

    def test_norm_is_self_times_conjugate(self):
        rng = random.Random(78)
        for _ in range(30):
            a = self.mk(rng.randrange(-9, 10), rng.randrange(-9, 10))
            prod = a * a.conj()
            assert prod.n == 0
            assert prod.m == a.norm()

    def test_trace(self):
        assert self.mk(3, 2).trace() == 6 + 10

    def test_exact_division(self):
        a = self.mk(2, -1)
        b = self.mk(3, 4)
        assert (a * b).exact_divide(a) == b
        assert (a * b).exact_divide(b) == a
        # 1 is not divisible by something of norm 5
        assert self.mk(1, 0).exact_divide(a) is None

    def test_apply_on_rational_points(self):
        E = curve_search(11, 7)
        xi = self.mk(2, -1)
        for P in E.points():
            # phi fixes rational points, so 2 - phi acts as multiplication by 1
            img = xi.apply(E.ops, E.a4, P, lambda Q: Q)
            assert img == P


class TestJson:
    def test_residue_rep_serializes(self):
        ext = build_elliptic_residue(11, 7)
        data = ext.to_json()
        assert data["kind"] == "elliptic-residue"
        assert len(data["A"]) == 8
        assert data["isogeny"]["degree"] == 7

    def test_residue_rep_pinned(self):
        # sha256 of the stored form as the builder wrote it when it still
        # patched a placeholder Representation after finding t*
        text = json.dumps(build_elliptic_residue(11, 7).to_json(), sort_keys=True)
        assert (hashlib.sha256(text.encode()).hexdigest()
                == "8827c022b12628f7581291f14639784445bcdd1951ac095ebd5587789ac93dd3")

    @pytest.mark.parametrize("k", [0, 2, 3, 6])
    def test_corrupted_image_detected(self, k):
        # image 1 is x^p itself; every image is compared with the build's,
        # whose chain the builder checks
        data = json.loads(json.dumps(build_elliptic_residue(11, 7).to_json()))
        images = data["frobenius"]["images"]
        images[k] = [(c + 1) % 11 for c in images[k]]
        with pytest.raises(InconsistentFrobenius,
                           match=re.escape(f"field 'frobenius.images[{k}]' is ")):
            rep_from_json(data)

    def test_builder_checks_the_image_chain(self, monkeypatch):
        # build_elliptic_residue runs verify_representation, so a wrong
        # image k >= 2 out of the fiber scan is refused at build time
        class OffByOne(CurveFrobenius):
            def __init__(self, images):
                images = list(images)
                images[3] = images[3] + 1
                super().__init__(images)

        monkeypatch.setattr(elliptic, "CurveFrobenius", OffByOne)
        with pytest.raises(InconsistentFrobenius, match="stored image 3 "):
            build_elliptic_residue(11, 7)

    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda d: d["params"].update(t_star=[6, 2]), "params.t_star"),
            (lambda d: d.update(t_star=[6, 2]), "t_star"),
            (lambda d: d["params"].update(a6=8), "params.a6"),
            (lambda d: d["curve"].update(coeffs_short=[3, 7]), "curve.coeffs_short"),
        ],
        ids=["params-t_star", "t_star", "params-a6", "curve-a4"],
    )
    def test_second_copies_cross_checked(self, edit, name):
        # a4, a6 and t* are stored in params and again in curve and t_star;
        # each copy is compared with the build from (p, d)
        data = json.loads(json.dumps(build_elliptic_residue(11, 7).to_json()))
        assert verify_representation(rep_from_json(data)) is None
        edit(data)
        with pytest.raises(InconsistentFrobenius, match=re.escape(f"field '{name}' is ")):
            rep_from_json(data)

    def test_loaded_rep_carries_its_curve(self):
        ext = build_elliptic_residue(11, 7)
        data = json.loads(json.dumps(ext.to_json()))
        rep = rep_from_json(data)
        assert rep.ext is not None and rep.ext.rep is rep
        assert (rep.ext.curve, rep.ext.t_star, rep.ext.Y) == (ext.curve, ext.t_star, ext.Y)
        assert rep.to_json() == ext.to_json()
        del data["t_star"]
        with pytest.raises(InconsistentFrobenius, match="field 't_star' is missing"):
            rep_from_json(data)

    def test_degree_on_loaded_rep(self):
        # the loaded rep is the build, so its filtration degree needs no
        # second model
        ext = build_elliptic_residue(11, 7)
        rep = rep_from_json(json.loads(json.dumps(ext.to_json())))
        rng = random.Random(5)
        for _ in range(6):
            z = rep.ring.random_el(rng)
            if not z.is_zero():
                assert degree(rep, z) == function_degree(ext, z)
        assert degree(rep, rep.ring.x()) == 2

    def test_missing_image_detected(self):
        data = json.loads(json.dumps(build_elliptic_residue(11, 7).to_json()))
        data["frobenius"]["images"].pop()
        with pytest.raises(InconsistentFrobenius,
                           match=re.escape("field 'frobenius.images[6]' is missing")):
            rep_from_json(data)
