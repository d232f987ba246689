"""Tests for the surface sieves: the rational correspondence and E x E."""

import copy
import hashlib
import itertools
import json
import random

import pytest

from frobsieve.errors import InsufficientPoints, SearchFailed, SieveTimeout
from frobsieve.ffcore import (
    Poly,
    PrimeField,
    QuotientField,
    factor,
    monic_irreducibles,
    poly_gcd,
)
from frobsieve.elliptic import (
    EndomorphismElement,
    build_elliptic_residue,
    ec_add,
    translate_point,
)
from frobsieve.sieve2d import (
    BivariatePoly,
    EERestriction,
    FuncFieldOps,
    JLSetup,
    NSClassEE,
    NSClassP1P1,
    PlaceClasses,
    RationalFunction,
    _combine,
    _endomorphism_pair,
    _expand,
    _smooth_norm,
    _stripped_norm,
    ee_relation,
    ee_setup,
    ee_sieve,
    effectivity_check,
    expected_dimension,
    intersection_degrees_ee,
    intersection_form_p1p1,
    jl_relation,
    jl_setup,
    jl_sieve,
    linear_system_ee,
    projective_class,
    translate_place,
    verify_ee_relation,
)


def _digest(rels):
    return hashlib.sha256(
        json.dumps([r.to_json() for r in rels], sort_keys=True).encode()
    ).hexdigest()


def _sections(restr, count, seed):
    """count seeded random sections of restr's linear system, zero
    combinations included."""
    kernel = restr.lin.kernel
    p = restr.setup.curve.p
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        weights = [rng.randrange(p) for _ in kernel]
        out.append([sum(w * x for w, x in zip(weights, col)) % p for col in zip(*kernel)])
    return out


def _check_stripped_norms(restr, sections):
    """On each nonzero side, the trial's quotient times the fixed factors F
    is the reduced norm's numerator, and its denominator factors are those
    of the reduced norm; the trial with a bound no norm exceeds keeps every
    nonzero side and passes them on unchanged."""
    p = restr.setup.curve.p
    for coeffs in sections:
        for side in ("a", "b"):
            uv = restr.restrict(coeffs, side)
            norm = restr.norm(uv, side)
            if norm.is_zero():
                # a section vanishing on the side's curve: no norm
                assert _smooth_norm(restr, coeffs, side, 10**6) is None
                continue
            num, den = _stripped_norm(restr, uv, side)
            assert num * _expand(1, restr.fixed[side][1], p) == norm.num
            assert den == factor(norm.den)[1]
            assert _smooth_norm(restr, coeffs, side, 10**6) == (num, (), den)


@pytest.fixture(scope="module")
def jl43():
    return jl_setup(43, 3, 2, 6, seed=0)


@pytest.fixture(scope="module")
def jl13():
    return jl_setup(13, 4, 2, 7)


@pytest.fixture(scope="module")
def ee11():
    return ee_setup(11, 7)


class TestIntersectionFormP1P1:
    def test_curve_pair_value(self):
        for d_f, d_g in [(3, 2), (2, 2), (5, 1)]:
            A = NSClassP1P1(d_f, 1)
            B = NSClassP1P1(1, d_g)
            assert intersection_form_p1p1(A, B) == 1 + d_f * d_g

    def test_diagonal_class(self):
        D = NSClassP1P1(1, 1)
        assert intersection_form_p1p1(D, D) == 2

    def test_fibers_square_to_zero(self):
        assert intersection_form_p1p1(NSClassP1P1(1, 0), NSClassP1P1(1, 0)) == 0
        assert intersection_form_p1p1(NSClassP1P1(0, 1), NSClassP1P1(0, 1)) == 0

    def test_symmetric_bilinear(self):
        rng = random.Random(2)
        for _ in range(50):
            a, b, c, d, e, f = [rng.randrange(0, 7) for _ in range(6)]
            D = NSClassP1P1(a, b)
            E = NSClassP1P1(c, d)
            F = NSClassP1P1(e, f)
            assert intersection_form_p1p1(D, E) == intersection_form_p1p1(E, D)
            combined = NSClassP1P1(c + e, d + f)
            assert intersection_form_p1p1(D, combined) == (
                intersection_form_p1p1(D, E) + intersection_form_p1p1(D, F)
            )


class TestJLSetup:
    def test_target_factor(self, jl43):
        assert jl43.h.degree == 6
        comp = jl43.g.compose(jl43.f) - PrimeField(43).poly([0, 1])
        assert comp.degree == 3 * 2
        assert (comp % jl43.h).is_zero()

    def test_defining_relations(self, jl43):
        # y-image satisfies both gluing equations mod h
        ring = jl43.ring
        assert jl43.y_image == jl43.f % jl43.h
        g_of_y = ring.zero()
        for c in reversed(jl43.g.coeffs):
            g_of_y = ring.add(ring.mul(g_of_y, jl43.y_image), ring.embed(c))
        assert g_of_y == ring.x()

    def test_deterministic(self):
        s1 = jl_setup(43, 3, 2, 6, seed=5)
        s2 = jl_setup(43, 3, 2, 6, seed=5)
        assert (s1.f, s1.g, s1.h) == (s2.f, s2.g, s2.h)

    def test_degree_precondition(self):
        with pytest.raises(ValueError):
            jl_setup(43, 2, 2, 5)

    def test_json_roundtrip(self, jl43):
        back = JLSetup.from_json(jl43.to_json())
        assert (back.f, back.g, back.h) == (jl43.f, jl43.g, jl43.h)


# bidegrees of the restriction oracles: both rulings, pure powers, and a
# lambda with more monomials than the sieve's (1, 1)
BIDEGREES = [(1, 1), (2, 1), (0, 2), (3, 0), (2, 2)]


class TestJLRelations:
    def test_identity_lambda(self, jl43):
        lam = BivariatePoly(43, {(1, 0): 1})
        rel = jl_relation(jl43, lam, kappa=6)
        assert rel is not None
        # side A is literally X, side B is g
        unit_a, facs_a = rel.side_a
        assert unit_a == 1 and facs_a == [(Poly([0, 1], 43), 1)]
        prod = PrimeField(43).poly([rel.side_b[0]])
        for q, e in rel.side_b[1]:
            for _ in range(e):
                prod = prod * q
        assert prod == jl43.g
        assert rel.verify(jl43)
        assert 1 <= rel.ratio(jl43) < 43

    def test_side_degrees(self, jl43, jl13):
        # a monomial lambda realizes the generic degree on both sides, by
        # Horner substitution and from the cached basis products alike
        for setup in (jl43, jl13):
            d_f, d_g = setup.f.degree, setup.g.degree
            for u_x, u_y in BIDEGREES:
                lam = BivariatePoly(setup.p, {(u_x, u_y): 1})
                a = lam.substitute_curve_x(setup.f)
                b = lam.substitute_curve_y(setup.g)
                assert a.degree == d_f * u_y + u_x
                assert b.degree == d_g * u_x + u_y
                assert setup._restrict(lam, "a") == a
                assert setup._restrict(lam, "b") == b

    def test_substitution_consistency(self, jl43, jl13):
        # the basis-product restriction, Horner substitution and direct
        # evaluation at sample points agree for random lambda
        rng = random.Random(3)
        for setup, (u_x, u_y) in itertools.product((jl43, jl13), BIDEGREES):
            p, f, g = setup.p, setup.f, setup.g
            for _ in range(8):
                lam = BivariatePoly(
                    p,
                    {
                        (i, j): rng.randrange(p)
                        for i in range(u_x + 1)
                        for j in range(u_y + 1)
                    },
                )
                if lam.is_zero():
                    continue
                a = lam.substitute_curve_x(f)
                b = lam.substitute_curve_y(g)
                assert setup._restrict(lam, "a") == a
                assert setup._restrict(lam, "b") == b
                xv = rng.randrange(p)
                total = 0
                for (i, j), c in lam.coeffs.items():
                    total += c * pow(xv, i, p) * pow(f(xv), j, p)
                assert a(xv) == total % p
                yv = rng.randrange(p)
                total = 0
                for (i, j), c in lam.coeffs.items():
                    total += c * pow(g(yv), i, p) * pow(yv, j, p)
                assert b(yv) == total % p

    def test_smoothness_filter(self, jl43):
        # kappa=1 forces linear factors only; some lambda must be rejected
        rng = random.Random(4)
        rejected = 0
        for trial in range(30):
            lam = BivariatePoly(
                43, {(i, j): rng.randrange(43) for i in range(2) for j in range(2)}
            )
            if lam.is_zero():
                continue
            if jl_relation(jl43, lam, kappa=1) is None:
                rejected += 1
        assert rejected > 0

    def test_tampered_relation_fails(self, jl43):
        lam = BivariatePoly(43, {(1, 0): 1, (0, 1): 3})
        rel = jl_relation(jl43, lam, kappa=6)
        assert rel is not None and rel.verify(jl43)
        unit_a, facs_a = rel.side_a
        rel.side_a = (unit_a * 2 % 43, facs_a)
        assert not rel.verify(jl43)


class TestJLCheck:
    """The check jl_relation runs on the restrictions it already holds:
    exact products on both sides and agreement in L, away from zero."""

    LAM = {(1, 0): 1, (0, 1): 3}

    def test_ratio_is_the_unit_quotient(self, jl43):
        # exact products plus va = vb != 0 leave ratio no other value
        rels = jl_sieve(jl43, 1, 1, 2, budget=1500, seed=3)
        assert len(rels) > 100
        for rel in rels:
            unit_a, unit_b = rel.side_a[0], rel.side_b[0]
            assert rel.ratio(jl43) == unit_b * pow(unit_a, -1, 43) % 43

    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("fault", ["unit", "drop"])
    def test_wrong_factorization_raises(self, jl43, monkeypatch, side, fault):
        # a factorization that does not multiply back to its restriction,
        # on either side, stops the sieve
        import frobsieve.sieve2d as s2d

        real_factor = s2d.factor
        calls = []

        def faulty(f, *args, **kwargs):
            unit, facs = real_factor(f, *args, **kwargs)
            calls.append(f)
            if len(calls) - 1 == side:
                if fault == "unit":
                    unit = unit * 2 % f.p
                else:
                    facs = facs[1:]
            return unit, facs

        monkeypatch.setattr(s2d, "factor", faulty)
        lam = BivariatePoly(43, self.LAM)
        with pytest.raises(ValueError):
            jl_relation(jl43, lam, kappa=6)
        assert len(calls) == 2

    def test_perturbed_y_image_raises(self, jl43, monkeypatch):
        # both products stay exact, but the two sides no longer meet in L
        lam = BivariatePoly(43, self.LAM)
        rel = jl_relation(jl43, lam, kappa=6)
        assert rel.verify(jl43)
        ring = jl43.ring
        monkeypatch.setattr(jl43, "y_image", ring.add(jl43.y_image, ring.one()))
        with pytest.raises(ValueError):
            jl_relation(jl43, lam, kappa=6)
        assert not rel.verify(jl43)

    def test_lambda_vanishing_on_the_orbit_is_skipped(self, jl43):
        # lambda = h(x) is zero at the intersection point, so its two sides
        # give no relation in L^*; both products are still exact, so the
        # candidate is skipped as ee_relation skips one, not an error
        lam = BivariatePoly(43, {(i, 0): c for i, c in enumerate(jl43.h.coeffs)})
        assert jl_relation(jl43, lam, kappa=12) is None
        # a sieve that meets it goes on; lambda = h(x) + c does not vanish
        shifted = dict(lam.coeffs)
        shifted[(0, 0)] = shifted.get((0, 0), 0) + 1
        rel = jl_relation(jl43, BivariatePoly(43, shifted), kappa=12)
        assert rel is not None and rel.verify(jl43)

    def test_vanishing_lambda_with_a_wrong_factor_still_raises(self, jl43, monkeypatch):
        # the skip needs exact products: a wrong unit on a vanishing lambda
        # is a setup fault and raises
        import frobsieve.sieve2d as s2d

        real_factor = s2d.factor

        def faulty(f, *args, **kwargs):
            unit, facs = real_factor(f, *args, **kwargs)
            return unit * 2 % f.p, facs

        monkeypatch.setattr(s2d, "factor", faulty)
        lam = BivariatePoly(43, {(i, 0): c for i, c in enumerate(jl43.h.coeffs)})
        with pytest.raises(ValueError):
            jl_relation(jl43, lam, kappa=12)


class TestJLSieve:
    def test_run_and_verify(self, jl43):
        rels = jl_sieve(jl43, u_x=2, u_y=1, kappa=2, budget=400, seed=0)
        assert len(rels) >= 10
        assert all(r.verify(jl43) for r in rels)
        keys = {tuple(sorted(r.lam.coeffs.items())) for r in rels}
        assert len(keys) == len(rels)

    def test_deterministic(self, jl43):
        a = jl_sieve(jl43, 2, 1, 2, budget=150, seed=9)
        b = jl_sieve(jl43, 2, 1, 2, budget=150, seed=9)
        assert [r.to_json() for r in a] == [r.to_json() for r in b]

    def test_timeout_carries_partial(self, jl43):
        with pytest.raises(SieveTimeout) as exc:
            jl_sieve(jl43, 2, 1, 2, budget=60, seed=0, target=1000)
        partial = exc.value.partial
        assert 0 < len(partial) < 1000
        assert all(r.verify(jl43) for r in partial)

    def test_smaller_target_is_prefix(self, jl43):
        twenty = jl_sieve(jl43, 1, 1, 2, budget=1000, seed=4, target=20)
        assert len(twenty) == 20
        twelve = jl_sieve(jl43, 1, 1, 2, budget=1000, seed=4, target=12)
        assert [r.to_json() for r in twelve] == [r.to_json() for r in twenty[:12]]

    def test_relations_pinned(self, jl43):
        # sha256 of the relations as the per-sieve loop produced them
        rels = jl_sieve(jl43, 1, 1, 2, budget=1500, seed=3)
        assert _digest(rels) == "635896dc13569bf7f15edab8166bbca9ed7ed5d89fd28a0fa2e27ba63951b72f"

    def test_rejected_candidates_never_factored(self, jl43, monkeypatch):
        # both sides of a relation are split, each from the pieces of its
        # own smoothness test; nothing else is split
        import frobsieve.sieve2d as s2d

        calls = {"trials": 0, "split": 0}
        passed = {}
        real_pieces, real_factor = s2d.smooth_pieces, s2d.factor

        def counting_pieces(f, kappa):
            calls["trials"] += 1
            pieces = real_pieces(f, kappa)
            if pieces is not None:
                passed[id(f)] = pieces
            return pieces

        def counting_factor(f, *args, pieces=()):
            calls["split"] += 1
            assert passed[id(f)] is pieces
            return real_factor(f, *args, pieces=pieces)

        monkeypatch.setattr(s2d, "smooth_pieces", counting_pieces)
        monkeypatch.setattr(s2d, "factor", counting_factor)
        rels = jl_sieve(jl43, 1, 1, 2, budget=400, seed=3)
        assert len(rels) > 0
        assert calls["split"] == 2 * len(rels)
        assert calls["trials"] > 2 * calls["split"]

    def test_rejects_trivial_bidegree(self, jl43):
        with pytest.raises(ValueError):
            jl_sieve(jl43, 0, 0, 2, budget=10)


class TestRationalFunctions:
    def test_reduction(self):
        p = 11
        num = Poly([10, 0, 1], p)  # x^2 - 1
        den = Poly([10, 1], p)  # x - 1
        r = RationalFunction(num, den)
        assert r.num == Poly([1, 1], p)
        assert r.den == Poly([1], p)

    def test_denominator_made_monic(self):
        p = 11
        r = RationalFunction(Poly([1], p), Poly([0, 3], p))
        assert r.den == Poly([0, 1], p)
        assert r.num == Poly([4], p)  # 1/3 = 4 mod 11

    def test_arithmetic_by_evaluation(self):
        p = 23
        field = PrimeField(p)
        rng = random.Random(6)
        for _ in range(40):
            a = RationalFunction(
                field.random_poly(rng, 3), field.random_poly(rng, 2).monic()
            )
            b = RationalFunction(
                field.random_poly(rng, 2), field.random_poly(rng, 3).monic()
            )
            if b.is_zero():
                continue
            xv = rng.randrange(p)
            if a.den(xv) == 0 or b.den(xv) == 0 or b.num(xv) == 0:
                continue
            va = a.num(xv) * pow(a.den(xv), -1, p) % p
            vb = b.num(xv) * pow(b.den(xv), -1, p) % p
            s = a + b
            if s.den(xv) != 0:
                assert s.num(xv) * pow(s.den(xv), -1, p) % p == (va + vb) % p
            m = a * b
            if m.den(xv) != 0:
                assert m.num(xv) * pow(m.den(xv), -1, p) % p == va * vb % p
            q = a / b
            if q.den(xv) != 0:
                assert q.num(xv) * pow(q.den(xv), -1, p) % p == (
                    va * pow(vb, -1, p) % p
                )


class TestFuncFieldLayer:
    def setup_method(self):
        self.p = 11
        self.f = Poly([7, 2, 0, 1], self.p)  # the sieve curve's x-cubic
        self.ff = FuncFieldOps(self.p, self.f)

    def test_square_of_y(self):
        ff = self.ff
        y2 = ff.mul(ff.y(), ff.y())
        assert y2[1].is_zero()
        assert y2[0] == RationalFunction(self.f)

    def test_inverse(self):
        ff = self.ff
        a = (
            RationalFunction(Poly([3, 1], self.p)),
            RationalFunction(Poly([5, 0, 2], self.p), Poly([1, 1], self.p)),
        )
        assert ff.eq(ff.mul(a, ff.inv(a)), ff.one())

    def test_frobenius_of_y(self):
        ff = self.ff
        yp = ff.pow(ff.y(), self.p)
        # y^p = y * f^((p-1)/2)
        expect_v = RationalFunction(self.f)
        acc = RationalFunction(Poly([1], self.p))
        for _ in range((self.p - 1) // 2):
            acc = acc * expect_v
        assert yp[0].is_zero()
        assert yp[1] == acc

    def test_norm_splits(self):
        ff = self.ff
        a = (
            RationalFunction(Poly([1, 4], self.p)),
            RationalFunction(Poly([2, 3], self.p)),
        )
        conj = (a[0], -a[1])
        prod = ff.mul(a, conj)
        assert prod[1].is_zero()
        assert prod[0] == ff.norm(a)


class TestECIntersections:
    def test_norm_of_two_minus_frobenius(self, ee11):
        t = ee11.curve.trace()
        assert t == 5
        beta = EndomorphismElement(2, -1, t, 11)
        assert beta.norm() == 4 - 10 + 11 == 5

    def test_endomorphism_pair(self, ee11):
        t = ee11.curve.trace()
        assert ee11.alpha.norm() == 1
        assert ee11.beta in (
            EndomorphismElement(2, -1, t, 11),
            EndomorphismElement(-2, 1, t, 11),
        )
        one = EndomorphismElement(1, 0, t, 11)
        phi = EndomorphismElement(0, 1, t, 11)
        assert one - ee11.beta * ee11.alpha == phi - one

    def test_class_of_curve_a_self_pairs_to_zero(self, ee11):
        t = ee11.curve.trace()
        rng = random.Random(8)
        for _ in range(20):
            alpha = EndomorphismElement(
                rng.randrange(-5, 6), rng.randrange(-5, 6), t, 11
            )
            if alpha.is_zero():
                continue
            c = NSClassEE(alpha.norm(), 1, alpha)
            da, _ = intersection_degrees_ee(c, alpha, ee11.beta)
            assert da == 0

    def test_intersection_count_recovers_field_degree(self, ee11):
        # the two parametrized curves meet in deg(1 - alpha*beta) points,
        # and the construction arranged that to be d = 7
        c = NSClassEE(1, ee11.beta.norm(), ee11.beta.conj())
        da, _ = intersection_degrees_ee(c, ee11.alpha, ee11.beta)
        assert da == 7

    def test_xi_zero_degrees(self, ee11):
        t = ee11.curve.trace()
        zero = EndomorphismElement(0, 0, t, 11)
        c = NSClassEE(1, 1, zero)
        da, db = intersection_degrees_ee(c, ee11.alpha, ee11.beta)
        assert da == 1 + ee11.alpha.norm()
        assert db == ee11.beta.norm() + 1

    def test_reduces_to_p1p1_form_at_xi_zero(self, ee11):
        t = ee11.curve.trace()
        zero = EndomorphismElement(0, 0, t, 11)
        rng = random.Random(9)
        for _ in range(30):
            d1, d2 = rng.randrange(1, 8), rng.randrange(1, 8)
            c = NSClassEE(d1, d2, zero)
            da, db = intersection_degrees_ee(c, ee11.alpha, ee11.beta)
            D = NSClassP1P1(d1, d2)
            assert da == intersection_form_p1p1(
                D, NSClassP1P1(ee11.alpha.norm(), 1)
            )
            assert db == intersection_form_p1p1(
                D, NSClassP1P1(1, ee11.beta.norm())
            )

    def test_effectivity_examples(self, ee11):
        t = ee11.curve.trace()
        xi = EndomorphismElement(1, 0, t, 11)
        assert effectivity_check(NSClassEE(2, 1, xi))
        assert expected_dimension(NSClassEE(2, 1, xi)) == 1
        assert not effectivity_check(NSClassEE(1, 1, xi))
        with pytest.raises(ValueError):
            effectivity_check(NSClassEE(0, 1, xi))


def _odd_primes_below(n):
    return [p for p in range(3, n, 2) if all(p % k for k in range(3, p, 2))]


def _traces(p):
    """Every t with t^2 < 4p, the traces a curve over F_p can have."""
    return [t for t in range(-2 * p, 2 * p + 1) if t * t < 4 * p]


def _box_endomorphism_pair(t, p, bound=50):
    """The oracle: try every alpha = m + n*phi with |m|, |n| <= bound and
    keep the best by _endomorphism_pair's score."""
    target = EndomorphismElement(2, -1, t, p)
    best = None
    for m in range(-bound, bound + 1):
        for nn in range(-bound, bound + 1):
            alpha = EndomorphismElement(m, nn, t, p)
            if alpha.norm() == 0:
                continue
            beta = target.exact_divide(alpha)
            if beta is None:
                continue
            score = (max(alpha.norm(), beta.norm()), abs(m) + abs(nn), -m, -nn)
            if best is None or score < best[0]:
                best = (score, alpha, beta)
    if best is None:
        raise SearchFailed("empty box")
    return best[1], best[2]


class TestEndomorphismPairSearch:
    """_endomorphism_pair walks the norm ellipse N(alpha) <= N(2 - phi)
    inside the box; the box search is the reference."""

    def test_matches_box_search(self):
        cases = [(t, p, bound) for p in _odd_primes_below(100) for t in _traces(p)
                 for bound in (1, 12)]
        assert len(cases) == 2 * 596
        cases += [(t, p, 50) for p in (11, 13, 17) for t in _traces(p)]
        for case in cases:
            assert _endomorphism_pair(*case) == _box_endomorphism_pair(*case), case

    def test_empty_box_fails_alike(self):
        for bound in (-1, 0):
            with pytest.raises(SearchFailed):
                _box_endomorphism_pair(5, 11, bound)
            with pytest.raises(SearchFailed):
                _endomorphism_pair(5, 11, bound)


class TestLinearSystem:
    def test_graph_points_built_on_demand(self, ee11, monkeypatch):
        # each graph point costs one xi.apply; linear_system_ee uses a
        # prefix of the stream (rows, then holdout) and pulls one point
        # more to end its loop, so no point past that one is built
        t = ee11.curve.trace()
        c = NSClassEE(2, 2, EndomorphismElement(1, 0, t, 11))
        built = []
        real = EndomorphismElement.apply

        def recording(self, ops, a4, P, frob):
            built.append(P)
            return real(self, ops, a4, P, frob)

        monkeypatch.setattr(EndomorphismElement, "apply", recording)
        lin = linear_system_ee(ee11, c)
        used = built.index(lin.holdout[-1][1]) + 1
        assert used <= len(built) <= used + 1

    def test_minimal_class(self, ee11):
        t = ee11.curve.trace()
        c = NSClassEE(2, 1, EndomorphismElement(1, 0, t, 11))
        lin = linear_system_ee(ee11, c)
        assert len(lin.kernel) >= expected_dimension(c) == 1
        assert len(lin.holdout) == 20
        for vec in lin.kernel:
            fn = lin.function(vec)
            assert not fn.is_zero()
            for ops, P, Q in lin.holdout:
                assert ops.is_zero(fn.evaluate(ops, P, Q))

    def test_xi_zero_rejected(self, ee11):
        t = ee11.curve.trace()
        c = NSClassEE(2, 2, EndomorphismElement(0, 0, t, 11))
        with pytest.raises(InsufficientPoints):
            linear_system_ee(ee11, c)

    def test_ineffective_class_rejected(self, ee11):
        t = ee11.curve.trace()
        c = NSClassEE(1, 1, EndomorphismElement(1, 0, t, 11))
        with pytest.raises(ValueError):
            linear_system_ee(ee11, c)

    def test_twenty_admissible_classes(self, ee11):
        # dimension bound plus holdout vanishing across a class sample
        t = ee11.curve.trace()
        rng = random.Random(7)
        checked = 0
        draws = 0
        while checked < 20:
            draws += 1
            assert draws < 400
            xi = EndomorphismElement(
                rng.randrange(-2, 3), rng.randrange(-1, 2), t, 11
            )
            c = NSClassEE(rng.randrange(1, 5), rng.randrange(1, 4), xi)
            if xi.norm() == 0 or not effectivity_check(c):
                continue
            lin = linear_system_ee(ee11, c)
            assert len(lin.kernel) >= expected_dimension(c)
            for vec in lin.kernel:
                fn = lin.function(vec)
                for ops, P, Q in lin.holdout:
                    assert ops.is_zero(fn.evaluate(ops, P, Q))
            checked += 1


class TestPlaceClasses:
    def test_reduction_happened(self, ee11):
        pc = PlaceClasses(ee11.curve, 2, ee11.m0)
        n_places = sum(1 for _ in monic_irreducibles(11, 2))
        assert n_places == 66
        classes = {pc.class_of(q).coeffs for q in monic_irreducibles(11, 2)}
        assert len(classes) < n_places

    def test_matches_point_translation(self, ee11):
        # degree-1 places: the class of x(P) must absorb every x(P + k*t).
        # Every rational point of the 11^7 curve is in the kernel, so the
        # 43^5 curve (35 points, 7 cosets) is what checks the other cosets
        ext = build_elliptic_residue(43, 5)
        for curve, t in ((ee11.curve, ee11.m0), (ext.curve, ext.t_star)):
            p = curve.p
            pc = PlaceClasses(curve, 1, t)
            for P in curve.points():
                rep = pc.class_of(Poly([-P[0], 1], p))
                for tk in self._subgroup(curve, t):
                    moved = ec_add(curve.ops, curve.a4, P, tk)
                    if moved is not None:
                        assert pc.class_of(Poly([-moved[0], 1], p)) == rep

    @staticmethod
    def _subgroup(curve, t):
        """The nonzero points k*t of the subgroup generated by t."""
        out, tk = [], t
        while tk is not None:
            out.append(tk)
            tk = ec_add(curve.ops, curve.a4, tk, t)
        return out

    @pytest.mark.parametrize("p, d, kappa", [(11, 7, 3), (43, 5, 2)])
    def test_matches_translation_classes(self, p, d, kappa):
        # the oracle: merge each place with every factor of degree <=
        # kappa of its translates by the subgroup, so the classes come
        # from translate_place + factor and no isogeny.  A translate
        # covers both sheets (x(P + kt) = x(-P - kt)), so k and -k give one
        # polynomial and k runs over half the subgroup.  A kernel place
        # skips the translate by its own point, which translate_place
        # refuses; the other translates reach the rest of the kernel
        ext = build_elliptic_residue(p, d)
        curve, t = ext.curve, ext.t_star
        parent = {}

        def root(c):
            while parent.setdefault(c, c) != c:
                c = parent[c]
            return c

        places = list(monic_irreducibles(p, kappa))
        for q in places:
            for tk in self._subgroup(curve, t)[: (d - 1) // 2]:
                if q.degree == 1 and q(tk[0]) == 0:
                    continue
                for f, _ in factor(translate_place(curve, q, tk))[1]:
                    if f.degree <= kappa:
                        parent[root(f.coeffs)] = root(q.coeffs)
        orbits = {}
        for q in places:
            orbits.setdefault(root(q.coeffs), []).append(q)

        pc = PlaceClasses(curve, kappa, t)
        for members in orbits.values():
            assert len({pc.class_of(q) for q in members}) == 1
        assert len({pc.class_of(q).coeffs for q in places}) == len(orbits)

    def test_kernel_places_get_label_one(self, ee11):
        # X - x(k*t) lies over the origin of E/T, and nothing else does
        curve = ee11.curve
        pc = PlaceClasses(curve, 2, ee11.m0)
        kernel = {(-tk[0] % 11, 1) for tk in self._subgroup(curve, ee11.m0)}
        assert len(kernel) == 3
        for q in monic_irreducibles(11, 2):
            assert (pc.class_of(q) == Poly([1], 11)) == (q.coeffs in kernel)

    def test_class_of_is_stable(self, ee11):
        pc = PlaceClasses(ee11.curve, 2, ee11.m0)
        groups = {}
        for q in monic_irreducibles(11, 2):
            groups.setdefault(pc.class_of(q).coeffs, []).append(q)
        # querying any member again lands on the same representative
        for rep_coeffs, members in groups.items():
            fresh = PlaceClasses(ee11.curve, 2, ee11.m0)
            for q in members:
                assert fresh.class_of(q).coeffs == rep_coeffs

    def test_translation_invariance_of_logs(self, ee11):
        # base functions satisfy h(x(P))^p = h(x(P + t*)) at the
        # distinguished point, which is what makes classes sound columns
        ring = ee11.ring
        p_int = ee11.ext.point()
        moved = translate_point(ee11.ext, p_int, ee11.m0)
        rng = random.Random(12)
        field = PrimeField(11)
        for _ in range(10):
            h = field.random_poly(rng, rng.randrange(1, 4))
            if h.is_zero():
                continue
            val = ring.zero()
            for c in reversed(h.coeffs):
                val = ring.add(ring.mul(val, p_int[0]), ring.embed(c))
            val_moved = ring.zero()
            for c in reversed(h.coeffs):
                val_moved = ring.add(ring.mul(val_moved, moved[0]), ring.embed(c))
            assert ring.pow(val, 11) == val_moved


@pytest.fixture(scope="module")
def sieved(ee11):
    t = ee11.curve.trace()
    c = NSClassEE(2, 2, EndomorphismElement(1, 0, t, 11))
    lin = linear_system_ee(ee11, c)
    restr = EERestriction(ee11, lin, 4)
    rels = ee_sieve(ee11, c, 4, budget=200, seed=0, restriction=restr)
    return c, restr, rels


class TestEESieve:
    def test_finds_relations(self, sieved):
        _, _, rels = sieved
        assert len(rels) >= 10

    def test_independent_verification(self, ee11, sieved):
        c, restr, rels = sieved
        fresh = EERestriction(ee11, restr.lin, 4)
        for rel in rels:
            assert verify_ee_relation(fresh, rel)

    def test_witness_is_nonzero_field_element(self, ee11, sieved):
        _, _, rels = sieved
        ring = ee11.ring
        for rel in rels:
            assert not ring.is_zero(rel.witness)

    def test_deterministic(self, ee11, sieved):
        c, restr, rels = sieved
        again = ee_sieve(ee11, c, 4, budget=200, seed=0, restriction=restr)
        assert [r.to_json() for r in again] == [r.to_json() for r in rels]

    @staticmethod
    def _tamper(kind, ring, rel, other):
        a = rel.side_a
        if kind == "unit":
            return type(rel)(rel.coeffs, dict(a, unit=a["unit"] * 2 % 11),
                             rel.side_b, rel.witness)
        if kind == "witness":
            return type(rel)(rel.coeffs, a, rel.side_b,
                             ring.add(rel.witness, ring.one()))
        if kind == "class-exponent":
            rep = next(iter(a["classes"]))
            classes = dict(a["classes"])
            classes[rep] += 1
            return type(rel)(rel.coeffs, dict(a, classes=classes),
                             rel.side_b, rel.witness)
        if kind == "num-exponent":
            (q, e), *rest = a["num"]
            return type(rel)(rel.coeffs, dict(a, num=[(q, e + 1)] + rest),
                             rel.side_b, rel.witness)
        assert kind == "other-coeffs"
        return type(rel)(other.coeffs, a, rel.side_b, rel.witness)

    @pytest.mark.parametrize(
        "kind",
        ["unit", "witness", "class-exponent", "num-exponent", "other-coeffs"],
    )
    def test_tampered_relation_fails(self, ee11, sieved, kind):
        # each tamper breaks a different claim: the norm (unit, a factor's
        # exponent, the section), the class sums, or the shared value
        _, restr, rels = sieved
        rel = next(r for r in rels if r.side_a["num"] and r.side_a["classes"])
        other = next(r for r in rels if r.coeffs != rel.coeffs)
        assert verify_ee_relation(restr, rel)
        bad = self._tamper(kind, ee11.ring, rel, other)
        assert not verify_ee_relation(restr, bad)

    def test_timeout_carries_partial(self, ee11, sieved):
        c, restr, _ = sieved
        with pytest.raises(SieveTimeout) as exc:
            ee_sieve(ee11, c, 4, budget=30, seed=3, target=500, restriction=restr)
        assert len(exc.value.partial) < 500
        for rel in exc.value.partial:
            assert verify_ee_relation(restr, rel)

    def test_smaller_target_is_prefix(self, ee11, sieved):
        c, restr, _ = sieved
        eight = ee_sieve(ee11, c, 4, budget=200, seed=1, target=8, restriction=restr)
        assert len(eight) == 8
        five = ee_sieve(ee11, c, 4, budget=200, seed=1, target=5, restriction=restr)
        assert [r.to_json() for r in five] == [r.to_json() for r in eight[:5]]

    def test_relations_pinned(self, sieved):
        # sha256 of the relations as the per-sieve loop produced them, from
        # a fresh restriction (its place-class cache starts empty)
        _, _, rels = sieved
        assert _digest(rels) == "14d17a51df90444bb6c77ce40b1ec07899a34a3ab776e8855702943e20b710b1"

    def test_class_partition_pinned(self, sieved):
        # sha256 of the same relations with every class label left out:
        # coefficients, witness, unit and factors of each side, and each
        # side's factors grouped by class with the class's exponent.  It
        # pins the partition into columns, whatever names the classes
        _, restr, rels = sieved

        def side(s):
            groups = {}
            for q, _ in s["num"] + s["den"]:
                groups.setdefault(restr.classes.class_of(q), []).append(q.to_list())
            return {
                "unit": s["unit"],
                "num": [[q.to_list(), e] for q, e in s["num"]],
                "den": [[q.to_list(), e] for q, e in s["den"]],
                "partition": sorted(
                    [sorted(qs), s["classes"].get(rep, 0)] for rep, qs in groups.items()
                ),
            }

        doc = [
            [list(r.coeffs), r.witness.to_list(), side(r.side_a), side(r.side_b)]
            for r in rels
        ]
        digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
        assert digest == "57579f82cba1687b4a1cfc33773efb62603950a8cac86e53ebb85086aa965ac2"

    def test_rejected_candidates_never_factored(self, ee11, sieved, monkeypatch):
        # two splits per relation whose projective class is new in the
        # call, the quotient of each side's numerator by its fixed part G,
        # each from the pieces of its own smoothness test; a
        # scalar multiple of an earlier relation is rescaled from it and
        # splits nothing.  A denominator divides D^2 and is read off the
        # factorization of D that the restriction cached when it was built
        # (before the patch below), as G's was, so neither is factored
        # again.  Classing a place is one evaluation in its
        # residue field, so nothing else is factored and no place is
        # translated
        import frobsieve.sieve2d as s2d

        c, restr, _ = sieved
        fresh = EERestriction(ee11, restr.lin, 4)
        calls = {"factor": 0, "split": 0, "translate": 0}
        passed = {}
        real_pieces, real_factor = s2d.smooth_pieces, s2d.factor
        real_translate = s2d.translate_place

        def counting_pieces(f, kappa):
            pieces = real_pieces(f, kappa)
            if pieces is not None:
                passed[id(f)] = pieces
            return pieces

        def counting_factor(f, *args, **kwargs):
            calls["factor"] += 1
            if "pieces" in kwargs:
                calls["split"] += 1
                assert passed[id(f)] is kwargs["pieces"]
            return real_factor(f, *args, **kwargs)

        def counting_translate(*args):
            calls["translate"] += 1
            return real_translate(*args)

        monkeypatch.setattr(s2d, "smooth_pieces", counting_pieces)
        monkeypatch.setattr(s2d, "factor", counting_factor)
        monkeypatch.setattr(s2d, "translate_place", counting_translate)
        rels = ee_sieve(ee11, c, 4, budget=100, seed=2, restriction=fresh)
        new_classes = len({projective_class(rel.coeffs, 11) for rel in rels})
        assert 0 < new_classes < len(rels)
        assert calls["split"] == 2 * new_classes
        assert calls["factor"] == 2 * new_classes
        assert calls["translate"] == 0

    def test_mismatched_restriction_rejected(self, ee11, sieved):
        # a restriction for kappa 2 used to let degree-3 and -4 places
        # through to PlaceClasses.class_of, which then raised
        c, restr, _ = sieved
        small = EERestriction(ee11, restr.lin, 2)
        with pytest.raises(ValueError, match="kappa=2"):
            ee_sieve(ee11, c, 4, 40, restriction=small)
        t = ee11.curve.trace()
        for other in (NSClassEE(3, 2, c.xi), NSClassEE(2, 2, EndomorphismElement(0, 1, t, 11))):
            with pytest.raises(ValueError, match="restriction built for"):
                ee_sieve(ee11, other, 4, 40, restriction=restr)
        # an equal class built separately is accepted
        same = NSClassEE(2, 2, EndomorphismElement(1, 0, t, 11))
        rels = ee_sieve(ee11, same, 4, 40, restriction=restr)
        assert all(verify_ee_relation(restr, rel) for rel in rels)

    def test_json_shape(self, sieved):
        _, _, rels = sieved
        data = rels[0].to_json()
        assert set(data) == {"coeffs", "side_a", "side_b", "witness"}
        for side in (data["side_a"], data["side_b"]):
            assert set(side) == {"unit", "num_factors", "den_factors", "classes"}


@pytest.fixture(scope="module")
def sieved17():
    # 17^7 puts more in a norm's fixed part than 11^7: places of degree 4
    # and 6, and two factors in side b's common denominator
    setup = ee_setup(17, 7)
    c = NSClassEE(2, 2, EndomorphismElement(1, 0, setup.curve.trace(), 17))
    restr = EERestriction(setup, linear_system_ee(setup, c), 6)
    rels = []
    for seed in range(4):
        rels += ee_sieve(setup, c, 6, budget=300, seed=seed, restriction=restr)
    return c, restr, rels


class TestEESieve17:
    def test_relations_pinned(self, sieved17):
        # sha256 of the relations of seeds 0-3 in order, one restriction
        _, _, rels = sieved17
        assert len(rels) == 18
        assert _digest(rels) == "c009b4981a5c66e07463c0cf7b8fbf36733dd97a8a273f5f092642671306de1a"


@pytest.fixture(scope="module")
def sieved_seeds(ee11, sieved):
    # the ee-11x7 benchmark's shape: 400 trials per call, each call from a
    # fresh restriction (its place-class cache starts empty)
    c, restr, _ = sieved
    calls = []
    for seed in range(4):
        fresh = EERestriction(ee11, restr.lin, 4)
        calls.append((fresh, ee_sieve(ee11, c, 4, budget=400, seed=seed, restriction=fresh)))
    return calls


class TestEESieveSeeds:
    def test_relations_pinned(self, sieved_seeds):
        # sha256 of the relations of seeds 0-3 in order
        rels = [rel for _, found in sieved_seeds for rel in found]
        assert len(rels) == 195
        assert _digest(rels) == "e1789744c7315744bec0b04328db15baf308869da58eccbc7760ad1ed553b988"


class TestEEProjectiveClasses:
    """ee_sieve runs ee_relation once per projective class of sections in a
    call and rescales that relation for a later multiple of the section;
    ee_relation on the section itself is the reference."""

    @pytest.mark.parametrize("which", ["sieved_seeds", "sieved17"])
    def test_every_relation_is_the_sections_own(self, request, which):
        runs = request.getfixturevalue(which)
        if which == "sieved17":
            _, restr, rels = runs
            runs = [(restr, rels)]
        rels = [rel for _, found in runs for rel in found]
        p = runs[0][0].setup.curve.p
        assert len(rels) > len({projective_class(rel.coeffs, p) for rel in rels})
        for restr, found in runs:
            for rel in found:
                assert rel.to_json() == ee_relation(restr, rel.coeffs, restr.kappa).to_json()
                assert verify_ee_relation(restr, rel)
        # no two relations share a side's lists or dicts
        parts = [id(rel_side[k]) for rel in rels for rel_side in (rel.side_a, rel.side_b)
                 for k in ("num", "den", "classes")]
        assert len(set(parts)) == len(parts)

    def test_rejected_class_rejects_every_multiple(self, ee11, sieved, monkeypatch):
        import frobsieve.sieve2d as s2d

        c, restr, _ = sieved
        real = s2d.sieve_trials
        calls = []

        def recording(seed, budget, target, draw, relation):
            drawn = []
            calls.append(drawn)

            def rec(coeffs):
                rel = relation(coeffs)
                drawn.append((list(coeffs), rel))
                return rel

            return real(seed, budget, target, draw, rec)

        monkeypatch.setattr(s2d, "sieve_trials", recording)
        for seed in range(4):
            ee_sieve(ee11, c, 4, budget=400, seed=seed, restriction=restr)
        monkeypatch.undo()
        for drawn in calls:
            rejected = [coeffs for coeffs, rel in drawn if rel is None]
            # most rejected draws repeat a class already rejected in the call
            assert 2 * len({projective_class(s, 11) for s in rejected}) < len(rejected)
            for coeffs in rejected:
                assert ee_relation(restr, coeffs, 4) is None

    @pytest.mark.parametrize("sides", ["b", "ab"])
    def test_tampered_values_fail_a_rebuilt_relation(self, ee11, sieved, monkeypatch, sides):
        # once the first relation is found, the cached values W are doubled:
        # on side b alone va != vb, on both sides va = vb != lambda times
        # the stored witness.  ee_relation is not run again, so only the
        # check on a rebuilt relation can raise
        import frobsieve.sieve2d as s2d

        c, restr, _ = sieved
        fresh = EERestriction(ee11, restr.lin, 4)
        real = s2d.ee_relation
        found = []

        def first_only(restriction, coeffs, kappa):
            if found:
                return None
            rel = real(restriction, coeffs, kappa)
            if rel is not None:
                found.append(rel)
                for side in sides:
                    restriction.values[side] = [w * 2 for w in restriction.values[side]]
            return rel

        monkeypatch.setattr(s2d, "ee_relation", first_only)
        with pytest.raises(ValueError, match="rescaled relation"):
            ee_sieve(ee11, c, 4, budget=200, seed=0, restriction=fresh)
        assert len(found) == 1


class TestEERestrictionCommonForm:
    def test_matches_generic_evaluation(self, sieved):
        # the oracle restricts through the function-field adapter, term by
        # term in reduced rational functions; the restriction under test
        # combines fixed numerators over one common denominator per side
        _, restr, _ = sieved
        ff = restr.ffops
        # the zero section first: its restriction is zero
        sections = [[0] * len(restr.lin.kernel[0])] + _sections(restr, 50, 17)
        for side, curve in (("a", restr.curve_a), ("b", restr.curve_b)):
            den = restr.common[side][0]
            assert den.lc() == 1
            for coeffs in sections:
                expect = restr.lin.function(coeffs).evaluate(ff, *curve)
                uv = restr.restrict(coeffs, side)
                assert ff.eq(restr.element(uv, side), expect)
                assert restr.norm(uv, side) == ff.norm(expect)
            zero = restr.restrict(sections[0], side)
            assert zero[0].is_zero() and zero[1].is_zero()


def _restriction_with_sections(setup, d1, d2, m, n):
    cls = NSClassEE(d1, d2, EndomorphismElement(m, n, setup.curve.trace(), setup.curve.p))
    restr = EERestriction(setup, linear_system_ee(setup, cls), 4)
    return restr, [s for s in _sections(restr, 50, 29) if any(s)]


@pytest.fixture(scope="module")
def sieved_minus(ee11):
    # class (2, 2, -1 + 0 phi): no fixed places on side a, three linear
    # ones on side b
    return _restriction_with_sections(ee11, 2, 2, -1, 0)


@pytest.fixture(scope="module")
def excess(ee11):
    # class (3, 3, -1 + phi): on side a, G holds (x + 5)^15 and D^2 only
    # (x + 5)^8, so nothing is stripped and (x + 5)^7 is a fixed factor
    return _restriction_with_sections(ee11, 3, 3, -1, 1)


class TestEETrialCaches:
    """The sieve's trial path against the restriction's independent
    methods: stripped norms against `norm` (one gcd) and `factor`, cached
    basis values against `value_at_intersection` (Horner on the reduced
    element), over seeded sections and one section of every projective
    class.  Every check here holds for a section iff it holds for its
    nonzero multiples, so that covers every candidate of any sieve."""

    @pytest.fixture(scope="class")
    def candidates(self, sieved):
        _, restr, _ = sieved
        kernel = restr.lin.kernel
        reps = [
            [sum(w * x for w, x in zip(weights, col)) % 11 for col in zip(*kernel)]
            for weights in itertools.product(range(11), repeat=len(kernel))
            if next((w for w in weights if w), 0) == 1
        ]
        assert len({projective_class(s, 11) for s in reps}) == len(reps) == 133
        return [s for s in _sections(restr, 50, 23) if any(s)] + reps

    def test_denominator_cache_is_the_factorization_of_D(self, sieved):
        _, restr, _ = sieved
        for side in ("a", "b"):
            den = restr.common[side][0]
            assert restr.den_factors[side] == factor(den)[1]
            assert den.degree > 0

    def test_stripped_norm_matches_reduced_norm(self, sieved, candidates):
        _, restr, _ = sieved
        _check_stripped_norms(restr, candidates)

    def test_strip_stops_at_twice_the_multiplicity(self, sieved, candidates):
        # G takes 3 of the 6 copies of r in D^2 on side a and none on side
        # b, so r is stripped from raw / G at most 3 and 6 times; sections
        # strip it fewer times (0 or 1 on side a, none on side b), and
        # numerators scaled by r^3 put r^6 more in raw, so the cap decides
        # what is left
        _, restr, _ = sieved
        p = restr.setup.curve.p
        capped = 0
        for coeffs in candidates[:60]:
            for side in ("a", "b"):
                (r, m), = restr.den_factors[side]
                scale = r * r * r
                u, v = restr.restrict(coeffs, side)
                if u.is_zero() and v.is_zero():
                    continue
                uv = (u * scale, v * scale)
                norm = restr.norm(uv, side)
                num, den = _stripped_norm(restr, uv, side)
                assert num * _expand(1, restr.fixed[side][1], p) == norm.num
                assert den == factor(norm.den)[1]
                capped += not den
        assert capped > 0

    @pytest.mark.parametrize("kappa", [1, 2, 4])
    def test_trial_keeps_exactly_the_smooth_norms(self, sieved, candidates, kappa):
        # a side passes iff every factor of its reduced norm, numerator and
        # denominator, has degree <= kappa
        _, restr, _ = sieved
        for coeffs in candidates:
            for side in ("a", "b"):
                norm = restr.norm(restr.restrict(coeffs, side), side)
                if norm.is_zero():
                    continue
                smooth = all(
                    q.degree <= kappa
                    for q, _ in factor(norm.num)[1] + factor(norm.den)[1]
                )
                assert (_smooth_norm(restr, coeffs, side, kappa) is not None) == smooth

    def test_denominator_alone_rejects(self, sieved, candidates, sieved_minus, monkeypatch):
        # with every quotient let through, a side passes kappa = 1 iff its
        # fixed factors and the factors left in its denominator all have
        # degree <= 1.  For class (2, 2, 1) the fixed factors (a cubic on
        # side a, a quadratic on side b) reject every side.  For
        # (2, 2, -1) side a has none and side b's are linear, while side
        # b's D is (x^2 + 9x + 5)^3, so some sides are rejected by their
        # denominator alone
        import frobsieve.sieve2d as s2d

        monkeypatch.setattr(s2d, "smooth_pieces", lambda f, kappa: ())
        counts = {"fixed": 0, "den": 0, "passed": 0}
        for restr, sections in ((sieved[1], candidates), sieved_minus):
            for coeffs in sections:
                for side in ("a", "b"):
                    norm = restr.norm(restr.restrict(coeffs, side), side)
                    if norm.is_zero():
                        continue
                    fixed_ok = all(q.degree <= 1 for q, _ in restr.fixed[side][1])
                    den_ok = all(q.degree <= 1 for q, _ in factor(norm.den)[1])
                    passed = _smooth_norm(restr, coeffs, side, 1) is not None
                    assert passed == (fixed_ok and den_ok)
                    counts["fixed"] += not fixed_ok
                    counts["den"] += fixed_ok and not den_ok
                    counts["passed"] += passed
        assert all(counts.values()), counts

    def test_cached_values_match_horner(self, sieved, candidates):
        _, restr, _ = sieved
        for coeffs in candidates:
            for side in ("a", "b"):
                uv = restr.restrict(coeffs, side)
                expect = restr.value_at_intersection(restr.element(uv, side), side)
                assert _combine(coeffs, restr.values[side]) == expect

    @pytest.mark.parametrize("side", ["a", "b"])
    def test_intersection_point_on_a_denominator_root_rejected(self, ee11, sieved, side):
        # a point over a root of D has no value W = (U + y V)(P) / D(x_P).
        # No setup from ee_setup puts its intersection point there (see
        # EERestriction), so the point is put on a root of D's first
        # factor r, with F_p[X]/r standing in for L
        _, restr, _ = sieved
        ring = QuotientField(restr.den_factors[side][0][0])
        bad = copy.copy(ee11)
        bad.ext = copy.copy(ee11.ext)
        bad.ext.rep = copy.copy(ee11.ext.rep)
        bad.ext.rep.ring = ring
        point = (ring.x(), ring.one())
        if side == "a":
            bad.p_int = point
        else:
            bad.q_int = point
        with pytest.raises(SearchFailed, match=f"side {side}"):
            EERestriction(bad, restr.lin, 4)


class TestEEFixedPart:
    """The part of a side's norms that every section of the linear system
    shares, cached by `EERestriction._fixed_part` as (G, F, caps)."""

    @pytest.fixture(scope="class")
    def restrictions(self, sieved, sieved17, sieved_minus, excess):
        return {
            "11^7 (2, 2, 1)": sieved[1],
            "17^7 (2, 2, 1)": sieved17[1],
            "11^7 (2, 2, -1)": sieved_minus[0],
            "11^7 (3, 3, -1 + phi)": excess[0],
        }

    @pytest.mark.parametrize(
        "name",
        ["11^7 (2, 2, 1)", "17^7 (2, 2, 1)", "11^7 (2, 2, -1)", "11^7 (3, 3, -1 + phi)"],
    )
    def test_g_divides_every_raw_norm_and_is_their_gcd(self, restrictions, name):
        restr = restrictions[name]
        f = restr.ffops.f
        for side in ("a", "b"):
            g = restr.fixed[side][0]
            assert g.lc() == 1 and g.degree > 0
            common = Poly([], f.p)
            for coeffs in _sections(restr, 200, 31):
                u, v = restr.restrict(coeffs, side)
                raw = u * u - f * (v * v)
                assert (raw % g).is_zero()
                common = poly_gcd(common, raw)
            assert common == g

    def test_fixed_parts_at_17(self, sieved17):
        # side a: a quartic place, and G takes 3 of the 6 copies of x in
        # D^2; side b: places of degree 2 and 6, and G takes one copy of
        # x + 14 and none of the sextic factor of D
        _, restr, _ = sieved17
        degrees = {
            side: ([q.degree for q, _ in restr.fixed[side][1]],
                   [(r.degree, cap) for r, cap in restr.fixed[side][2]])
            for side in ("a", "b")
        }
        assert degrees == {"a": ([4], [(1, 3)]), "b": ([2, 6], [(1, 3), (6, 6)])}

    @pytest.mark.parametrize("which", ["sieved_minus", "excess"])
    def test_stripped_norm_matches_reduced_norm(self, request, which):
        # with no fixed factor on one side, and with a fixed valuation
        # above 2m, where nothing is stripped (cap 0)
        restr, sections = request.getfixturevalue(which)
        _check_stripped_norms(restr, sections)

    def test_excess_valuation_is_a_fixed_factor(self, excess):
        restr, _ = excess
        (r, m), = restr.den_factors["a"]
        g, fixed, caps = restr.fixed["a"]
        v0 = next(e for q, e in factor(g)[1] if q == r)
        assert v0 > 2 * m
        assert (r, v0 - 2 * m) in fixed
        assert caps == [(r, 0)]

    def test_side_a_quotient_needs_no_smoothness_test(self, sieved, monkeypatch):
        # at 11^7, kappa = 4, side a's norm is G = (x + 4)(x^3 + 5x^2 + 9x
        # + 3)(x + 5)^3 times a quotient of degree <= kappa, so its smoothness
        # test returns at once
        import frobsieve.sieve2d as s2d

        c, restr, _ = sieved
        degrees = []
        real = s2d.smooth_pieces

        def recording(f, kappa):
            degrees.append(f.degree)
            return real(f, kappa)

        monkeypatch.setattr(s2d, "smooth_pieces", recording)
        for coeffs in _sections(restr, 200, 37):
            _smooth_norm(restr, coeffs, "a", 4)
        assert degrees and max(degrees) <= 4

    def test_monomial_vectors_are_not_sections(self, sieved):
        # no basis vector e_i lies in the kernel: G divides neither of its
        # raw norms, and ee_relation refuses it at the exact division
        _, restr, _ = sieved
        f = restr.ffops.f
        n = len(restr.lin.kernel[0])
        for i in range(n):
            e = [0] * n
            e[i] = 1
            for side in ("a", "b"):
                u, v = restr.restrict(e, side)
                assert not ((u * u - f * (v * v)) % restr.fixed[side][0]).is_zero()
            with pytest.raises(ValueError, match="not a section"):
                ee_relation(restr, e, 4)


class TestEESetup:
    def test_deterministic(self, ee11):
        again = ee_setup(11, 7)
        assert again.alpha == ee11.alpha
        assert again.beta == ee11.beta
        assert again.a == ee11.a
        assert again.b == ee11.b

    def test_intersection_point_lies_on_both_curves(self, ee11):
        # the fiber identity that pins (a, b): beta(Q) + b = P
        ring = ee11.ring
        curve = ee11.curve
        frob = lambda R: (ring.pow(R[0], 11), ring.pow(R[1], 11))
        a_l = (ring.embed(ee11.a[0]), ring.embed(ee11.a[1]))
        from frobsieve.elliptic import ec_sub

        q = ec_sub(
            ring, curve.a4,
            ee11.alpha.apply(ring, curve.a4, ee11.p_int, frob),
            a_l,
        )
        assert q == ee11.q_int
        b_l = None
        if ee11.b is not None:
            b_l = (ring.embed(ee11.b[0]), ring.embed(ee11.b[1]))
        back = ec_add(
            ring, curve.a4,
            ee11.beta.apply(ring, curve.a4, ee11.q_int, frob),
            b_l,
        )
        assert back == ee11.p_int

    def test_json(self, ee11):
        data = ee11.to_json()
        assert data["p"] == 11 and data["d"] == 7
        assert data["alpha"] == [ee11.alpha.m, ee11.alpha.n]


class TestEESetupPinned:
    """One digest over the outputs of the EE set-up: the setup, the kernel
    and holdout of class (2, 2, 1 + 0 phi) at 11^7 (kappa 4) and 17^7
    (kappa 6), each side's restriction caches, and the endomorphism pair
    for every trace t with t^2 < 4p, p an odd prime below 100, at bounds
    1 and 12.  A change to the set-up that alters an output fails here."""

    DIGEST = "65ec781820d3d8ea719474cd3693099421b284f6d07832d16aa759381cc8b8e8"

    def test_outputs_pinned(self, sieved, sieved17):
        coords = lambda v: [v] if isinstance(v, int) else v.to_list()
        record = {}
        for name, (_, restr, _) in (("11^7", sieved), ("17^7", sieved17)):
            lin = restr.lin
            record[name] = {
                "setup": restr.setup.to_json(),
                "kernel": lin.kernel,
                "holdout": [[coords(v) for v in P + Q] for _, P, Q in lin.holdout],
                "common": restr.common,
                "den_factors": restr.den_factors,
                "fixed": restr.fixed,
                "values": restr.values,
            }
        pairs = []
        for p in range(3, 100, 2):
            if not all(p % k for k in range(3, p, 2)):
                continue
            t = 0
            while (t + 1) ** 2 < 4 * p:
                t += 1
            for tt in range(-t, t + 1):
                for bound in (1, 12):
                    alpha, beta = _endomorphism_pair(tt, p, bound)
                    pairs.append([tt, p, bound, alpha.m, alpha.n, beta.m, beta.n])
        assert len(pairs) == 2 * 596
        record["pairs"] = pairs
        text = json.dumps(record, sort_keys=True, default=lambda q: q.to_list())
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST


class TestFieldRoutinesPinned:
    """One digest over the outputs of the small field routines that the
    torus degree, elliptic interpolation and the EE linear system share:
    extended Euclid, the num - z*den kernel and the Riemann-Roch monomial
    values.  Any change to one of them that alters an output fails here."""

    DIGEST = "76331afd14d5128e7affe3f43902f9bbc6a239db9c7f89ed1250b90fb23230e3"

    @staticmethod
    def _elements(ring, seed: int, count: int):
        """1, x, then by turns a random element and a quotient a/b of
        polynomials in x of degree at most 2, which has a low degree."""
        rng = random.Random(seed)
        out = [ring.one(), ring.x()]
        while len(out) < count:
            if len(out) % 2:
                z = ring.random_el(rng)
            else:
                a, b = (ring.el([rng.randrange(ring.p) for _ in range(3)]) for _ in "ab")
                z = ring.div(a, b) if not b.is_zero() else b
            if not z.is_zero():
                out.append(z)
        return out

    def test_outputs_pinned(self, ee11, sieved):
        from frobsieve.elliptic import function_degree, interpolate
        from frobsieve.ffcore import find_irreducible, poly_invert_mod
        from frobsieve.galoisrep import build_torus, degree

        record = {}
        for p, d, u_r in ((13, 7, 8), (13, 7, None), (41, 7, None)):
            rep = build_torus(p, d, u_r=u_r)
            record[f"torus {p}^{d} u_r={u_r}"] = [
                degree(rep, z) for z in self._elements(rep.ring, 5, 30)
            ]
        certs = []
        ext = ee11.ext
        for z in self._elements(ext.ring, 7, 12):
            k0 = function_degree(ext, z)
            for k in (k0, k0 + 1):
                cert = interpolate(ext, z, k)
                certs.append([cert.t, cert.k, cert.num_coeffs, cert.den_coeffs,
                              cert.num.to_list(), cert.den.to_list()])
        record["interpolate 11^7"] = certs
        _, restr, _ = sieved
        record["linear_system_ee kernel"] = restr.lin.kernel
        record["EERestriction common"] = {
            side: [den.to_list(), [u.to_list() for u in us], [v.to_list() for v in vs]]
            for side, (den, us, vs) in sorted(restr.common.items())
        }
        A = find_irreducible(13, 7)
        ring = QuotientField(A)
        record["inverses 13^7"] = [
            poly_invert_mod(z, A).to_list() for z in self._elements(ring, 11, 200)
        ]
        text = json.dumps(record, sort_keys=True, default=list)
        assert hashlib.sha256(text.encode()).hexdigest() == self.DIGEST
