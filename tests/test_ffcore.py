"""Arithmetic core tests.

Derived expectations are computed by independent oracles in this file
(exhaustive enumeration, trial division, Moebius counting) rather than by
trusting the implementation under test.
"""

import random
import time
from itertools import count
from math import prod

import pytest

import frobsieve.ffcore as ffcore
from frobsieve.ffcore import (
    EVAL_PRIME_BOUND,
    NEG_INF,
    Echelon,
    FixedBasePowers,
    PackedModulus,
    Poly,
    PrimeField,
    PrimeOps,
    QuotientField,
    bsgs_dlog,
    crt,
    factor,
    factorize_int,
    find_irreducible,
    smooth_pieces,
    horner,
    is_irreducible,
    is_prime,
    kernel_basis,
    monic_irreducibles,
    poly_gcd,
    poly_invert_mod,
    poly_mul_mod,
    poly_pow_mod,
    poly_sort_key,
    primitive_root,
    resultant,
)
from frobsieve.errors import NonInvertible
from frobsieve.ffcore import _edf, _roots

# The primes on either side of EVAL_PRIME_BOUND: linear factors come from
# `_roots` up to the first, from gcd(f, X^p - X) and Cantor-Zassenhaus at
# the second.
_EVAL_TOP = max(q for q in range(2, EVAL_PRIME_BOUND + 1) if is_prime(q))
_ABOVE_EVAL = next(q for q in count(EVAL_PRIME_BOUND + 1) if is_prime(q))


def test_kummer_ring_examples():
    # x^3 * x^3 = r and x^43 = zeta * x in F_43[X]/(X^6 - 3)
    A = Poly([-3, 0, 0, 0, 0, 0, 1], 43)
    x3 = Poly([0, 0, 0, 1], 43)
    assert poly_mul_mod(x3, x3, A) == Poly([3], 43)
    x = Poly([0, 1], 43)
    assert poly_pow_mod(x, 43, A) == Poly([0, 37], 43)
    assert pow(3, 7, 43) == 37


def test_zero_degree_sentinel():
    z = Poly([], 17)
    assert z.degree is NEG_INF
    assert not z
    f = Poly([1, 2], 17)
    # degree is additive under multiplication, including the zero polynomial
    assert (z * f).degree is NEG_INF
    assert (f * f).degree == f.degree + f.degree


def test_ring_axioms_random():
    rng = random.Random(7)
    for p in (2, 3, 13, 43):
        F = PrimeField(p)
        for _ in range(60):
            f = F.random_poly(rng, rng.randrange(6))
            g = F.random_poly(rng, rng.randrange(6))
            h = F.random_poly(rng, rng.randrange(6))
            assert f + g == g + f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h


def test_divmod_random():
    rng = random.Random(11)
    F = PrimeField(31)
    for _ in range(200):
        f = F.random_poly(rng, rng.randrange(8))
        g = F.random_poly(rng, rng.randrange(1, 5))
        q, r = divmod(f, g)
        assert q * g + r == f
        assert r.degree is NEG_INF or r.degree < g.degree


def test_horner_over_each_adapter():
    # over F_p it is Poly.__call__; over F_p[X]/(A) it is composition mod A
    rng = random.Random(8)
    A = find_irreducible(13, 4)
    ring = QuotientField(A)
    for _ in range(30):
        f = Poly([rng.randrange(13) for _ in range(rng.randrange(7))], 13)
        c = rng.randrange(13)
        assert horner(PrimeOps(13), f, c) == f(c)
        z = ring.random_el(rng)
        assert horner(ring, f, z) == f.compose(z) % A


def test_eval_matches_remainder():
    rng = random.Random(13)
    F = PrimeField(101)
    for _ in range(100):
        f = F.random_poly(rng, rng.randrange(7))
        a = rng.randrange(101)
        assert f(a) == (f % Poly([-a, 1], 101)).constant_value()


def _trial_division_irreducible(f):
    # oracle: divide by every monic polynomial of smaller positive degree
    p = f.p
    n = f.degree
    if n < 1:
        return False
    for k in range(1, n // 2 + 1):
        for enc in range(p ** k):
            coeffs, v = [], enc
            for _ in range(k):
                coeffs.append(v % p)
                v //= p
            coeffs.append(1)
            if (f % Poly(coeffs, p)).is_zero():
                return False
    return True


@pytest.mark.parametrize("p,maxdeg", [(2, 8), (3, 5)])
def test_is_irreducible_vs_trial_division(p, maxdeg):
    for n in range(1, maxdeg + 1):
        for enc in range(p ** n):
            coeffs, v = [], enc
            for _ in range(n):
                coeffs.append(v % p)
                v //= p
            coeffs.append(1)
            f = Poly(coeffs, p)
            assert is_irreducible(f) == _trial_division_irreducible(f)


# ---------------------------------------------------------------------------
# The irreducibility oracle: Rabin's test, which `is_irreducible` ran before
# the distinct-degree peel.


def _rabin_irreducible(f):
    """Rabin (1980): f of degree n >= 1 is irreducible exactly when f
    divides X^(p^n) - X and gcd(f, X^(p^(n/l)) - X) = 1 for every prime l
    dividing n."""
    n = f.degree
    if n is NEG_INF or n == 0:
        return False
    p = f.p
    x = Poly([0, 1], p)
    if poly_pow_mod(x, p ** n, f) != x % f:
        return False
    return all(
        poly_gcd(f, poly_pow_mod(x, p ** (n // ell), f) - x).degree == 0
        for ell in factorize_int(n)
    )


IRREDUCIBILITY_PRIMES = [2, 3, 11, 43, 199]


def _irreducibility_cases(p):
    """Random monic and non-monic polynomials of degree 0-24, products of
    two irreducibles of equal degree, squares of irreducibles and p-th
    powers g(X^p)."""
    rng = random.Random(p * 17 + 3)
    cases = []
    for n in range(25):
        cases.append(Poly([rng.randrange(p) for _ in range(n)] + [1], p))
        cases.append(Poly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p))
    for k in range(1, 7):
        g = _random_irreducible(p, k, rng)
        cases.append(g * _random_irreducible(p, k, rng) * rng.randrange(1, p))
        cases.append(g * g)
    for k in (1, 2) if p < 43 else (1,):
        g = Poly([rng.randrange(p) for _ in range(k)] + [1], p)
        cases.append(g.compose(Poly([0] * p + [1], p)))
    return cases


@pytest.fixture(scope="module")
def builder_moduli():
    """The moduli the builders confirm (Kummer 43^6 and 199^11, torus 13^7
    and 109^11, Artin-Schreier 7 and 31, elliptic 11^7), each followed by
    its shifts by the constants 1, 2 and 3, which may or may not factor."""
    from frobsieve.elliptic import build_elliptic_residue
    from frobsieve.galoisrep import build_artin_schreier, build_kummer, build_torus

    reps = [build_kummer(43, 6), build_kummer(199, 11), build_torus(13, 7),
            build_torus(109, 11), build_artin_schreier(7), build_artin_schreier(31),
            build_elliptic_residue(11, 7).rep]
    return [rep.A + c for rep in reps for c in range(4)]


@pytest.mark.parametrize("p", IRREDUCIBILITY_PRIMES)
def test_is_irreducible_matches_rabin(p):
    seen = set()
    for f in _irreducibility_cases(p):
        want = _rabin_irreducible(f)
        assert is_irreducible(f) == want, f
        seen.add(want)
    assert seen == {True, False}


def test_builder_moduli_irreducible(builder_moduli):
    for i, f in enumerate(builder_moduli):
        want = _rabin_irreducible(f)
        assert want or i % 4, f  # each modulus itself, before its shifts
        assert is_irreducible(f) == want, f


def test_is_irreducible_against_sympy(builder_moduli):
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    cases = [f for p in IRREDUCIBILITY_PRIMES for f in _irreducibility_cases(p)]
    for f in cases + builder_moduli:
        want = f.degree >= 1 and sympy.Poly(f.coeffs[::-1], x, modulus=f.p).is_irreducible
        assert is_irreducible(f) == want, f


def test_factor_recomposition_bulk():
    # 1000+ random polynomials across several small fields
    rng = random.Random(42)
    cases = 0
    for p in (2, 3, 7, 43):
        F = PrimeField(p)
        for _ in range(260):
            f = F.random_poly(rng, rng.randrange(1, 9))
            unit, factors = factor(f)
            prod = Poly([unit], p)
            for q, m in factors:
                assert q.lc() == 1
                for _ in range(m):
                    prod = prod * q
            assert prod == f
            cases += 1
    assert cases >= 1000


def test_factor_components_irreducible_and_deterministic():
    rng = random.Random(5)
    F = PrimeField(13)
    for _ in range(50):
        f = F.random_poly(rng, 8)
        _, factors = factor(f)
        for q, _ in factors:
            assert is_irreducible(q)
        assert factor(f) == factor(f)


def test_factor_pth_power():
    # f = (X^2 + 1)^3 over F_3 exercises the p-th root branch
    p = 3
    base = Poly([1, 0, 1], p)
    f = base * base * base
    unit, factors = factor(f)
    assert unit == 1
    assert factors == [(Poly([1, 0, 1], p), 3)]
    prod = Poly([1], p)
    for q, m in factors:
        for _ in range(m):
            prod = prod * q
    assert prod == f


def test_frobenius_is_additive():
    rng = random.Random(77)
    for p in (3, 7, 13):
        A = find_irreducible(p, 4)
        F = PrimeField(p)
        for _ in range(40):
            f = F.random_poly(rng, 3)
            g = F.random_poly(rng, 3)
            lhs = poly_pow_mod(f + g, p, A)
            rhs = (poly_pow_mod(f, p, A) + poly_pow_mod(g, p, A)) % A
            assert lhs == rhs


def test_invert_mod():
    rng = random.Random(3)
    A = find_irreducible(11, 5)
    F = PrimeField(11)
    for _ in range(60):
        f = F.random_poly(rng, rng.randrange(5))
        if f.is_zero():
            continue
        inv = poly_invert_mod(f, A)
        assert (f * inv) % A == Poly([1], 11)


def test_invert_mod_every_unit_and_no_other():
    # Euclid ends at a zero remainder exactly when f is not a unit
    A = Poly([2, 0, 0, 1], 7)  # X^3 + 2
    assert is_irreducible(A)
    ring = QuotientField(A)
    for f in ring.elements():
        if f.is_zero():
            with pytest.raises(NonInvertible):
                poly_invert_mod(f, A)
        else:
            assert ring.mul(f, poly_invert_mod(f, A)) == ring.one()
    with pytest.raises(NonInvertible):
        poly_invert_mod(Poly([-1, 1], 7), Poly([-1, 0, 1], 7))  # X - 1 mod X^2 - 1


def _moebius(n):
    result, m = 1, n
    f = 2
    while f * f <= m:
        if m % f == 0:
            m //= f
            if m % f == 0:
                return 0
            result = -result
        f += 1
    if m > 1:
        result = -result
    return result


def _irreducible_count(p, k):
    return sum(_moebius(e) * p ** (k // e) for e in range(1, k + 1) if k % e == 0) // k


def test_monic_irreducible_enumeration_counts():
    for p, maxdeg in ((3, 5), (7, 3)):
        found = {}
        for q in monic_irreducibles(p, maxdeg):
            found[q.degree] = found.get(q.degree, 0) + 1
        for k in range(1, maxdeg + 1):
            assert found[k] == _irreducible_count(p, k)
    # the factor-base instance used by the acceptance runs
    count = sum(1 for _ in monic_irreducibles(43, 2))
    assert count == 43 + (43 * 43 - 43) // 2


def _irreducibles_by_filter(p, maxdeg):
    # the definition: every monic candidate in canonical order, kept when
    # the x^(p^k) ladder says it is irreducible
    out = []
    for k in range(1, maxdeg + 1):
        for n in range(p ** k):
            q = Poly([(n // p ** i) % p for i in range(k)] + [1], p)
            if k == 1 or is_irreducible(q):
                out.append(q)
    return out


@pytest.mark.parametrize("p, maxdeg", [(2, 8), (3, 5), (5, 4), (7, 3), (13, 2)])
def test_monic_irreducibles_sieve_matches_filter(p, maxdeg):
    assert list(monic_irreducibles(p, maxdeg)) == _irreducibles_by_filter(p, maxdeg)


def test_monic_irreducibles_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    p = 11
    expected = []
    for k in range(1, 4):
        for n in range(p ** k):
            coeffs = [(n // p ** i) % p for i in range(k)] + [1]
            if sympy.Poly(coeffs[::-1], x, modulus=p).is_irreducible:
                expected.append(tuple(coeffs))
    assert [q.coeffs for q in monic_irreducibles(p, 3)] == expected


def test_find_irreducible_scans_target_degree():
    assert find_irreducible(11, 5) == Poly([2, 0, 0, 0, 0, 1], 11)
    assert find_irreducible(2, 1) == Poly([0, 1], 2)
    for p, k in ((2, 6), (3, 4), (7, 3), (43, 2)):
        first = next(q for q in monic_irreducibles(p, k) if q.degree == k)
        assert find_irreducible(p, k) == first


def test_primitive_roots():
    # exhaustive-order oracle at p=7
    orders = {g: min(k for k in range(1, 7) if pow(g, k, 7) == 1) for g in range(1, 7)}
    smallest = min(g for g, o in orders.items() if o == 6)
    assert primitive_root(7) == smallest == 3
    assert primitive_root(2) == 1
    assert primitive_root(43) == 3
    assert primitive_root(370801) == 17


def test_primitive_roots_against_sympy():
    # sympy also returns the smallest primitive root of a prime
    sympy = pytest.importorskip("sympy")
    from sympy.ntheory import primitive_root as sympy_primitive_root

    primes = list(sympy.primerange(2, 2000)) + [370801]
    assert len(primes) == 304
    for p in primes:
        assert primitive_root(p) == sympy_primitive_root(p), p


def test_bsgs_dlog():
    rng = random.Random(1)
    p = 370801
    g = 17
    for _ in range(20):
        e = rng.randrange(p - 1)
        assert bsgs_dlog(PrimeOps(p), g, pow(g, e, p), p - 1) == e


def test_bsgs_dlog_in_subgroup_of_extension():
    # the same routine over F_43[X]/(X^6 - 3), in the subgroup of order 631
    ring = QuotientField(Poly([-3, 0, 0, 0, 0, 0, 1], 43))
    N = 43**6 - 1
    gamma = ring.pow(ring.el([2, 1]), N // 631)
    assert gamma != ring.one() and ring.pow(gamma, 631) == ring.one()
    rng = random.Random(2)
    for _ in range(10):
        e = rng.randrange(631)
        assert bsgs_dlog(ring, gamma, ring.pow(gamma, e), 631) == e
    with pytest.raises(ValueError):
        bsgs_dlog(ring, gamma, ring.x(), 631)  # x has order N, not 631


def test_is_prime_and_factorize():
    assert is_prime(2) and is_prime(43) and is_prime(370801)
    assert not is_prime(1) and not is_prime(62748516)
    # the degree-11 orders leave cofactors above 10^8 after trial
    # division: composite for 43 and 199 (rho splits them), prime for 109
    for n in (43 ** 6 - 1, 13 ** 7 - 1, 7 ** 7 - 1, 11 ** 7 - 1, 360,
              43 ** 11 - 1, 109 ** 11 - 1, 199 ** 11 - 1):
        fac = factorize_int(n)
        prod = 1
        for q, m in fac.items():
            assert is_prime(q)
            prod *= q ** m
        assert prod == n


def test_factorize_int_matches_sympy():
    sympy = pytest.importorskip("sympy")
    ladder = [43 ** 6, 61 ** 6, 7 ** 7, 11 ** 7, 13 ** 7, 17 ** 7, 29 ** 7, 71 ** 7, 43 ** 5,
              43 ** 11, 109 ** 11, 199 ** 11]
    # primes on either side of the trial-division bound 10^4 and of 10^6
    below, above = (9967, 9973, 999961, 999983), (10007, 10009, 1000003, 1000033)
    products = [a * b for a in below + above for b in below + above if a < b]
    powers = [q ** e for q in (10007, 1000003, 4294967311) for e in (2, 3)]
    rng = random.Random(29)
    randoms = [rng.randrange(2, 2 ** 48) for _ in range(60)]
    for n in [N - 1 for N in ladder] + products + powers + randoms:
        fac = factorize_int(n)
        if n == 199 ** 11 - 1:
            # factorint takes 1-2.5 s here; primes that multiply back to n
            # are its answer, since the factorization is unique
            assert all(sympy.isprime(q) for q in fac)
            assert prod(q ** m for q, m in fac.items()) == n
        else:
            assert fac == sympy.factorint(n), n


def test_is_prime_matches_trial_division():
    limit = 2 * 10 ** 5
    small = [f for f in range(2, 448) if all(f % e for e in range(2, f))]
    for n in range(limit):
        by_division = n >= 2 and all(n % f for f in small if f * f <= n)
        assert is_prime(n) == by_division, n


def test_is_prime_rejects_strong_pseudoprimes():
    # strong pseudoprimes to the bases 2..7, 2..23 and 2..37 in turn; the
    # last is why the bases run on to 41
    assert 318665857834031151167461 == 399165290221 * 798330580441
    for n in (3215031751, 3825123056546413051, 318665857834031151167461):
        assert not is_prime(n)


def test_is_prime_large_is_fast():
    start = time.perf_counter()
    assert is_prime(2 ** 89 - 1)
    assert not is_prime(2 ** 89 + 1)
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.perf_counter() - start < 1.0


def test_crt():
    rng = random.Random(2)
    moduli = [8, 9, 5, 7, 11]
    M = 1
    for m in moduli:
        M *= m
    for _ in range(50):
        x = rng.randrange(M)
        assert crt([x % m for m in moduli], moduli) == x


# ---------------------------------------------------------------------------
# The echelon against dense Gauss-Jordan elimination, which the library ran
# before: a full reduced row echelon form of the whole matrix at once.


def rref_mod_p(rows, p):
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


def rref_kernel(rows, ncols, p):
    """The kernel basis read from rref_mod_p: per free column, 1 there and
    minus that column of the reduced rows at the pivots."""
    if not rows:
        return [[1 if i == j else 0 for i in range(ncols)] for j in range(ncols)]
    rref, pivots = rref_mod_p(rows, p)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rref, pivots):
            vec[pc] = (-row[fc]) % p
        basis.append(vec)
    return basis


def solve_mod_prime(rows, rhs, p):
    """Solve A x = b over F_p: (particular solution with every free column 0,
    free column list), or None if inconsistent."""
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


def echelon_of(rows, rhs, p):
    ech = Echelon(len(rows[0]), p)
    for row, b in zip(rows, rhs):
        ech.add(dict(enumerate(row)), b)
    return ech


def random_matrix(rng, nrows, ncols, p):
    """A random matrix with a random share of zero entries, sometimes with
    repeated or scaled rows, so rank deficiency is common."""
    density = rng.random()
    rows = []
    for _ in range(nrows):
        if rows and rng.random() < 0.2:
            k = rng.randrange(p)
            rows.append([k * v % p for v in rng.choice(rows)])
        else:
            rows.append([rng.randrange(1, p) if rng.random() < density else 0
                         for _ in range(ncols)])
    return rows


def test_kernel_and_solve():
    rng = random.Random(4)
    p = 13
    for _ in range(40):
        rows = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        for vec in kernel_basis(rows, 6, p):
            assert any(vec)
            for row in rows:
                assert sum(a * b for a, b in zip(row, vec)) % p == 0
        x = [rng.randrange(p) for _ in range(6)]
        rhs = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
        part = echelon_of(rows, rhs, p).solve()
        for row, b in zip(rows, rhs):
            assert sum(a * v for a, v in zip(row, part)) % p == b


@pytest.mark.parametrize("p", [2, 3, 7, 11, 43, 199])
def test_kernel_basis_matches_rref(p):
    # no rows, fewer rows than columns, more rows than columns, any density
    rng = random.Random(p)
    for _ in range(200):
        ncols = rng.randrange(1, 11)
        rows = random_matrix(rng, rng.randrange(0, 13), ncols, p)
        basis = kernel_basis(rows, ncols, p)
        assert basis == rref_kernel(rows, ncols, p)
        for vec in basis:
            assert all(sum(a * b for a, b in zip(row, vec)) % p == 0 for row in rows)


@pytest.mark.parametrize("p", [11, 5229043])
def test_echelon_matches_dense_solve(p):
    rng = random.Random(p)
    kinds = {"full": 0, "deficient": 0, "inconsistent": 0}
    for _ in range(150):
        ncols = rng.randrange(1, 25)
        rows = random_matrix(rng, rng.randrange(1, 2 * ncols + 2), ncols, p)
        x = [rng.randrange(p) for _ in range(ncols)]
        rhs = [sum(a * b for a, b in zip(row, x)) % p for row in rows]
        want = solve_mod_prime(rows, rhs, p)
        ech = echelon_of(rows, rhs, p)
        part, free = want
        assert sorted(ech.pivots) == [c for c in range(ncols) if c not in free]
        assert ech.full == (not free)
        got = ech.solve()
        assert got == part
        assert all(sum(a * v for a, v in zip(row, got)) % p == b for row, b in zip(rows, rhs))
        if not free:
            kinds["full"] += 1
            assert got == x
        else:
            kinds["deficient"] += 1
        # a combination of the rows with its right side off by one
        weights = [rng.randrange(p) for _ in rows]
        if any(weights[i] and any(row) for i, row in enumerate(rows)):
            combo = [sum(w * row[c] for w, row in zip(weights, rows)) % p for c in range(ncols)]
            if any(combo):
                kinds["inconsistent"] += 1
                bad = sum(w * b for w, b in zip(weights, rhs)) + 1
                assert solve_mod_prime(rows + [combo], rhs + [bad], p) is None
                with pytest.raises(ValueError, match=str(p)):
                    ech.add(dict(enumerate(combo)), bad)
    assert min(kinds.values()) >= 20, kinds


# ---------------------------------------------------------------------------
# The packed kernel and the fixed-base table, against plain schoolbook
# arithmetic on coefficient lists.


def _schoolbook_mulmod(a, b, m, p):
    """(a * b) % m on coefficient lists, low degree first; m may be non-monic."""
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    prod = [c % p for c in prod]
    d = len(m) - 1
    inv = pow(m[-1], -1, p)
    for top in range(len(prod) - 1, d - 1, -1):
        q = prod[top] * inv % p
        for j, c in enumerate(m):
            prod[top - d + j] = (prod[top - d + j] - q * c) % p
    return Poly(prod[:d], p)


def _schoolbook_pow(f, e, m, p):
    result = _schoolbook_mulmod([1], [1], m, p)
    base = _schoolbook_mulmod(list(f.coeffs), [1], m, p)
    while e:
        if e & 1:
            result = _schoolbook_mulmod(list(result.coeffs), list(base.coeffs), m, p)
        base = _schoolbook_mulmod(list(base.coeffs), list(base.coeffs), m, p)
        e >>= 1
    return result


KERNEL_FIELDS = [(2, 8), (3, 5), (43, 6), (199, 11), (2 ** 61 - 1, 3)]


@pytest.mark.parametrize("p, d", KERNEL_FIELDS)
def test_packed_mulmod_matches_schoolbook(p, d):
    rng = random.Random(p * 31 + d)
    monic = find_irreducible(p, d)
    # a random non-monic modulus, and a degree-1 one
    non_monic = Poly([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)], p)
    linear = Poly([rng.randrange(p), rng.randrange(1, p)], p)
    ring = QuotientField(monic)
    for m in (monic, non_monic, linear):
        for _ in range(40):
            # inputs need not be reduced below the modulus
            a = Poly([rng.randrange(p) for _ in range(rng.randrange(2 * d + 2))], p)
            b = Poly([rng.randrange(p) for _ in range(rng.randrange(2 * d + 2))], p)
            want = _schoolbook_mulmod(list(a.coeffs), list(b.coeffs), list(m.coeffs), p)
            assert poly_mul_mod(a, b, m) == want
            if m is monic:
                assert ring.mul(a, b) == want
    # the all-(p-1) element squared has the largest product slots
    top = Poly([p - 1] * d, p)
    assert ring.mul(top, top) == _schoolbook_mulmod(
        [p - 1] * d, [p - 1] * d, list(monic.coeffs), p
    )
    other = Poly([1, 1], 3 if p == 2 else 2)
    with pytest.raises(ValueError, match="mixed moduli"):
        ring.mul(other, top)


@pytest.mark.parametrize("p, d", KERNEL_FIELDS)
def test_packed_pow_matches_schoolbook(p, d):
    rng = random.Random(p * 37 + d)
    monic = find_irreducible(p, d)
    non_monic = Poly([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)], p)
    linear = Poly([rng.randrange(p), rng.randrange(1, p)], p)
    N = p ** d - 1
    for m in (monic, non_monic, linear):
        for e in [0, 1, 2, p, N] + [rng.randrange(N) for _ in range(8)]:
            f = Poly([rng.randrange(p) for _ in range(2 * d)], p)
            assert poly_pow_mod(f, e, m) == _schoolbook_pow(f, e, list(m.coeffs), p)
    ring = QuotientField(monic)
    one = Poly([1], p)
    for _ in range(5):
        f = ring.random_el(rng)
        if f.is_zero():
            continue
        e = rng.randrange(1, N)
        inv_power = poly_pow_mod(f, -e, monic)
        direct = _schoolbook_pow(f, e, list(monic.coeffs), p)
        assert _schoolbook_mulmod(list(inv_power.coeffs), list(direct.coeffs),
                                  list(monic.coeffs), p) == one
        assert ring.pow(f, -e) == inv_power


@pytest.mark.parametrize("p, d", KERNEL_FIELDS)
def test_packed_frobenius_matches_schoolbook(p, d):
    # a^p by the p-power matrix
    rng = random.Random(p * 43 + d)
    monic = find_irreducible(p, d)
    non_monic = Poly([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)], p)
    linear = Poly([rng.randrange(p), rng.randrange(1, p)], p)
    x = Poly([0, 1], p)
    for m in (monic, non_monic, linear):
        mods = list(m.coeffs)
        elements = [x, Poly([p - 1] * d, p)] + [
            Poly([rng.randrange(p) for _ in range(d)], p) for _ in range(10)
        ]
        k = PackedModulus(m)
        for a in elements:
            got = k.unpack(k.frobenius(k.pack(a)))
            assert got == _schoolbook_pow(a, p, mods, p), (m, a)


def test_poly_pow_mod_against_sympy():
    pytest.importorskip("sympy")
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_pow_mod

    rng = random.Random(11)
    for p, d in ((2, 8), (3, 5), (43, 6), (199, 11)):
        for m in (find_irreducible(p, d),
                  Poly([rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)], p)):
            for _ in range(5):
                f = Poly([rng.randrange(p) for _ in range(d + 3)], p)
                e = rng.randrange(p ** d)
                want = gf_pow_mod([ZZ(c) for c in reversed(f.coeffs)], e,
                                  [ZZ(c) for c in reversed(m.coeffs)], p, ZZ)
                assert poly_pow_mod(f, e, m) == Poly([int(c) for c in reversed(want)], p)


@pytest.mark.parametrize("p, d", [(2, 8), (43, 6), (199, 11)])
def test_fixed_base_powers_match_ring_pow(p, d):
    rng = random.Random(p + d)
    ring = QuotientField(find_irreducible(p, d))
    N = p ** d - 1
    g = ring.el([rng.randrange(p) for _ in range(d)] + [1])
    table = FixedBasePowers(ring, g, N)
    for e in [0, 1, N - 1, N, 2 * N + 5] + [rng.randrange(N) for _ in range(30)]:
        assert table.pow(e) == ring.pow(g, e)
    for e in (-1, -N - 3, -rng.randrange(N)):
        assert table.pow(e) == ring.pow(g, e % N)


def _sylvester_resultant(f, g, p):
    """det of the Sylvester matrix of f and g over F_p, by elimination."""
    m, n = f.degree, g.degree
    F, G = list(reversed(f.coeffs)), list(reversed(g.coeffs))
    rows = [[0] * i + F + [0] * (n - 1 - i) for i in range(n)]
    rows += [[0] * i + G + [0] * (m - 1 - i) for i in range(m)]
    det = 1
    for c in range(len(rows)):
        piv = next((r for r in range(c, len(rows)) if rows[r][c] % p), None)
        if piv is None:
            return 0
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det = det * rows[c][c] % p
        inv = pow(rows[c][c], -1, p)
        for r in range(c + 1, len(rows)):
            f_ = rows[r][c] * inv % p
            rows[r] = [(a - f_ * b) % p for a, b in zip(rows[r], rows[c])]
    return det % p


def test_resultant_matches_sylvester_determinant():
    rng = random.Random(5)
    for p in (2, 3, 7, 43):
        for _ in range(150):
            f = Poly([rng.randrange(p) for _ in range(rng.randrange(1, 8))], p)
            g = Poly([rng.randrange(p) for _ in range(rng.randrange(1, 8))], p)
            if f and g:
                assert resultant(f, g) == _sylvester_resultant(f, g, p)


def test_resultant_is_the_norm():
    # for a monic modulus A, Res(A, g) = g^((p^d - 1)/(p - 1)) in F_p[X]/(A)
    rng = random.Random(6)
    for p, d in ((3, 5), (13, 7), (43, 6)):
        ring = QuotientField(find_irreducible(p, d))
        N = p ** d - 1
        for _ in range(20):
            g = ring.random_el(rng)
            if not g.is_zero():
                assert ring.pow(g, N // (p - 1)) == Poly([resultant(ring.modulus, g)], p)


@pytest.mark.parametrize("p, d", KERNEL_FIELDS)
def test_packed_sub_matches_poly(p, d):
    rng = random.Random(p * 41 + d)
    m = find_irreducible(p, d)
    k = PackedModulus(m)
    for _ in range(40):
        a = Poly([rng.randrange(p) for _ in range(d)], p)
        b = Poly([rng.randrange(p) for _ in range(d)], p)
        assert k.unpack(k.sub(k.pack(a), k.pack(b))) == a - b
    top = Poly([p - 1] * d, p)
    assert k.sub(k.pack(top), k.pack(top)) == 0


# ---------------------------------------------------------------------------
# The early-abort smoothness test.


def _smooth_by_factor(f, kappa):
    return all(q.degree <= kappa for q, _ in factor(f)[1])


def _power(q, e):
    out = Poly([1], q.p)
    for _ in range(e):
        out = out * q
    return out


def _random_irreducible(p, k, rng):
    while True:
        q = Poly([rng.randrange(p) for _ in range(k)] + [1], p)
        if is_irreducible(q):
            return q


def _smoothness_cases(p, kappa, rng):
    """Random polynomials, products of irreducibles with repeated factors
    (g^3 h), p-th powers g(X^p), degrees <= kappa and constants."""
    cases = []
    for _ in range(25):
        cases.append(Poly([rng.randrange(p) for _ in range(rng.randrange(2, 11))], p))
    for top in (kappa, kappa + 1):
        # g of degree exactly top, so a factor of degree kappa must be caught
        g = _random_irreducible(p, top, rng)
        h = _random_irreducible(p, rng.randrange(1, kappa + 1), rng)
        cases.append(_power(g, 3) * h * rng.randrange(1, p))
        cases.append(g * _power(h, 4))
        cases.append(_power(h, 5))
    for _ in range(4):
        f = Poly([1], p)
        for _ in range(rng.randrange(1, 4)):
            q = _random_irreducible(p, rng.randrange(1, kappa + 2), rng)
            f = f * _power(q, rng.randrange(1, 4))
        cases.append(f)
    for _ in range(3):
        g = Poly([rng.randrange(p) for _ in range(rng.randrange(2, 4))] + [1], p)
        f = g.compose(Poly([0] * p + [1], p))  # g(X^p)
        assert f.derivative().is_zero()
        cases.append(f)
    for n in range(kappa + 1):
        cases.append(Poly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p))
    return [f for f in cases if f]


@pytest.mark.parametrize("kappa", [1, 2, 3])
@pytest.mark.parametrize("p", [2, 3, 5, 43, 199])
def test_is_smooth_matches_factor(p, kappa):
    rng = random.Random(p * 7 + kappa)
    seen = set()
    for f in _smoothness_cases(p, kappa, rng):
        want = _smooth_by_factor(f, kappa)
        assert (smooth_pieces(f, kappa) is not None) == want, (f, kappa)
        seen.add(want)
    assert seen == {True, False}


def _ladder_cases(p, kappa, rng):
    """The smoothness cases plus smooth p-th powers (f' = 0) and smooth
    products with repeated factors, so that every kind of passer occurs."""
    cases = _smoothness_cases(p, kappa, rng)
    for _ in range(3):
        h = Poly([1], p)
        for _ in range(rng.randrange(1, 3)):
            h = h * _random_irreducible(p, rng.randrange(1, kappa + 1), rng)
        cases.append(_power(h, p) * rng.randrange(1, p))
        cases.append(_power(h, 2) * _random_irreducible(p, kappa, rng))
    # passers of degree kappa + 1 and 2 kappa, which the peel decides
    q = _random_irreducible(p, kappa, rng)
    cases.append(q * _random_irreducible(p, 1, rng))
    cases.append(q * _random_irreducible(p, kappa, rng))
    for _ in range(2):
        # degree >= 10: p-power matrices of many rows, passers and not
        h = Poly([1], p)
        while h.degree < 10:
            h = h * _random_irreducible(p, rng.randrange(1, kappa + 1), rng)
        cases.append(h)
        cases.append(h * _random_irreducible(p, kappa + 1, rng))
        cases.append(Poly([rng.randrange(p) for _ in range(rng.randrange(10, 15))] + [1], p))
    return cases


@pytest.mark.parametrize("kappa", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [2, 3, 5, 11, 43, 199])
def test_ladder_split_matches_factor(p, kappa):
    # every passer of degree > kappa, on both sides of 2 kappa, gets back
    # its distinct-degree pieces: monic, of degree a multiple of k <= kappa,
    # multiplying back to the monic f; a passer of degree <= kappa gets
    # none.  The split from them is the plain factorization
    rng = random.Random(p * 11 + kappa)
    kinds = set()
    for f in _ladder_cases(p, kappa, rng):
        pieces = smooth_pieces(f, kappa)
        assert (pieces is not None) == _smooth_by_factor(f, kappa), (f, kappa)
        if pieces is None:
            continue
        if f.degree <= kappa:
            assert pieces == ()
            kinds.add("low degree")
        else:
            prod = Poly([1], p)
            for k, m, piece in pieces:
                assert 1 <= k <= kappa and m >= 1, (f, kappa, pieces)
                assert piece[-1] == 1 and (len(piece) - 1) % k == 0, (f, kappa, pieces)
                prod = prod * _power(Poly(piece, p), m)
            assert prod == f.monic(), (f, kappa)
            kinds.add("peeled" if f.degree <= 2 * kappa else "product test")
        unit, facs = factor(f, pieces=pieces)
        assert (unit, facs) == factor(f)
        assert all(is_irreducible(q) and q.degree <= kappa for q, _ in facs)
        if f.derivative().is_zero() and f.degree > 0:
            kinds.add("p-th power")
        if any(m > 1 for _, m in facs):
            kinds.add("repeated factor")
        if f.degree >= 10:
            kinds.add("degree >= 10")
    assert kinds == {"low degree", "peeled", "product test", "p-th power", "repeated factor",
                     "degree >= 10"}


@pytest.mark.parametrize("p", [3, 5, 13, 17, 41, 43, 97, _ABOVE_EVAL])
def test_two_roots_split_by_quadratic_formula(p):
    # pairs of distinct roots split into their two linear factors, from
    # `_roots` and, above EVAL_PRIME_BOUND, from Cantor-Zassenhaus
    rng = random.Random(p)
    for _ in range(60):
        r1, r2 = rng.sample(range(p), 2)
        f = Poly([-r1, 1], p) * Poly([-r2, 1], p)
        want = sorted([Poly([-r1, 1], p), Poly([-r2, 1], p)], key=lambda q: q.coeffs[0])
        assert factor(f) == (1, [(q, 1) for q in want])


def test_quadratics_against_sympy():
    # every monic quadratic: two roots, a double root and irreducible ones,
    # so both outcomes of the discriminant test and the zero discriminant
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for p in (3, 5, 13):
        for c in range(p):
            for b in range(p):
                f = Poly([c, b, 1], p)
                _, facs = sympy.Poly([1, b, c], x, modulus=p).factor_list()
                want = sorted(
                    (tuple(v % p for v in reversed(q.all_coeffs())), m) for q, m in facs
                )
                unit, got = factor(f)
                assert unit == 1
                assert sorted((q.coeffs, m) for q, m in got) == want, f


def _mislabelled_edf(f, k):
    rng = random.Random(5)
    with pytest.raises(ValueError):
        _edf(f, k, lambda n: [rng.randrange(f.p) for _ in range(n)])


@pytest.mark.parametrize("p", [2, 3, 43, _ABOVE_EVAL])
def test_edf_rejects_mislabelled_pieces(p):
    # a piece whose factors are not all of degree k raises ValueError
    # instead of drawing forever
    rng = random.Random(p)
    quad = _random_irreducible(p, 2, rng)
    lin = [Poly([r, 1], p) for r in range(min(p, 3))]
    for m in range(len(lin) + 1):
        piece = quad
        for q in lin[:m]:
            piece = piece * q
        _mislabelled_edf(piece, 1)
    _mislabelled_edf(_random_irreducible(p, 4, rng), 2)
    _mislabelled_edf(_random_irreducible(p, 3, rng), 2)  # 2 does not divide 3
    _mislabelled_edf(quad * _random_irreducible(p, 3, rng), 2)


def _roots_by_horner(f, p):
    roots = []
    for x in range(p):
        v = 0
        for c in reversed(f):
            v = (v * x + c) % p
        if not v:
            roots.append(x)
    return roots


def _root_cases(p, top, rng):
    """Coefficient lists over F_p: random ones of degree 1 to top (every
    degree up to 46, a stride of 17 above, and the last five), X^p - X,
    whose roots are all of F_p, and products of linear factors with
    repeats, each with the root 0."""
    degrees = sorted({*range(1, min(top, 46) + 1), *range(47, top + 1, 17),
                      *range(max(1, top - 4), top + 1)})
    cases = [[rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)] for n in degrees]
    cases.append([0, p - 1] + [0] * (p - 2) + [1])
    for _ in range(10):
        f = Poly([0, rng.randrange(1, p)], p)
        for _ in range(rng.randrange(1, 5)):
            f = f * _power(Poly([rng.randrange(p), 1], p), rng.randrange(1, 4))
        cases.append(list(f.coeffs))
    return cases


@pytest.mark.parametrize("p", [2, 3, 11, 43, 199, _EVAL_TOP])
def test_roots_match_horner(p):
    # evaluation at every point of F_p at once finds the distinct roots
    # that Horner's rule finds point by point, on both sides of degree p,
    # where f is first reduced mod X^p - X: the table of p never holds
    # more than p rows, so at most p terms add up in a slot
    rng = random.Random(p * 7 + 3)
    for f in _root_cases(p, p + 3, rng):
        assert _roots(f, p) == _roots_by_horner(f, p), f
    assert _roots([0, p - 1] + [0] * (p - 2) + [1], p) == list(range(p))
    assert len(ffcore._EVAL_TABLES[p][1]) == p


def test_roots_against_sympy():
    # sympy's ground_roots, up to degree 48 (sympy takes seconds a call
    # at degree 250 over F_251), and X^p - X
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for p in (2, 3, 11, 43, 199, _EVAL_TOP):
        rng = random.Random(p * 7 + 4)
        for f in _root_cases(p, min(p + 3, 48), rng):
            want = sympy.Poly(list(reversed(f)), x, modulus=p).ground_roots()
            assert _roots(f, p) == sorted(r % p for r in want), f


def test_ladder_split_against_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(17)
    for p in (2, 3, 5, 43):
        for kappa in (1, 2, 3, 4):
            for f in _ladder_cases(p, kappa, rng):
                pieces = smooth_pieces(f, kappa)
                if pieces is None or f.degree == 0:
                    continue
                lc, facs = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
                want = sorted(
                    (tuple(c % p for c in reversed(q.all_coeffs())), m) for q, m in facs
                )
                unit, got = factor(f, pieces=pieces)
                assert unit == int(lc) % p
                assert sorted((q.coeffs, m) for q, m in got) == want


# ---------------------------------------------------------------------------
# The factorization oracle: the squarefree decomposition and distinct-degree
# split that `factor` ran before the peel, on Poly values.


def _pth_root(f):
    """g with f = g(X^p) = g^p; the coefficients are fixed by Frobenius."""
    assert not any(c for i, c in enumerate(f.coeffs) if i % f.p)
    return Poly(f.coeffs[::f.p], f.p)


def _squarefree_decomposition(f):
    """Monic f into pairwise coprime squarefree parts with multiplicities."""
    p = f.p
    out = []
    deriv = f.derivative()
    if deriv.is_zero():
        for g, m in _squarefree_decomposition(_pth_root(f)):
            out.append((g, m * p))
        return out
    c = poly_gcd(f, deriv)
    if c.degree == 0:
        return [(f, 1)]
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
        for g, mm in _squarefree_decomposition(_pth_root(c)):
            out.append((g, mm * p))
    return out


def _ddf(f):
    """Distinct-degree split of a squarefree monic f: (k, product of its
    irreducibles of degree k)."""
    p = f.p
    x = Poly([0, 1], p)
    out = []
    h = x
    k = 0
    rest = f
    while rest.degree >= 2 * (k + 1):
        k += 1
        h = _schoolbook_pow(h, p, list(rest.coeffs), p)
        g = poly_gcd(rest, h - x)
        if g.degree != 0:
            out.append((k, g))
            rest = rest // g
            h = h % rest
    if rest.degree != 0:
        out.append((rest.degree, rest))
    return out


def _reference_factor(f):
    rng = random.Random(0)
    draw = lambda n: [rng.randrange(f.p) for _ in range(n)]
    factors = []
    for sqf, m in _squarefree_decomposition(f.monic()):
        for k, piece in _ddf(sqf):
            factors += [(q, m) for q in _edf(piece, k, draw)]
    factors.sort(key=lambda t: poly_sort_key(t[0]))
    return f.lc(), factors


def _oracle_cases(p, rng):
    """Degree 1-14 over F_p: random polynomials, and products of random
    irreducibles with repeated factors and, where they fit, p-th powers
    times other factors (so f' != 0 but f is not squarefree)."""
    cases = [
        Poly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p)
        for n in range(1, 15)
    ]
    for _ in range(20):
        f = Poly([rng.randrange(1, p)], p)
        while True:
            q = _random_irreducible(p, rng.randrange(1, 5), rng)
            e = rng.choice([1, 1, 2, 3, p, p + 1, 2 * p])
            if f.degree + e * q.degree > 14:
                break
            f = f * _power(q, e)
        if f.degree >= 1:
            cases.append(f)
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 43, 199])
def test_factor_matches_reference(p):
    # factor, with and without the pieces for each kappa, is the squarefree-then-
    # distinct-degree factorization, on both sides of deg f = 2 kappa
    rng = random.Random(p * 13 + 1)
    sides = set()
    for f in _oracle_cases(p, rng):
        want = _reference_factor(f)
        assert factor(f) == want, f
        assert factor(f, pieces=()) == want, f
        for kappa in range(1, 8):
            pieces = smooth_pieces(f, kappa)
            assert (pieces is not None) == all(q.degree <= kappa for q, _ in want[1])
            if pieces is not None:
                assert factor(f, pieces=pieces) == want, (f, kappa)
                sides.add(f.degree <= 2 * kappa)
        if any(m >= p for _, m in want[1]):
            sides.add("p-th power factor")
    assert sides >= {True, False} | ({"p-th power factor"} if p <= 5 else set())


def test_factor_against_sympy_factor_list():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    for p in (2, 3, 5, 43, 199):
        rng = random.Random(p * 13 + 1)
        for f in _oracle_cases(p, rng):
            lc, facs = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
            want = sorted((tuple(c % p for c in reversed(q.all_coeffs())), m) for q, m in facs)
            unit, got = factor(f)
            assert unit == int(lc) % p
            assert sorted((q.coeffs, m) for q, m in got) == want, f


def test_factor_above_eval_bound_against_sympy():
    # at the first prime above EVAL_PRIME_BOUND, step 1 of the peel is
    # gcd(f, X^p - X) and linear pieces split by Cantor-Zassenhaus; no
    # evaluation table is built there
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    p = _ABOVE_EVAL
    rng = random.Random(p)
    cases = _oracle_cases(p, rng)
    for _ in range(20):
        f = Poly([rng.randrange(1, p)], p)
        for _ in range(rng.randrange(1, 6)):
            f = f * _power(Poly([rng.randrange(p), 1], p), rng.randrange(1, 3))
        cases.append(f)
    for f in cases:
        lc, facs = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
        want = sorted((tuple(c % p for c in reversed(q.all_coeffs())), m) for q, m in facs)
        unit, got = factor(f)
        assert unit == int(lc) % p
        assert sorted((q.coeffs, m) for q, m in got) == want, f
    assert p not in ffcore._EVAL_TABLES


def test_peeled_passer_split_without_frobenius(monkeypatch):
    # a passer's pieces leave `factor` no Frobenius step and no p-th
    # power outside the equal-degree split, on both sides of 2 kappa.
    # Above 2 kappa the test and the peel together build one packed
    # kernel and take exactly kappa Frobenius steps: the peel reads the
    # powers the product test computed
    outside = {"init": 0, "frobenius": 0, "pow": 0}
    depth = [0]
    real_init, real_frobenius, real_pow = (
        PackedModulus.__init__, PackedModulus.frobenius, PackedModulus.pow)
    real_edf = ffcore._edf

    def counted(name, real):
        def wrapper(self, *args):
            if not depth[0]:
                outside[name] += 1
            return real(self, *args)
        return wrapper

    def edf(*args):
        depth[0] += 1
        try:
            return real_edf(*args)
        finally:
            depth[0] -= 1

    rng = random.Random(23)
    passers = {True: 0, False: 0}
    for p in (2, 3, 43, 199):
        for kappa in (1, 2, 3):
            for _ in range(40):
                n = rng.randrange(kappa + 1, 2 * kappa + 4)
                f = Poly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p)
                want = factor(f)
                outside.update(init=0, frobenius=0, pow=0)
                with monkeypatch.context() as m:
                    m.setattr(PackedModulus, "__init__", counted("init", real_init))
                    m.setattr(PackedModulus, "frobenius", counted("frobenius", real_frobenius))
                    m.setattr(PackedModulus, "pow", counted("pow", real_pow))
                    m.setattr(ffcore, "_edf", edf)
                    pieces = smooth_pieces(f, kappa)
                    if pieces is None:
                        continue
                    tested = dict(outside)
                    assert factor(f, pieces=pieces) == want
                if n > 2 * kappa:
                    assert (tested["init"], tested["frobenius"]) == (1, kappa), (f, kappa)
                assert outside == tested, (f, kappa)
                passers[n <= 2 * kappa] += 1
    assert min(passers.values()) >= 20, passers


def test_linear_factors_without_packed_kernel(monkeypatch):
    # at p <= EVAL_PRIME_BOUND the peel's first step and the linear split
    # read roots: at kappa = 2, testing and splitting a cubic, or a quartic
    # with a root, builds no PackedModulus; above the bound step 1 takes
    # X^p mod f in one
    builds = [0]
    real_init = PackedModulus.__init__

    def counted(self, modulus):
        builds[0] += 1
        real_init(self, modulus)

    monkeypatch.setattr(PackedModulus, "__init__", counted)
    rng = random.Random(29)
    passers = {3: 0, 4: 0}
    for p in (2, 3, 43, 199, _EVAL_TOP):
        for n in (3, 4):
            for _ in range(40):
                f = Poly([rng.randrange(p) for _ in range(3)] + [rng.randrange(1, p)], p)
                if n == 4:
                    f = f * Poly([rng.randrange(p), 1], p)
                pieces = smooth_pieces(f, 2)
                if pieces is not None:
                    assert factor(f, pieces=pieces) == factor(f)
                    passers[n] += 1
    assert builds[0] == 0
    assert min(passers.values()) >= 40, passers
    smooth_pieces(Poly([1, 2, 3, 1], _ABOVE_EVAL), 2)
    assert builds[0] == 1


def test_is_smooth_edges():
    def smooth(f, kappa):
        return smooth_pieces(f, kappa) is not None

    for p in (2, 43):
        with pytest.raises(ValueError):
            smooth(Poly([], p), 2)
        assert smooth(Poly([3], p), 1)
        assert smooth(Poly([3], p), 0)
        assert not smooth(Poly([0, 1], p), 0)
        # degree <= kappa is smooth whatever it is, irreducible or not
        q = find_irreducible(p, 3)
        assert smooth(q, 3) and not smooth(q, 2)
        # a linear factor to a power above p: needs the squarings
        lin = Poly([1, 1], p)
        assert smooth(_power(lin, p + 2), 1)
        assert not smooth(_power(lin, p + 2) * q, 2)


def _smooth_degree_cases(p, kappa, degrees, rng):
    """Per degree n: a random polynomial, a kappa-smooth product of degree
    n with a repeated factor, and a kappa-smooth product of degree
    n - kappa - 1 times one irreducible of degree kappa + 1."""

    def smooth(m):
        q = _random_irreducible(p, rng.randrange(1, kappa + 1), rng)
        f = _power(q, 2) if 2 * q.degree <= m else Poly([1], p)
        while f.degree < m:
            f = f * _random_irreducible(p, rng.randrange(1, min(kappa, m - f.degree) + 1), rng)
        return f

    cases = []
    for n in degrees:
        cases.append(Poly([rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)], p))
        cases.append(smooth(n) * rng.randrange(1, p))
        cases.append(smooth(n - kappa - 1) * _random_irreducible(p, kappa + 1, rng))
    return cases


def test_is_smooth_against_sympy():
    # the test's answer against sympy's factor_list, and the split of a
    # passer from its pieces against the same list: at p = 3 and 43, at
    # the first prime above EVAL_PRIME_BOUND, and at kappa = 4, p = 11 on
    # degrees 9-13, where the product test decides and its passers are
    # peeled from its Frobenius powers
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(13)
    runs = [(p, kappa, _smoothness_cases(p, kappa, rng))
            for p in (3, 43, _ABOVE_EVAL) for kappa in (1, 2, 3)]
    runs.append((11, 4, _smooth_degree_cases(11, 4, range(9, 14), rng)))
    passers_above = {}
    for p, kappa, cases in runs:
        for f in cases:
            if f.degree == 0:
                continue
            lc, facs = sympy.Poly(list(reversed(f.coeffs)), x, modulus=p).factor_list()
            want = all(q.degree() <= kappa for q, _ in facs)
            pieces = smooth_pieces(f, kappa)
            assert (pieces is not None) == want, (f, kappa)
            if pieces is None:
                continue
            unit, got = factor(f, pieces=pieces)
            assert unit == int(lc) % p
            assert sorted((q.coeffs, m) for q, m in got) == sorted(
                (tuple(c % p for c in reversed(q.all_coeffs())), m) for q, m in facs
            ), (f, kappa)
            if f.degree > 2 * kappa:
                passers_above[p] = passers_above.get(p, 0) + 1
    assert passers_above.get(11, 0) >= 5 and passers_above.get(_ABOVE_EVAL, 0) >= 1, passers_above