"""Tests for the index-calculus engine: factor bases, sieving, solving."""

import hashlib
import json
import math
import random

import pytest

from frobsieve.errors import InconsistentFrobenius, RankDeficient, SieveTimeout
from frobsieve.ffcore import Poly, crt, factor, factorize_int, monic_irreducibles, resultant
from frobsieve.galoisrep import (
    build_artin_schreier,
    build_kummer,
    build_torus,
)
from frobsieve.elliptic import build_elliptic_residue
from frobsieve.indexcalc import (
    LogTable,
    Relation,
    _order_split,
    _rational_split,
    build_factor_base,
    build_log_table,
    collect_relations,
    compute_logs,
    find_generator,
    individual_log,
    pohlig_hellman,
    smooth_factor,
    solve_log_system,
)


def evaluate_smooth(fb, cols, const):
    """Multiply the claimed factorization back out in the field."""
    ring = fb.rep.ring
    acc = ring.pow(ring.embed(fb.g0), const % fb.rep.order())
    for col, exp in cols.items():
        acc = ring.mul(acc, ring.pow(fb.column_value(col), exp % fb.rep.order()))
    return acc


def evaluate_fold(fb, idx, mem):
    """(columns, scalar log) of one base member, folded onto its orbit
    anchor: weight p^shift on the anchor's column, plus the kernel weight
    (torus), and the member's scalar."""
    rep = fb.rep
    orb = fb.orbits[idx]
    cols = {idx: rep.p ** mem.shift}
    if mem.ker_weight:
        kcol = idx if orb.is_kernel else fb.kernel_index
        cols[kcol] = cols.get(kcol, 0) + mem.ker_weight
    return cols, fb.scalar_log(mem.scalar)


@pytest.fixture(scope="module")
def kummer_rep():
    return build_kummer(43, 6)


@pytest.fixture(scope="module")
def kummer_run(kummer_rep):
    return compute_logs(kummer_rep, 2, seed=0)


@pytest.fixture(scope="module")
def torus_rep():
    return build_torus(13, 7, u_r=8)


@pytest.fixture(scope="module")
def torus_run(torus_rep):
    return compute_logs(torus_rep, 2, seed=1)


@pytest.fixture(scope="module")
def as_rep():
    return build_artin_schreier(7)


@pytest.fixture(scope="module")
def elliptic_ext():
    return build_elliptic_residue(11, 7)


@pytest.fixture(scope="module")
def elliptic_rep(elliptic_ext):
    return elliptic_ext.rep


@pytest.fixture(scope="module")
def as_run(as_rep):
    return compute_logs(as_rep, 2, seed=0)


@pytest.fixture(scope="module")
def elliptic_run(elliptic_rep):
    return compute_logs(elliptic_rep, 2, seed=0)


# field -> (builder, the one prime of N solved from relations, columns)
LARGE_L_FIELDS = {
    "artin-schreier-11^11": (lambda: build_artin_schreier(11), 1806113, 7),
    "kummer-29^7": (lambda: build_kummer(29, 7), 88009573, 64),
    "elliptic-17^7": (lambda: build_elliptic_residue(17, 7).rep, 25646167, 154),
}


@pytest.fixture(scope="module")
def large_l_reps():
    return {field: build() for field, (build, _, _) in LARGE_L_FIELDS.items()}


# ---------------------------------------------------------------------------
# Factor bases.


class TestFactorBase:
    def test_kummer_degree_one_orbits(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 1)
        # 43 linear polys: X alone, the rest in six-element scaling orbits
        assert sum(o.size for o in fb.orbits) == 43
        assert len(fb.orbits) == 8
        sizes = sorted(o.size for o in fb.orbits)
        assert sizes == [1] + [6] * 7

    def test_kummer_reduction_at_least_half(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 2)
        total = sum(o.size for o in fb.orbits)
        assert total == 946
        assert len(fb.orbits) == 162
        assert len(fb.orbits) <= total // 2

    def test_artin_schreier_single_linear_orbit(self, as_rep):
        fb = build_factor_base(as_rep, 1)
        # X -> X+1 -> ... -> X+6 is one orbit of length p
        assert len(fb.orbits) == 1
        assert fb.orbits[0].size == 7

    def test_partition_is_exact_at_max_kappa(self):
        rep = build_artin_schreier(3)
        fb = build_factor_base(rep, 2)
        # necklace counts: 3 linear, (3^2 - 3)/2 = 3 quadratic
        total = len(list(monic_irreducibles(3, 2)))
        assert total == 6
        assert sum(o.size for o in fb.orbits) == total
        seen = set()
        for orb in fb.orbits:
            for q in orb.polys():
                assert q.coeffs not in seen
                seen.add(q.coeffs)

    def test_member_lookup_covers_base(self, torus_rep):
        fb = build_factor_base(torus_rep, 2)
        for q in monic_irreducibles(13, 2):
            idx, mem = fb.member_of(q)
            assert mem.poly == q
            assert fb.orbits[idx] is not None

    def test_kappa_bounds(self, as_rep):
        with pytest.raises(ValueError):
            build_factor_base(as_rep, 0)
        with pytest.raises(ValueError):
            build_factor_base(as_rep, 7)

    def test_scalar_log_matches_sympy(self, kummer_rep):
        sympy = pytest.importorskip("sympy")
        fb = build_factor_base(kummer_rep, 1)
        for s in range(1, 43):
            assert fb.scalar_log(s) == sympy.discrete_log(43, s, fb.g0)

    def test_elliptic_orbits_are_singletons(self, elliptic_ext):
        ext = elliptic_ext
        fb = build_factor_base(ext.rep, 2)
        assert all(o.size == 1 for o in fb.orbits)
        assert len(fb.orbits) == len(list(monic_irreducibles(11, 2)))


class TestFreeRelations:
    def test_rows_verify_and_count(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 1)
        g = find_generator(kummer_rep)
        rows = fb.free_relations()
        assert len(rows) == len(fb.orbits) + 1
        for rel in rows:
            assert rel.e == 0
            assert rel.verify(fb, g)

    def test_x_orbit_row_encodes_scaling(self, kummer_rep):
        # x^(p-1) = zeta, so the closure row for X's orbit pins
        # (p-1) log x against the constant column
        fb = build_factor_base(kummer_rep, 1)
        xcol = next(
            i for i, o in enumerate(fb.orbits) if o.anchor == Poly([0, 1], 43)
        )
        row = fb.free_relations()[xcol]
        assert row.columns == {xcol: 42}
        zeta = kummer_rep.params["zeta"]
        assert row.const_exp % (43 - 1) == -fb.scalar_log(zeta) % 42

    def test_torus_kernel_row(self, torus_rep):
        fb = build_factor_base(torus_rep, 2)
        g = find_generator(torus_rep)
        rows = fb.free_relations()
        kernel_row = rows[fb.kernel_index]
        orb = fb.orbits[fb.kernel_index]
        assert orb.is_kernel
        assert kernel_row.columns.get(fb.kernel_index, 0) == (
            orb.closure_exponent % torus_rep.order()
        )
        assert kernel_row.verify(fb, g)

    @pytest.mark.parametrize("rep_name", ["kummer_rep", "torus_rep"])
    def test_tampered_closure_is_inconsistent(self, request, rep_name):
        # a closure that fails verification is bad structural data, not a
        # shortage of relations (the torus case tampers the kernel orbit)
        rep = request.getfixturevalue(rep_name)
        fb = build_factor_base(rep, 2)
        orb = fb.orbits[fb.kernel_index or 0]
        orb.closure_scalar = (orb.closure_scalar + 1) % rep.p or 1
        with pytest.raises(InconsistentFrobenius):
            fb.free_relations()


# ---------------------------------------------------------------------------
# Smoothness decomposition.


class TestSmoothFactor:
    def test_split_quadratic_present(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 1)
        z = Poly([-1, 1], 43) * Poly([-2, 1], 43)
        hit = smooth_factor(fb, z)
        assert hit is not None
        cols, const = hit
        # X-1 and X-2 live in different scaling orbits
        assert len(cols) == 2
        assert evaluate_smooth(fb, cols, const) == kummer_rep.ring.el(z)

    def test_absent_when_factor_too_big(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 2)
        cubic = next(q for q in monic_irreducibles(43, 3) if q.degree == 3)
        assert smooth_factor(fb, cubic) is None

    def test_member_folds_to_anchor_column(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 2)
        for orb in fb.orbits[:12]:
            for mem in orb.members:
                hit = smooth_factor(fb, mem.poly)
                assert hit is not None
                cols, const = hit
                idx, _ = fb.member_of(mem.poly)
                assert set(cols) == {idx}
                assert cols[idx] == 43 ** mem.shift
                assert evaluate_smooth(fb, cols, const) == kummer_rep.ring.el(mem.poly)

    def test_scaled_element_unit_on_constant_column(self, kummer_rep):
        fb = build_factor_base(kummer_rep, 1)
        z = Poly([0, 5], 43)  # 5x
        cols, const = smooth_factor(fb, z)
        assert evaluate_smooth(fb, cols, const) == kummer_rep.ring.el(z)

    def test_frobenius_power_consistency(self, kummer_rep):
        # x^p computed in the field must decompose with exponent p on X's
        # column, matching the structural image zeta*x
        fb = build_factor_base(kummer_rep, 1)
        ring = kummer_rep.ring
        zp = ring.pow(ring.x(), 43)
        cols, const = smooth_factor(fb, zp)
        xcol, _ = fb.member_of(Poly([0, 1], 43))
        assert cols == {xcol: 1}
        assert const == fb.scalar_log(kummer_rep.params["zeta"])

    def test_random_presence_matches_factorization(self, as_rep):
        fb = build_factor_base(as_rep, 2)
        rng = random.Random(77)
        ring = as_rep.ring
        for _ in range(60):
            z = as_rep.field.random_poly(rng, rng.randrange(1, 7))
            if z.is_zero():
                continue
            hit = smooth_factor(fb, z)
            _, facs = factor(z)
            expect = all(q.degree <= 2 for q, _ in facs)
            assert (hit is not None) == expect
            if hit is not None:
                assert evaluate_smooth(fb, *hit) == ring.el(z)

    def test_torus_kernel_weights_fold(self, torus_rep):
        fb = build_factor_base(torus_rep, 2)
        ring = torus_rep.ring
        rng = random.Random(3)
        hits = 0
        while hits < 15:
            z = torus_rep.field.random_poly(rng, rng.randrange(1, 7))
            if z.is_zero():
                continue
            hit = smooth_factor(fb, z)
            if hit is None:
                continue
            hits += 1
            assert evaluate_smooth(fb, *hit) == ring.el(z)

    def test_zero_rejected(self, as_rep):
        fb = build_factor_base(as_rep, 2)
        with pytest.raises(ValueError):
            smooth_factor(fb, Poly([], 7))

    @pytest.mark.parametrize("rep_name", ["kummer_rep", "torus_rep"])
    def test_low_degree_lookup_matches_split(self, request, rep_name):
        # every z of degree <= kappa, irreducible (looked up in the base)
        # or not (split), against the fold of its plain factorization
        rep = request.getfixturevalue(rep_name)
        fb = build_factor_base(rep, 2)
        N, p = rep.order(), rep.p
        rng = random.Random(5)
        for n in range(p ** 2):
            z = Poly([n % p, n // p, 1], p) * rng.randrange(1, p)
            for q in (z, Poly([n % p, 1], p) * rng.randrange(1, p)):
                unit, facs = factor(q)
                want, const = {}, fb.scalar_log(unit)
                for f, m in facs:
                    idx, mem = fb.member_of(f)
                    fold = evaluate_fold(fb, idx, mem)
                    for col, w in fold[0].items():
                        want[col] = (want.get(col, 0) + w * m) % N
                    const -= fold[1] * m
                want = {c: w for c, w in want.items() if w}
                cols, got_const = smooth_factor(fb, q)
                assert ({c: w for c, w in cols.items() if w}, got_const) == (want, const % N)


# ---------------------------------------------------------------------------
# Relation collection.


class TestCollectRelations:
    def test_deterministic_given_seed(self, as_rep):
        fb = build_factor_base(as_rep, 2)
        g = find_generator(as_rep)
        a = collect_relations(as_rep, fb, 12, seed=9, g=g)
        b = collect_relations(as_rep, fb, 12, seed=9, g=g)
        assert a == b
        c = collect_relations(as_rep, fb, 12, seed=10, g=g)
        assert a != c

    def test_smaller_target_is_prefix(self, as_rep):
        # trials are keyed by (seed, index) and come back in trial order
        fb = build_factor_base(as_rep, 2)
        g = find_generator(as_rep)
        twenty = collect_relations(as_rep, fb, 20, seed=9, g=g)
        assert len(twenty) == 20
        assert collect_relations(as_rep, fb, 12, seed=9, g=g) == twenty[:12]

    def test_no_exponent_twice(self, as_rep):
        # seed 54 draws e = 628778 at two trials; both used to come back
        fb = build_factor_base(as_rep, 2)
        rels = collect_relations(as_rep, fb, 100, seed=54)
        assert len(rels) == 100
        assert len({rel.e for rel in rels}) == 100

    def test_relations_pinned(self, as_rep):
        # sha256 of the relations as the per-sieve loops produced them
        fb = build_factor_base(as_rep, 2)
        rels = collect_relations(as_rep, fb, 60, seed=0)
        digest = hashlib.sha256(
            json.dumps([r.to_json() for r in rels], sort_keys=True).encode()
        ).hexdigest()
        assert digest == "561cf997618e593698622b9a6319aec5f6f9ec3fac63a916aae18918a37fa296"

    def test_rejected_candidates_never_factored(self, as_rep, monkeypatch):
        # every trial runs the smoothness test; only a passer is split, and
        # from the pieces its own test returned
        import frobsieve.indexcalc as ic

        calls = {"trials": 0, "smooth": 0, "split": 0}
        passed = {}
        real_pieces, real_factor = ic.smooth_pieces, ic.factor

        def counting_pieces(f, kappa):
            calls["trials"] += 1
            pieces = real_pieces(f, kappa)
            if pieces is not None:
                calls["smooth"] += 1
                passed[id(f)] = pieces
            return pieces

        def counting_factor(f, *args, pieces=()):
            calls["split"] += 1
            assert passed[id(f)] is pieces
            return real_factor(f, *args, pieces=pieces)

        monkeypatch.setattr(ic, "smooth_pieces", counting_pieces)
        monkeypatch.setattr(ic, "factor", counting_factor)
        fb = build_factor_base(as_rep, 2)
        rels = collect_relations(as_rep, fb, 60, seed=0)
        assert len(rels) == 60
        assert calls["split"] == calls["smooth"] >= 60
        assert calls["trials"] > 2 * calls["smooth"]

    def test_relations_all_sound(self, torus_rep, torus_run):
        fb, g, relations, _ = torus_run
        assert all(rel.verify(fb, g) for rel in relations)

    def test_timeout_carries_partial(self, as_rep):
        fb = build_factor_base(as_rep, 2)
        g = find_generator(as_rep)
        with pytest.raises(SieveTimeout) as info:
            collect_relations(as_rep, fb, 500, seed=9, g=g, max_trials=40)
        assert 0 < len(info.value.partial) < 500
        assert all(rel.verify(fb, g) for rel in info.value.partial)

    def test_generator_has_full_order(self, torus_rep):
        g = find_generator(torus_rep)
        ring = torus_rep.ring
        N = torus_rep.order()
        assert ring.pow(g, N) == ring.one()
        for ell in factorize_int(N):
            assert ring.pow(g, N // ell) != ring.one()

    def test_order_factored_once(self, monkeypatch):
        import frobsieve.galoisrep as gr

        rep = build_torus(13, 7)
        calls = []
        real = gr.factorize_int

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(gr, "factorize_int", counting)
        assert find_generator(rep) == find_generator(rep)
        assert calls == [rep.order()]

    @pytest.mark.parametrize(
        "build, expected",
        [
            (lambda: build_kummer(43, 6), [2, 1]),
            (lambda: build_torus(13, 7), [2, 1]),
            (lambda: build_torus(13, 7, u_r=8), [5, 1]),
            (lambda: build_kummer(199, 11), [4, 1]),
            (lambda: build_torus(109, 11), [4, 1]),
        ],
        ids=["kummer-43x6", "torus-13x7", "torus-13x7-u8", "kummer-199x11", "torus-109x11"],
    )
    def test_generator_pinned(self, build, expected):
        # the generators found by testing every prime of N with a ring power
        assert find_generator(build()).to_list() == expected

    @pytest.mark.parametrize("rep", [build_kummer(43, 6), build_torus(13, 7, u_r=8)],
                             ids=["kummer", "torus"])
    def test_norm_test_matches_ring_power(self, rep):
        # for l | p - 1, g^(N/l) = 1 exactly when Res(A, g)^((p-1)/l) = 1
        ring, p, N = rep.ring, rep.p, rep.order()
        small = [ell for ell in factorize_int(N) if (p - 1) % ell == 0]
        rng = random.Random(9)
        for _ in range(40):
            g = ring.random_el(rng)
            if g.is_zero():
                continue
            norm = resultant(ring.modulus, g)
            for ell in small:
                assert (pow(norm, (p - 1) // ell, p) == 1) == (ring.pow(g, N // ell) == ring.one())


class TestRelationStream:
    """compute_logs pulls its relations from one stream that resumes
    where it stopped, rather than replaying the trials from 0."""

    @pytest.fixture(scope="class")
    def torus0(self):
        rep = build_torus(13, 7)
        return rep, build_factor_base(rep, 2), find_generator(rep)

    @pytest.fixture
    def draws(self, monkeypatch):
        import frobsieve.indexcalc as ic

        drawn = []
        real = ic._mix

        def counting(seed, i):
            drawn.append(i)
            return real(seed, i)

        monkeypatch.setattr(ic, "_mix", counting)
        return drawn

    def test_no_trial_drawn_twice(self, torus0, draws):
        # seed 0 leaves a column undetermined twice: two top-up rounds,
        # which replaying drew as 985 trials for these 464
        rep, fb, g = torus0
        _fb, _g, relations, table = compute_logs(rep, 2, seed=0)
        assert table.verify_all(rep)
        assert sorted(draws) == list(range(464))
        sieved = relations[len(fb.free_relations()):]
        assert len(sieved) == fb.ncols + 10 + 2 * 16
        draws.clear()
        # resuming gives what replaying to the final target gives
        assert sieved == collect_relations(rep, fb, len(sieved), seed=0, g=g)

    def test_budget_ends_a_top_up(self, torus0, draws):
        # the first 25 relations lie within 300 trials, the 41 of the
        # first top-up do not
        rep, fb, g = torus0
        with pytest.raises(SieveTimeout) as info:
            compute_logs(rep, 2, seed=0, max_trials=300)
        assert sorted(draws) == list(range(300))
        partial = info.value.partial
        assert fb.ncols + 10 < len(partial) < fb.ncols + 10 + 16
        assert partial == collect_relations(rep, fb, len(partial), seed=0, g=g)
        with pytest.raises(SieveTimeout):
            collect_relations(rep, fb, len(partial) + 1, seed=0, g=g, max_trials=300)


# ---------------------------------------------------------------------------
# The log solver.


class TestSolver:
    # torus 13^7: N = 2^2 * 3 * 5229043, so Pohlig-Hellman reads each log
    # mod 12 and the relations are solved mod the large prime
    ELL = 5229043

    def test_two_by_two_toy(self, torus_rep):
        g = find_generator(torus_rep)
        truth = [2, 1, 0]  # g^2, g and the constant column's 1
        targets = [torus_rep.ring.pow(g, t) for t in truth]
        rels = [Relation({0: 1, 1: 1}, 0, 3), Relation({0: 1, 1: -1}, 0, 1)]
        assert solve_log_system(torus_rep, rels, g, targets) == truth

    def test_random_full_rank_systems(self, torus_rep):
        assert _order_split(torus_rep)[1] == [self.ELL]
        g = find_generator(torus_rep)
        N = torus_rep.order()
        rng = random.Random(5)
        for _ in range(8):
            n = rng.randrange(2, 6)
            truth = [rng.randrange(N) for _ in range(n)] + [0]
            targets = [torus_rep.ring.pow(g, t) for t in truth]
            rels = []
            for _ in range(n + 3):
                coeffs = {c: rng.randrange(N) for c in range(n)}
                e = sum(coeffs[c] * truth[c] for c in range(n))
                rels.append(Relation(coeffs, 0, e))
            assert solve_log_system(torus_rep, rels, g, targets) == truth

    def test_inconsistent_system_raises(self, torus_rep):
        g = find_generator(torus_rep)
        rels = [Relation({0: 1}, 0, 1), Relation({0: 1}, 0, 2)]
        with pytest.raises(ValueError):
            solve_log_system(torus_rep, rels, g, [g, torus_rep.ring.one()])

    def test_order_split(self):
        class Stub:
            def order_factors(self):
                return {2: 3, 631: 1, 1048583: 2, 2147483647: 1}

        # a large prime dividing N twice goes to Pohlig-Hellman too
        small, large = _order_split(Stub())
        assert small == {2: 3, 631: 1, 1048583: 2}
        assert large == [2147483647]

    def test_pohlig_hellman_matches_individual_log(self, kummer_rep, kummer_run):
        # every prime of 43^6 - 1 is below the bound, so Pohlig-Hellman
        # over the full prime powers of N, read from the integer
        # factorisation and joined by CRT, gives full logs: an oracle for
        # every table entry and for individual_log, an independent algorithm
        fb, g, _rels, table = kummer_run
        ring, N = kummer_rep.ring, kummer_rep.order()
        prime_powers = factorize_int(N)
        small, large = _order_split(kummer_rep)
        assert large == [] and small == prime_powers and max(small) == 631
        moduli = [ell**k for ell, k in sorted(prime_powers.items())]
        assert math.prod(moduli) == N

        def oracle(targets):
            parts = pohlig_hellman(kummer_rep, g, targets, prime_powers)
            return [crt([part[j] for part in parts], moduli) for j in range(len(targets))]

        columns = list(table.logs)
        assert oracle(columns) == [table.log(v) for v in columns]
        targets = []
        for j in range(50):
            z = ring.random_el(random.Random(1000 + j))
            targets.append(z if not z.is_zero() else ring.one())
        for j, (z, lam) in enumerate(zip(targets, oracle(targets))):
            assert lam == individual_log(kummer_rep, fb, table, z, seed=j)
            assert ring.pow(g, lam) == z

    @pytest.mark.parametrize("seed", [2, 3, 5])
    def test_stalled_seeds_complete(self, kummer_rep, kummer_run, seed):
        # these seeds used to spend minutes in the descent
        _fb, g, _rels, table = compute_logs(kummer_rep, 2, seed=seed)
        assert g == kummer_run[1]
        assert table.verify_all(kummer_rep)
        assert table.logs == kummer_run[3].logs

    @pytest.mark.parametrize("seed", range(6))
    def test_torus_seeds_complete(self, torus_rep, torus_run, seed):
        # seeds 1, 3 and 5 leave a column undetermined after the first
        # collect round and complete through the top-up
        _fb, g, _rels, table = compute_logs(torus_rep, 2, seed=seed)
        assert g == torus_run[1]
        assert table.verify_all(torus_rep)
        assert table.logs == torus_run[3].logs

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("field", sorted(LARGE_L_FIELDS))
    def test_large_l_seeds_complete(self, large_l_reps, field, seed):
        # the large l is solved from relations on a model other than the
        # torus; Kummer 29^7 seeds 0-2 and elliptic 17^7 seeds 2-3 need
        # more top-up rounds than the six the loop used to allow
        rep = large_l_reps[field]
        _build, large, ncols = LARGE_L_FIELDS[field]
        assert _order_split(rep)[1] == [large]
        fb, _g, _rels, table = compute_logs(rep, 2, seed=seed)
        assert fb.ncols == ncols
        assert table.verify_all(rep)

    def test_undetermined_column_raises(self, torus_rep):
        # the first collect round of seed 1: the candidates of some columns
        # fail their check, and those are the columns the error names
        fb = build_factor_base(torus_rep, 2)
        g = find_generator(torus_rep)
        relations = fb.free_relations() + collect_relations(
            torus_rep, fb, fb.ncols + 10, seed=1, g=g
        )
        targets = [fb.column_value(col) for col in range(fb.ncols)]
        values = solve_log_system(torus_rep, relations, g, targets)
        failed = [
            col for col, (z, lam) in enumerate(zip(targets, values))
            if torus_rep.ring.pow(g, lam) != z
        ]
        assert failed
        with pytest.raises(RankDeficient) as info:
            build_log_table(torus_rep, fb, relations, g)
        assert info.value.columns == failed

    def test_more_relations_same_table(self, torus_rep):
        fb = build_factor_base(torus_rep, 2)
        g = find_generator(torus_rep)
        free = fb.free_relations()
        once = fb.ncols + 10
        sieved = collect_relations(torus_rep, fb, 3 * once, seed=0, g=g)
        a = build_log_table(torus_rep, fb, free + sieved[:once], g)
        b = build_log_table(torus_rep, fb, free + sieved, g)
        assert a.logs == b.logs
        assert a.verify_all(torus_rep)

    def test_inconsistent_relations_raise(self, torus_rep, torus_run):
        fb, g, relations, _ = torus_run
        bad = relations[-1]
        tampered = relations + [Relation(bad.columns, bad.const_exp, bad.e + 1)]
        with pytest.raises(ValueError):
            build_log_table(torus_rep, fb, tampered, g)


# ---------------------------------------------------------------------------
# Whole pipelines.


def check_pipeline(rep, run, targets_seed):
    fb, g, relations, table = run
    ring = rep.ring
    N = rep.order()
    assert table.verify_all(rep)
    assert all(rel.verify(fb, g) for rel in relations)
    # free-relation soundness: member logs reconstructed from the anchor's
    for idx, orb in enumerate(fb.orbits):
        lam_anchor = table.log(fb.column_value(idx))
        for mem in orb.members[:3]:
            lam = rep.p ** mem.shift * lam_anchor
            lam -= fb.scalar_log(mem.scalar) * table.log(ring.embed(fb.g0))
            if mem.ker_weight:
                kcol_val = fb.column_value(fb.kernel_index)
                lam += mem.ker_weight * table.log(kcol_val)
            assert ring.pow(g, lam % N) == ring.el(mem.poly)
    # individual logs: the generator, the unit, random targets
    assert individual_log(rep, fb, table, g, seed=1) == 1
    assert individual_log(rep, fb, table, ring.one(), seed=1) == 0
    rng = random.Random(targets_seed)
    for _ in range(3):
        t = ring.pow(ring.x(), rng.randrange(1, N))
        lam = individual_log(rep, fb, table, t, seed=rng.randrange(100))
        assert ring.pow(g, lam) == t


# one field of each kind, as (representation fixture, log table fixture)
KINDS = [
    ("kummer_rep", "kummer_run"),
    ("torus_rep", "torus_run"),
    ("as_rep", "as_run"),
    ("elliptic_rep", "elliptic_run"),
]


def _rational_split_poly(modulus, z, bound):
    """The split as extended Euclid on Poly values: the reference that
    the coefficient-list routine must match exactly."""
    r0, r1 = modulus, z
    t0, t1 = Poly([], z.p), Poly([1], z.p)
    while r1.degree > bound:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    return r1, t1


class TestRationalSplit:
    @pytest.mark.parametrize("rep_name", [rep for rep, _ in KINDS])
    def test_matches_poly_reference(self, request, rep_name):
        rep = request.getfixturevalue(rep_name)
        ring = rep.ring
        rng = random.Random(rep_name + "/reference")
        for bound in range(rep.d):
            for _ in range(30):
                z = ring.random_el(rng)
                while z.is_zero():
                    z = ring.random_el(rng)
                got = _rational_split(ring.modulus, z, bound)
                assert got == _rational_split_poly(ring.modulus, z, bound), (z, bound)

    @pytest.mark.parametrize("rep_name", [rep for rep, _ in KINDS])
    def test_random_targets(self, request, rep_name):
        rep = request.getfixturevalue(rep_name)
        ring = rep.ring
        d, half = rep.d, rep.d // 2
        rng = random.Random(rep_name)
        for _ in range(100):
            z = ring.random_el(rng)
            while z.is_zero():
                z = ring.random_el(rng)
            num, den = _rational_split(ring.modulus, z, half)
            assert not den.is_zero()
            assert ring.mul(z, den) == num
            assert num.degree <= half
            assert den.degree <= d - 1 - half

    @pytest.mark.parametrize("rep_name", [rep for rep, _ in KINDS])
    def test_low_degree_comes_back_whole(self, request, rep_name):
        rep = request.getfixturevalue(rep_name)
        ring = rep.ring
        half = rep.d // 2
        low = ring.el([3] + [1] * half)
        assert low.degree == half
        for z in (ring.embed(5), low):
            assert _rational_split(ring.modulus, z, half) == (z, ring.one())


class TestPipelines:
    @pytest.mark.parametrize("rep_name, run_name", KINDS)
    def test_edge_targets(self, request, rep_name, run_name):
        rep = request.getfixturevalue(rep_name)
        fb, g, _rels, table = request.getfixturevalue(run_name)
        ring = rep.ring
        targets = [
            ring.embed(rep.p - 2),  # an F_p constant
            fb.column_value(len(fb.orbits) // 2),  # a column value
            ring.pow(ring.x(), rep.d + 3),  # x^k for some k > d
        ]
        for seed, z in enumerate(targets):
            lam = individual_log(rep, fb, table, z, seed=seed)
            assert ring.pow(g, lam) == z

    def test_kummer_end_to_end(self, kummer_rep, kummer_run):
        check_pipeline(kummer_rep, kummer_run, 11)

    def test_torus_end_to_end(self, torus_rep, torus_run):
        check_pipeline(torus_rep, torus_run, 12)

    def test_artin_schreier_end_to_end(self, as_rep, as_run):
        check_pipeline(as_rep, as_run, 13)

    def test_elliptic_end_to_end(self, elliptic_rep, elliptic_run):
        check_pipeline(elliptic_rep, elliptic_run, 14)

    def test_pipeline_deterministic(self, as_rep):
        a = compute_logs(as_rep, 2, seed=4)
        b = compute_logs(as_rep, 2, seed=4)
        assert a[2] == b[2]
        assert a[3].logs == b[3].logs

    # sha256 of the relations and table of compute_logs(build_kummer(43, 6),
    # 2, seed=s), and of 200 individual logs against the seed-0 table, as
    # the schoolbook arithmetic before the packed kernel computed them
    RUN_DIGESTS = {
        0: "7eb15949b0f0f05ca3daf56a4ce6956fc6bcbb8856e74b846d53e1cc3e608c53",
        1: "a5e57a2972a32edb91c195f26770459e0a5412a5721ca38b906d3069ad7eb41c",
    }
    ILOG_DIGEST = "c7d7a290912186afc196dcda22b53a0e0405a68eda429c84dcdccc73c0cf46f5"
    # the same recipe against the seed-0 torus 13^7 table, as individual_log
    # computed it before it split targets into numerator and denominator
    TORUS_ILOG_DIGEST = "7cf25327d6031210a4e9b0356404608d3b9a4d290a6d7497aa50c7e2f21f7d7c"

    @staticmethod
    def _digest(obj):
        return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

    @pytest.mark.parametrize("seed", [0, 1])
    def test_kummer_run_pinned(self, kummer_rep, kummer_run, seed):
        run = kummer_run if seed == 0 else compute_logs(kummer_rep, 2, seed=seed)
        _fb, _g, relations, table = run
        doc = {"relations": [r.to_json() for r in relations], "table": table.to_json()}
        assert self._digest(doc) == self.RUN_DIGESTS[seed]

    def test_individual_logs_pinned(self, kummer_rep, kummer_run):
        fb, _g, _rels, table = kummer_run
        ring = kummer_rep.ring
        answers = []
        for j in range(200):
            rng = random.Random(j)
            z = ring.random_el(rng)
            while z.is_zero():
                z = ring.random_el(rng)
            answers.append(str(individual_log(kummer_rep, fb, table, z, seed=j)))
        assert self._digest(answers) == self.ILOG_DIGEST

    def test_torus_individual_logs_pinned(self, torus_rep):
        fb, _g, _rels, table = compute_logs(torus_rep, 2, seed=0)
        ring = torus_rep.ring
        answers = []
        for j in range(200):
            rng = random.Random(j)
            z = ring.random_el(rng)
            while z.is_zero():
                z = ring.random_el(rng)
            answers.append(str(individual_log(torus_rep, fb, table, z, seed=j)))
        assert self._digest(answers) == self.TORUS_ILOG_DIGEST

    @pytest.mark.parametrize("rep_name, run_name", [KINDS[0], KINDS[1]])
    def test_column_logs_follow_the_factor_base(self, request, rep_name, run_name):
        # a table read back from JSON, then the same table with a rebuilt
        # factor base and with the kappa = 1 base (fewer columns, in another
        # order), give the answers of the original table
        rep = request.getfixturevalue(rep_name)
        fb, _g, _rels, table = request.getfixturevalue(run_name)
        ring = rep.ring
        rng = random.Random(run_name)
        targets = [ring.random_el(rng) for _ in range(12)]
        targets = [z for z in targets if not z.is_zero()]
        want = [individual_log(rep, fb, table, z, seed=j) for j, z in enumerate(targets)]
        reloaded = LogTable.from_json(table.to_json(), rep)
        rebuilt = build_factor_base(rep, fb.kappa)
        linear = build_factor_base(rep, 1)
        assert rebuilt is not fb and linear.ncols < fb.ncols
        for base in (fb, rebuilt, linear, fb):
            got = [individual_log(rep, base, reloaded, z, seed=j) for j, z in enumerate(targets)]
            assert got == want
            assert reloaded.column_logs(base) == [
                table.log(base.column_value(col)) for col in range(base.ncols)
            ]

    def test_frobenius_log_consistency(self, kummer_rep, kummer_run):
        # log(x^p) read through the table equals p*log(x)
        fb, g, _, table = kummer_run
        ring = kummer_rep.ring
        lam_x = table.log(ring.x())
        zp = ring.pow(ring.x(), 43)
        lam = individual_log(kummer_rep, fb, table, zp, seed=2)
        assert lam == 43 * lam_x % kummer_rep.order()


# ---------------------------------------------------------------------------
# Serialization.


class TestJson:
    def test_relation_roundtrip(self):
        rel = Relation({3: 17, 0: 2}, 5, 999999999999)
        data = rel.to_json()
        assert data["columns"] == [[0, "2"], [3, "17"]]
        back = Relation.from_json(data)
        assert back == rel

    def test_log_table_roundtrip(self, torus_rep, torus_run):
        _, _, _, table = torus_run
        back = LogTable.from_json(table.to_json(), torus_rep)
        assert back.N == table.N
        assert back.g == table.g
        assert back.logs == table.logs
        assert back.verify_all(torus_rep)
