"""Index-calculus discrete logarithms over structured residue fields.

The engine is the classical linear sieve: fix a smoothness bound kappa,
collect multiplicative relations among the monic irreducibles of degree
<= kappa, solve the resulting linear system modulo p^d - 1, then peel
individual logarithms off the table.

What the structural Frobenius buys is column count: polynomials in one
orbit have logarithms that differ by powers of p and explicit scalars, so
only one unknown per orbit survives.  On the torus model the orbit
bookkeeping also carries weights on the distinguished column x + tau,
whose own orbit walks off to the place at infinity.
"""

import random

from .errors import NotFound, RankDeficient, SieveTimeout
from .ffcore import (
    FixedBasePowers,
    Poly,
    bsgs_dlog,
    crt,
    factor,
    factorize_int,
    is_smooth,
    monic_irreducibles,
    primitive_root,
    resultant,
)
from .galoisrep import ELLIPTIC, Representation, orbit_partition


class FactorBase:
    """Smoothness base of monic irreducibles folded into Frobenius orbits.

    Columns 0..len(orbits)-1 are the orbit anchors; column len(orbits) is
    the constant column, holding logs of F_p^* through the primitive root
    g0.  Kernel-orbit weights (torus only) land on the kernel orbit's own
    column, since its anchor is exactly x + tau.
    """

    def __init__(self, rep: Representation, kappa: int, orbits, g0: int):
        self.rep = rep
        self.kappa = kappa
        self.orbits = orbits
        self.g0 = g0
        self.kernel_index = next(
            (i for i, o in enumerate(orbits) if o.is_kernel), None
        )
        self._members = {}
        for idx, orb in enumerate(orbits):
            for mem in orb.members:
                self._members[mem.poly.coeffs] = (idx, mem)
        self._scalar_logs = {1: 0}

    def __repr__(self):
        return (
            f"FactorBase(kappa={self.kappa}, orbits={len(self.orbits)}, "
            f"polys={sum(o.size for o in self.orbits)})"
        )

    @property
    def ncols(self) -> int:
        return len(self.orbits) + 1

    @property
    def const_col(self) -> int:
        return len(self.orbits)

    def column_value(self, col: int) -> Poly:
        """The field element whose log the column stands for."""
        ring = self.rep.ring
        if col == self.const_col:
            return ring.embed(self.g0)
        return ring.el(self.orbits[col].anchor)

    def member_of(self, q: Poly):
        """(orbit index, member bookkeeping) for a base polynomial."""
        return self._members.get(q.coeffs)

    def scalar_log(self, s: int) -> int:
        """Discrete log of s in F_p^* base g0."""
        s %= self.rep.p
        if s not in self._scalar_logs:
            self._scalar_logs[s] = bsgs_dlog(s, self.g0, self.rep.p)
        return self._scalar_logs[s]

    def free_relations(self):
        """Relations that cost nothing: one closure row per orbit, plus the
        order of the constant column.  Each is verified multiplicatively
        before being handed out."""
        rep = self.rep
        ring = rep.ring
        N = rep.order()
        p = rep.p
        out = []
        if rep.kind == ELLIPTIC:
            # singleton orbits carry no closure identity
            out.append(Relation({}, (p - 1) % N, 0))
            return out
        for idx, orb in enumerate(self.orbits):
            cols = {}
            if orb.is_kernel:
                # (x+tau)^E = C
                cols[idx] = orb.closure_exponent % N
                const = -self.scalar_log(orb.closure_scalar) % N
                check = ring.pow(ring.el(orb.anchor), orb.closure_exponent)
                expected = ring.embed(orb.closure_scalar)
            else:
                # anchor^{p^size - 1} * (x+tau)^W = S
                cols[idx] = (p ** orb.size - 1) % N
                if orb.closure_ker_weight:
                    kcol = self.kernel_index
                    cols[kcol] = (cols.get(kcol, 0) + orb.closure_ker_weight) % N
                const = -self.scalar_log(orb.closure_scalar) % N
                check = ring.pow(ring.el(orb.anchor), p ** orb.size - 1)
                if orb.closure_ker_weight:
                    tau = rep.params["tau"]
                    check = ring.mul(
                        check, ring.pow(ring.el([tau, 1]), orb.closure_ker_weight)
                    )
                expected = ring.embed(orb.closure_scalar)
            if check != expected:
                raise RankDeficient(
                    f"orbit closure for {orb.anchor!r} failed verification", [idx]
                )
            out.append(Relation(cols, const, 0))
        # g0^(p-1) = 1
        out.append(Relation({}, (p - 1) % N, 0))
        return out


class Relation:
    """One row of the log system: sum of column logs equals e mod p^d - 1,
    where e is the exponent of the sieving generator (0 for free rows)."""

    __slots__ = ("columns", "const_exp", "e")

    def __init__(self, columns, const_exp: int, e: int):
        self.columns = {c: x for c, x in columns.items() if x != 0}
        self.const_exp = const_exp
        self.e = e

    def __repr__(self):
        return f"Relation(e={self.e}, cols={len(self.columns)})"

    def __eq__(self, other):
        return (
            isinstance(other, Relation)
            and (self.columns, self.const_exp, self.e)
            == (other.columns, other.const_exp, other.e)
        )

    def verify(self, fb: FactorBase, g: Poly, powers: FixedBasePowers | None = None) -> bool:
        """Multiplicative soundness: the column values raised to their
        exponents reproduce g^e exactly.  `powers`, the fixed-base table of
        g when the caller holds one, makes g^e cheaper."""
        rep = fb.rep
        ring = rep.ring
        N = rep.order()
        acc = ring.one()
        for col, exp in self.columns.items():
            acc = ring.mul(acc, ring.pow(fb.column_value(col), exp % N))
        acc = ring.mul(acc, ring.pow(ring.embed(fb.g0), self.const_exp % N))
        if powers is None:
            return acc == ring.pow(ring.el(g), self.e % N)
        return acc == powers.pow(self.e)

    def dense_row(self, ncols: int):
        row = [0] * ncols
        for col, exp in self.columns.items():
            row[col] = exp
        row[ncols - 1] = self.const_exp
        return row

    def to_json(self):
        return {
            "e": str(self.e),
            "columns": sorted([c, str(x)] for c, x in self.columns.items()),
            "const_exp": str(self.const_exp),
        }

    @classmethod
    def from_json(cls, data):
        cols = {int(c): int(x) for c, x in data["columns"]}
        return cls(cols, int(data["const_exp"]), int(data["e"]))


def build_factor_base(rep: Representation, kappa: int) -> FactorBase:
    if not 1 <= kappa < rep.d:
        raise ValueError(f"need 1 <= kappa < d, got kappa={kappa}, d={rep.d}")
    polys = monic_irreducibles(rep.p, kappa)
    orbits = orbit_partition(rep, polys)
    return FactorBase(rep, kappa, orbits, primitive_root(rep.p))


def smooth_factor(fb: FactorBase, z: Poly):
    """Express z over the factor base, or None if z is not kappa-smooth.

    Each irreducible factor q is some sigma^j applied to its orbit anchor,
    so its log folds into the anchor column with weight p^j, a scalar
    correction on the constant column, and (torus) a weight on the kernel
    column.  The leading unit also lands on the constant column.
    """
    rep = fb.rep
    N = rep.order()
    if z.is_zero():
        raise ValueError("cannot factor the zero element")
    if not is_smooth(z, fb.kappa):
        return None
    unit, factors = factor(z)
    cols = {}
    const = fb.scalar_log(unit)
    for q, mult in factors:
        hit = fb.member_of(q)
        if hit is None:
            return None  # degree fits but poly missing: inconsistent base
        idx, mem = hit
        orb = fb.orbits[idx]
        if orb.is_kernel:
            w = (rep.p ** mem.shift + mem.ker_weight) * mult
            cols[idx] = (cols.get(idx, 0) + w) % N
        else:
            cols[idx] = (cols.get(idx, 0) + rep.p ** mem.shift * mult) % N
            if mem.ker_weight:
                kcol = fb.kernel_index
                cols[kcol] = (cols.get(kcol, 0) + mem.ker_weight * mult) % N
        const -= fb.scalar_log(mem.scalar) * mult
    return cols, const % N


def find_generator(rep: Representation) -> Poly:
    """Deterministic generator of L^*: first full-order element in the
    canonical enumeration of nonconstant low-degree polynomials.

    For a prime l | p - 1 the test g^(N/l) != 1 needs no ring power: with
    the modulus A monic, g^(N/(p-1)) is the norm of g, which is the
    resultant Res(A, g) in F_p, so the test reads norm^((p-1)/l) != 1 mod p.
    Ring powers are left for the primes l that do not divide p - 1.
    """
    N = rep.order()
    facs = factorize_int(N)
    ring = rep.ring
    p = rep.p
    small = [ell for ell in facs if (p - 1) % ell == 0]
    large = [ell for ell in facs if (p - 1) % ell]
    for n in range(p, p ** rep.d):
        coeffs = []
        v = n
        while v:
            coeffs.append(v % p)
            v //= p
        g = ring.el(coeffs)
        norm = resultant(ring.modulus, g)
        if any(pow(norm, (p - 1) // ell, p) == 1 for ell in small):
            continue
        if all(ring.pow(g, N // ell) != ring.one() for ell in large):
            return g
    raise NotFound("the multiplicative group has no generator?")


def _mix(seed: int, i: int) -> int:
    """RNG key of position i in the stream of seed.  Sieve trial i, the JL
    setup search, the descent (i = 0x85EBCA77 + column) and individual_log
    (i = 0x517CC1B7) all draw from random.Random(_mix(seed, i))."""
    return seed * 0x9E3779B1 + i


def sieve_trials(seed: int, budget: int, target, draw, relation):
    """The trial loop behind every sieve.

    Trial i passes random.Random(_mix(seed, i)) to draw, which returns
    (key, candidate), or None for a degenerate draw.  A key already seen is
    skipped; otherwise relation(candidate) gives a relation or None.
    Relations come back in trial order, so those for a smaller target are a
    prefix of those for a larger one.  The loop stops at target relations
    and raises SieveTimeout with the partial list if the budget of trials
    runs out first; with target None it runs the whole budget.
    """
    relations = []
    seen = set()
    for i in range(budget):
        if target is not None and len(relations) >= target:
            return relations
        drawn = draw(random.Random(_mix(seed, i)))
        if drawn is None:
            continue
        key, candidate = drawn
        if key in seen:
            continue
        seen.add(key)
        rel = relation(candidate)
        if rel is not None:
            relations.append(rel)
    if target is not None and len(relations) < target:
        raise SieveTimeout(
            f"{len(relations)}/{target} relations in {budget} trials", relations
        )
    return relations


def collect_relations(
    rep: Representation,
    fb: FactorBase,
    target_count: int,
    seed: int = 0,
    g: Poly = None,
    max_trials: int = 10**6,
):
    """Sieve for target_count relations g^e = smooth product.

    Trials run through sieve_trials, keyed by their exponent e, so an
    exponent drawn twice gives one relation.
    """
    if g is None:
        g = find_generator(rep)
    N = rep.order()
    powers = FixedBasePowers(rep.ring, g, N)

    def draw(rng):
        e = rng.randrange(1, N)
        return e, e

    def relation(e):
        hit = smooth_factor(fb, powers.pow(e))
        if hit is None:
            return None
        rel = Relation(*hit, e)
        if not rel.verify(fb, g, powers):
            raise ValueError(f"unsound relation for exponent {e}")
        return rel

    return sieve_trials(seed, max_trials, target_count, draw, relation)


# ---------------------------------------------------------------------------
# Solving modulo N = p^d - 1.


class _Overflow(Exception):
    pass


def _valuation(a: int, ell: int) -> int:
    v = 0
    while a % ell == 0:
        a //= ell
        v += 1
    return v


def _echelon_mod_prime_power(rows, rhs, ell, k, ncols):
    """Row-echelon with minimal-valuation pivots over Z/ell^k.

    Returns (aug, pivots, spare) where pivots maps col -> (row index,
    pivot valuation) and spare lists rows left without a pivot.  A pivot
    row ends up with zeros at every lower pivot column, which is what the
    downstream back-substitution and propagation rely on.
    """
    mod = ell**k
    m = len(rows)
    aug = [[rows[i][j] % mod for j in range(ncols)] + [rhs[i] % mod] for i in range(m)]
    used = [False] * m
    pivots = {}
    for col in range(ncols):
        best = None
        for i in range(m):
            if used[i] or aug[i][col] == 0:
                continue
            v = _valuation(aug[i][col], ell)
            if best is None or v < best[1]:
                best = (i, v)
                if v == 0:
                    break
        if best is None:
            continue
        i, v = best
        used[i] = True
        pivots[col] = (i, v)
        unit = aug[i][col] // ell**v
        uinv = pow(unit, -1, mod)
        aug[i] = [a * uinv % mod for a in aug[i]]
        for j in range(m):
            if used[j] or aug[j][col] == 0:
                continue
            factor_ = aug[j][col] // ell**v  # valuation >= v by minimality
            aug[j] = [(a - factor_ * b) % mod for a, b in zip(aug[j], aug[i])]
    spare = [i for i in range(m) if not used[i]]
    return aug, pivots, spare


def _enumerate_component(aug, pivots, spare, ell, k, ncols, cap):
    """All solutions mod ell^k as vectors; raises _Overflow past cap."""
    mod = ell**k
    free_cols = [c for c in range(ncols) if c not in pivots]
    total = 1
    for c in pivots:
        total *= ell ** pivots[c][1]
    for _ in free_cols:
        total *= mod
    if total > cap:
        raise _Overflow

    sols = []
    # free columns first, then pivots highest-to-lowest: a pivot row has
    # zeros at every lower pivot column, so all its other terms are
    # already assigned when its turn comes
    order = free_cols + sorted(pivots, reverse=True)

    def descend(pos, assign):
        if len(sols) > cap:
            raise _Overflow
        if pos == ncols:
            for i in spare:
                s = sum(aug[i][c] * assign[c] for c in range(ncols)) % mod
                if s != aug[i][ncols]:
                    return
            sols.append(assign[:])
            return
        col = order[pos]
        if col in pivots:
            i, v = pivots[col]
            acc = aug[i][ncols]
            for c in range(ncols):
                if c != col and aug[i][c]:
                    acc -= aug[i][c] * assign[c]
            acc %= mod
            if acc % ell**v != 0:
                return  # this branch of earlier choices is inconsistent
            base = acc // ell**v % (mod // ell**v)
            step = mod // ell**v
            for t in range(ell**v):
                assign[col] = base + t * step
                descend(pos + 1, assign)
            assign[col] = 0
        else:
            for val in range(mod):
                assign[col] = val
                descend(pos + 1, assign)
            assign[col] = 0

    descend(0, [0] * ncols)
    if not sols:
        raise ValueError(f"relations are inconsistent modulo {ell}^{k}")
    return sols


def _propagate_component(aug, pivots, ell, k, ncols, cap):
    """Per-column candidates when the solution set is too big to enumerate.

    Unit propagation over the pivot rows: a row whose other columns are
    all pinned determines its pivot column exactly (valuation 0) or up to
    a coset of size ell^v.  Columns depending on a genuinely free column
    stay None.  Candidate lists always contain the true value; they are
    just not always available.
    """
    mod = ell**k
    known = {}
    cosets = {}
    changed = True
    while changed:
        changed = False
        for col, (i, v) in pivots.items():
            if col in known or col in cosets:
                continue
            acc = aug[i][ncols]
            blocked = False
            for c in range(ncols):
                if c == col or aug[i][c] == 0:
                    continue
                if c in known:
                    acc -= aug[i][c] * known[c]
                else:
                    blocked = True
                    break
            if blocked:
                continue
            acc %= mod
            if acc % ell**v != 0:
                raise ValueError(f"relations are inconsistent modulo {ell}^{k}")
            base = acc // ell**v % (mod // ell**v)
            step = mod // ell**v
            if v == 0:
                known[col] = base
            elif ell**v <= cap:
                cosets[col] = [base + t * step for t in range(ell**v)]
            else:
                continue
            changed = True
    out = []
    for col in range(ncols):
        if col in known:
            out.append([known[col]])
        elif col in cosets:
            out.append(cosets[col])
        else:
            out.append(None)
    return out


def solve_log_system(relations, N: int, ncols: int, verifier=None, cap: int = 4096):
    """Solve the stacked relation rows for all column logs mod N.

    Per prime power of N: valuation-aware elimination, then either exact
    enumeration of the solution set (small systems) or unit propagation
    (large ones), giving per-column candidate lists.  Components are
    CRT-combined; a column left ambiguous is settled by the
    verifier(col, candidate) callback when one is supplied, otherwise the
    smallest candidate is taken and the column lands in the uncertain set.
    """
    rows = [r.dense_row(ncols) for r in relations]
    rhs = [r.e for r in relations]
    components = []  # (modulus, per-col candidate list or None)
    for ell, k in sorted(factorize_int(N).items()):
        mod = ell**k
        aug, pivots, spare = _echelon_mod_prime_power(rows, rhs, ell, k, ncols)
        try:
            sols = _enumerate_component(aug, pivots, spare, ell, k, ncols, cap)
            cands = [sorted({s[col] for s in sols}) for col in range(ncols)]
        except _Overflow:
            cands = _propagate_component(aug, pivots, ell, k, ncols, cap)
        components.append((mod, cands))

    values = []
    uncertain = set()
    moduli = [mod for mod, _ in components]
    for col in range(ncols):
        parts = [cands[col] for _, cands in components]
        if all(p is not None and len(p) == 1 for p in parts):
            values.append(crt([p[0] for p in parts], moduli))
            continue
        resolved = None
        if verifier is not None:
            options = []
            total = 1
            for mod, part in zip(moduli, parts):
                opt = part if part is not None else (
                    list(range(mod)) if mod <= cap else None
                )
                if opt is None:
                    total = cap + 1
                    break
                total *= len(opt)
                options.append(opt)
            if total <= cap:
                for combo in _cartesian(options):
                    lam = crt(list(combo), moduli)
                    if verifier(col, lam):
                        resolved = lam
                        break
        if resolved is None:
            minimal = [(p[0] if p else 0) for p in parts]
            values.append(crt(minimal, moduli))
            uncertain.add(col)
        else:
            values.append(resolved)
    return values, uncertain


def _cartesian(options):
    if not options:
        yield ()
        return
    for head in options[0]:
        for rest in _cartesian(options[1:]):
            yield (head,) + rest


class LogTable:
    """Discrete logs of the factor-base columns, base g, modulo N.

    The fixed-base table of g is built on first use and kept, so every
    individual log against this table shares one.
    """

    def __init__(self, g: Poly, N: int, logs):
        self.g = g
        self.N = N
        self.logs = dict(logs)  # Poly -> int
        self._powers = None

    def __repr__(self):
        return f"LogTable(entries={len(self.logs)}, N={self.N})"

    def log(self, value: Poly) -> int:
        return self.logs[value]

    def powers(self, ring) -> FixedBasePowers:
        """The fixed-base table of g in ring."""
        if self._powers is None or self._powers.ring is not ring:
            self._powers = FixedBasePowers(ring, ring.el(self.g), self.N)
        return self._powers

    def verify_all(self, rep: Representation) -> bool:
        ring = rep.ring
        powers = self.powers(ring)
        return all(powers.pow(lam) == ring.el(v) for v, lam in self.logs.items())

    def to_json(self):
        return {
            "base_g": self.g.to_list(),
            "N": str(self.N),
            "logs": {
                ",".join(map(str, v.coeffs)): str(lam) for v, lam in self.logs.items()
            },
        }

    @classmethod
    def from_json(cls, data, rep: Representation):
        g = rep.field.poly([int(c) for c in data["base_g"]])
        logs = {}
        for key, lam in data["logs"].items():
            coeffs = [int(c) for c in key.split(",")] if key else []
            logs[rep.field.poly(coeffs)] = int(lam)
        return cls(g, int(data["N"]), logs)


def build_log_table(
    rep: Representation,
    fb: FactorBase,
    relations,
    g: Poly,
    cap: int = 4096,
    seed: int = 0,
    patch_trials: int = 500,
) -> LogTable:
    """Solve the relation system and package verified logs for every column.

    Columns the sieve never touched (the tail of rare orbits) cannot come
    out of the linear algebra; they are patched afterwards by descent:
    randomize the anchor by known powers of g until it factors over
    already-resolved columns.  Every log is confirmed by exponentiation
    before it enters the table.
    """
    N = rep.order()
    ring = rep.ring
    table = LogTable(g, N, {})
    powers = table.powers(ring)

    def verifier(col, lam):
        return powers.pow(lam) == fb.column_value(col)

    values, uncertain = solve_log_system(relations, N, fb.ncols, verifier, cap)
    resolved = set()
    for col in range(fb.ncols):
        if col not in uncertain and verifier(col, values[col]):
            resolved.add(col)

    while len(resolved) < fb.ncols:
        progress = False
        for col in range(fb.ncols):
            if col in resolved or fb.const_col not in resolved:
                continue
            anchor_el = fb.column_value(col)
            rng = random.Random(_mix(seed, 0x85EBCA77 + col))
            for trial in range(patch_trials):
                e = 0 if trial == 0 else rng.randrange(1, N)
                z = ring.mul(anchor_el, powers.pow(e))
                hit = smooth_factor(fb, z)
                if hit is None:
                    continue
                cols, const = hit
                if col in cols or any(c not in resolved for c in cols):
                    continue
                lam = -e + const * values[fb.const_col]
                for c, exp in cols.items():
                    lam += exp * values[c]
                lam %= N
                if verifier(col, lam):
                    values[col] = lam
                    resolved.add(col)
                    progress = True
                    break
        if not progress:
            raise RankDeficient(
                "log system does not determine all columns; collect more relations",
                sorted(set(range(fb.ncols)) - resolved),
            )

    for col in range(fb.ncols):
        table.logs[fb.column_value(col)] = values[col]
    return table


def _rational_split(modulus: Poly, z: Poly, bound: int):
    """(num, den) with z * den = num mod modulus, deg num <= bound and
    deg den <= deg modulus - 1 - bound, for z reduced below the modulus and
    0 <= bound < deg modulus.

    Extended Euclid on (modulus, z) keeps r_i = t_i * z mod modulus and
    stops at the first remainder r_i of degree <= bound.  Then
    deg t_i = deg modulus - deg r_{i-1} and deg r_{i-1} > bound.  With an
    irreducible modulus and z != 0 the remainders end at a nonzero
    constant, so the loop stops and num, den are both nonzero.
    """
    r0, r1 = modulus, z
    t0, t1 = Poly([], z.p), Poly([1], z.p)
    while r1.degree > bound:
        q, r = divmod(r0, r1)
        r0, r1 = r1, r
        t0, t1 = t1, t0 - q * t1
    return r1, t1


def individual_log(
    rep: Representation,
    fb: FactorBase,
    table: LogTable,
    target: Poly,
    seed: int = 0,
    max_trials: int = 10**5,
) -> int:
    """log_g(target), by randomizing with known powers until smooth.

    Trial e writes z = target * g^e as num / den with both halves of degree
    about d/2 (Blake, Fuji-Hara, Mullin and Vanstone, 1984) and needs both
    to be smooth, which happens far more often than for the one degree
    d - 1 polynomial z.  Then log target = -e + log num - log den.  The
    split only changes which trial succeeds, not the answer: for a fixed
    g the log is unique mod N, and no result is returned before
    g^result == target has been checked by exponentiation.
    """
    ring = rep.ring
    N = rep.order()
    target = ring.el(target)
    if target.is_zero():
        raise ValueError("zero has no logarithm")
    powers = table.powers(ring)
    log_g0 = table.log(ring.embed(fb.g0))

    def table_log(hit):
        cols, const = hit
        return const * log_g0 + sum(
            exp * table.log(fb.column_value(col)) for col, exp in cols.items()
        )

    rng = random.Random(_mix(seed, 0x517CC1B7))
    for trial in range(max_trials):
        e = 0 if trial == 0 else rng.randrange(N)
        num, den = _rational_split(
            ring.modulus, ring.mul(target, powers.pow(e)), rep.d // 2
        )
        num_hit = smooth_factor(fb, num)
        if num_hit is None:
            continue
        den_hit = smooth_factor(fb, den)
        if den_hit is None:
            continue
        result = (-e + table_log(num_hit) - table_log(den_hit)) % N
        if powers.pow(result) != target:
            continue  # table inconsistency would surface here; keep trying
        return result
    raise SieveTimeout(f"no smooth randomization of target in {max_trials} trials")


def compute_logs(
    rep: Representation,
    kappa: int,
    seed: int = 0,
    margin: int = 10,
    max_trials: int = 10**6,
):
    """Whole pipeline: factor base, generator, relations, solved table.

    A rank-deficient solve (typically a column the sieve happened never to
    hit) triggers a top-up: the target count grows and the trial stream is
    replayed, so the result is still a deterministic function of the seed.
    """
    fb = build_factor_base(rep, kappa)
    g = find_generator(rep)
    free = fb.free_relations()
    target = fb.ncols + margin
    for round_ in range(6):
        sieved = collect_relations(
            rep, fb, target, seed=seed, g=g, max_trials=max_trials
        )
        try:
            table = build_log_table(rep, fb, free + sieved, g, seed=seed)
        except RankDeficient:
            if round_ == 5:
                raise
            target += max(16, fb.ncols // 4)
            continue
        return fb, g, free + sieved, table
    raise AssertionError("unreachable")
