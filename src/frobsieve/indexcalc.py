"""Index-calculus discrete logarithms over structured residue fields.

The engine is the classical linear sieve: fix a smoothness bound kappa,
collect multiplicative relations g^e = product of monic irreducibles of
degree <= kappa, find the log of every base column, then peel individual
logarithms off the table.  The column logs are found modulo each prime
power l^k of N = p^d - 1 and combined by CRT.  Below SMALL_PRIME_BOUND
(2^20) Pohlig-Hellman reads them from the subgroup of order l^k, exactly
and without relations; modulo each larger l each relation is reduced
once into one sparse echelon over F_l.  While a column lacks a pivot, more
relations come from the same trial stream, which resumes where it stopped
until its trial budget runs out.  Every log is checked by exponentiation.

What the structural Frobenius buys is column count: polynomials in one
orbit have logarithms that differ by powers of p and explicit scalars, so
only one unknown per orbit survives.  On the torus model the orbit
bookkeeping also carries weights on the distinguished column x + tau,
whose own orbit walks off to the place at infinity.
"""

import itertools
import random

from .errors import InconsistentFrobenius, NotFound, RankDeficient, SieveTimeout
from .ffcore import (
    Echelon,
    FixedBasePowers,
    Poly,
    PrimeOps,
    _rational_split,
    bsgs_dlog,
    crt,
    factor,
    monic_irreducibles,
    primitive_root,
    resultant,
    smooth_pieces,
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
            p = self.rep.p
            self._scalar_logs[s] = bsgs_dlog(PrimeOps(p), self.g0, s, p - 1)
        return self._scalar_logs[s]

    def free_relations(self):
        """Relations that cost nothing: one closure row per orbit, plus the
        order of the constant column.  Each closure row is checked by
        Relation.verify against g^0 = 1 before being handed out."""
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
            if orb.is_kernel:
                # (x+tau)^E = C
                cols = {idx: orb.closure_exponent % N}
            else:
                # anchor^{p^size - 1} * (x+tau)^W = S
                cols = {idx: (p ** orb.size - 1) % N}
                if orb.closure_ker_weight:
                    cols[self.kernel_index] = orb.closure_ker_weight % N
            rel = Relation(cols, -self.scalar_log(orb.closure_scalar) % N, 0)
            if not rel.verify(self, ring.one()):
                raise InconsistentFrobenius(
                    f"orbit closure for {orb.anchor!r} failed verification"
                )
            out.append(rel)
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


def _split_over(fb: FactorBase, z: Poly, lookup):
    """(unit, [(lookup[q], m), ...]) over the monic irreducible factors q^m
    of z, when z is kappa-smooth and every q is a base polynomial; else None.

    `lookup` maps the coefficients of each base polynomial to what the
    caller sums: its (orbit index, member) in smooth_factor, its log in
    individual_log.  z is tested for smoothness first, and a passer is
    split from the distinct-degree pieces the test returns; a z of degree
    <= kappa that is a scalar times a base polynomial is looked up, not
    split.
    """
    if z.is_zero():
        raise ValueError("cannot factor the zero element")
    pieces = smooth_pieces(z, fb.kappa)
    if pieces is None:
        return None
    if 0 < z.degree <= fb.kappa and z.monic().coeffs in lookup:
        unit, factors = z.lc(), [(z.monic(), 1)]
    else:
        unit, factors = factor(z, pieces=pieces)
    hits = []
    for q, mult in factors:
        hit = lookup.get(q.coeffs)
        if hit is None:
            return None  # degree fits but poly missing: inconsistent base
        hits.append((hit, mult))
    return unit, hits


def smooth_factor(fb: FactorBase, z: Poly):
    """Express z over the factor base, or None if z is not kappa-smooth.

    Each irreducible factor q is some sigma^j applied to its orbit anchor,
    so its log folds into the anchor column with weight p^j, a scalar
    correction on the constant column, and (torus) a weight on the kernel
    column.  The leading unit also lands on the constant column.  The
    test, lookup and split are _split_over's.
    """
    rep = fb.rep
    N = rep.order()
    split = _split_over(fb, z, fb._members)
    if split is None:
        return None
    unit, hits = split
    cols = {}
    const = fb.scalar_log(unit)
    for (idx, mem), mult in hits:
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
    facs = rep.order_factors()
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
    setup search and individual_log (i = 0x517CC1B7) all draw from
    random.Random(_mix(seed, i))."""
    return seed * 0x9E3779B1 + i


def trial_stream(seed: int, budget: int, draw, relation):
    """The trial loop behind every sieve: a generator of relations.

    Trial i passes random.Random(_mix(seed, i)) to draw, which returns
    (key, candidate), or None for a degenerate draw.  A key already seen is
    skipped; otherwise relation(candidate) gives a relation or None.
    Relations come in trial order, and the generator keeps its position and
    seen keys, so pulling more resumes where it stopped.  It ends when the
    budget of trials runs out.
    """
    seen = set()
    for i in range(budget):
        drawn = draw(random.Random(_mix(seed, i)))
        if drawn is None:
            continue
        key, candidate = drawn
        if key in seen:
            continue
        seen.add(key)
        rel = relation(candidate)
        if rel is not None:
            yield rel


def _take_relations(stream, relations, target, budget):
    """Extend relations from stream to target of them (all, with target
    None); raise SieveTimeout with them as its partial if it runs dry."""
    count = None if target is None else max(target - len(relations), 0)
    relations.extend(itertools.islice(stream, count))
    if target is not None and len(relations) < target:
        raise SieveTimeout(f"{len(relations)}/{target} relations in {budget} trials", relations)
    return relations


def sieve_trials(seed: int, budget: int, target, draw, relation):
    """The first target relations of trial_stream (see _take_relations), so
    those for a smaller target are a prefix of those for a larger one."""
    return _take_relations(trial_stream(seed, budget, draw, relation), [], target, budget)


def relation_stream(rep: Representation, fb: FactorBase, g: Poly, powers: FixedBasePowers,
                    seed: int, max_trials: int):
    """The trial stream of relations g^e = smooth product, keyed by their
    exponent e, so an exponent drawn twice gives one relation.  `powers`
    is the fixed-base table of g."""
    N = rep.order()

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

    return trial_stream(seed, max_trials, draw, relation)


def collect_relations(rep: Representation, fb: FactorBase, target_count: int,
                      seed: int = 0, g: Poly = None, max_trials: int = 10**6):
    """The first target_count relations of relation_stream."""
    if g is None:
        g = find_generator(rep)
    powers = FixedBasePowers(rep.ring, g, rep.order())
    stream = relation_stream(rep, fb, g, powers, seed, max_trials)
    return _take_relations(stream, [], target_count, max_trials)


# ---------------------------------------------------------------------------
# Solving for the column logs.

# Primes of N below this bound are read by Pohlig-Hellman; each digit is
# one BSGS of at most about 2^10 products.
SMALL_PRIME_BOUND = 1 << 20


def _order_split(rep: Representation):
    """({l: k} read by Pohlig-Hellman, [l] solved from relations).

    The relations are solved modulo the primes l >= SMALL_PRIME_BOUND that
    divide N exactly once; every other prime power l^k of N goes to
    Pohlig-Hellman, which needs no relations.
    """
    small, large = {}, []
    for ell, k in sorted(rep.order_factors().items()):
        if ell >= SMALL_PRIME_BOUND and k == 1:
            large.append(ell)
        else:
            small[ell] = k
    return small, large


def pohlig_hellman(rep: Representation, g: Poly, targets, prime_powers):
    """log_g of each target modulo each l^k in prime_powers {l: k}, one
    list of residues per prime power (Pohlig and Hellman, 1978).

    Each target is projected into the subgroup of order l^k and its log
    read there one base-l digit at a time, each digit by one BSGS in the
    subgroup of order l.  Exact, and independent of any relation.
    """
    ring = rep.ring
    N = rep.order()
    parts = []
    for ell, k in sorted(prime_powers.items()):
        q = ell**k
        g_q = ring.pow(g, N // q)
        gamma = ring.pow(g_q, q // ell)  # order l
        logs = []
        for z in targets:
            z_q = ring.pow(z, N // q)
            x = 0
            for i in range(k):
                h = ring.pow(ring.mul(z_q, ring.pow(g_q, q - x)), ell ** (k - 1 - i))
                x += bsgs_dlog(ring, gamma, h, ell) * ell**i
            logs.append(x)
        parts.append(logs)
    return parts


def _reduce(echelons, relations):
    """Add each relation, its constant exponent on the last column, to each
    echelon and return them; ValueError names l if one contradicts them."""
    for rel in relations:
        for ech in echelons:
            ech.add({**rel.columns, ech.ncols - 1: rel.const_exp}, rel.e)
    return echelons


def _column_logs(rep: Representation, echelons, g: Poly, targets):
    """Candidate logs: Pohlig-Hellman, each echelon's solution, then CRT."""
    small, large = _order_split(rep)
    parts = pohlig_hellman(rep, g, targets, small) + [ech.solve() for ech in echelons]
    moduli = [ell**k for ell, k in sorted(small.items())] + large
    return [crt([part[i] for part in parts], moduli) for i in range(len(targets))]


def solve_log_system(rep: Representation, relations, g: Poly, targets):
    """Candidate log_g of each target mod N, where targets are the column
    values in column order and relations are rows over those columns.

    Each prime power of N takes one exact path (see _order_split):
    Pohlig-Hellman for the small ones, and for each large prime l one
    sparse echelon of the rows over F_l (LaMacchia and Odlyzko, 1990:
    sieved relations only have to be solved modulo the large primes of N).
    CRT combines the pieces.  A column the rows leave free mod l reads 0
    there, and so may a pivot column that depends on it, so the caller
    checks every candidate by exponentiation.  Raises ValueError if the
    rows are inconsistent modulo some l.
    """
    echelons = [Echelon(len(targets), ell) for ell in _order_split(rep)[1]]
    return _column_logs(rep, _reduce(echelons, relations), g, targets)


class LogTable:
    """Discrete logs of the factor-base columns, base g, modulo N.

    The fixed-base table of g, and for a factor base the log of each of
    its columns and of each of its base polynomials, are built on first
    use and kept, so every individual log against this table shares them.
    """

    def __init__(self, g: Poly, N: int, logs):
        self.g = g
        self.N = N
        self.logs = dict(logs)  # Poly -> int
        self._powers = None
        self._base_logs = None  # (factor base, its column logs, its member logs)

    def __repr__(self):
        return f"LogTable(entries={len(self.logs)}, N={self.N})"

    def log(self, value: Poly) -> int:
        return self.logs[value]

    def powers(self, ring) -> FixedBasePowers:
        """The fixed-base table of g in ring."""
        if self._powers is None or self._powers.ring is not ring:
            self._powers = FixedBasePowers(ring, ring.el(self.g), self.N)
        return self._powers

    def _logs_of(self, fb: FactorBase):
        if self._base_logs is None or self._base_logs[0] is not fb:
            N, p = self.N, fb.rep.p
            cols = [self.log(fb.column_value(col)) for col in range(fb.ncols)]
            log_g0 = cols[fb.const_col]
            log_ker = 0 if fb.kernel_index is None else cols[fb.kernel_index]
            members = {
                coeffs: (p ** mem.shift * cols[idx] - fb.scalar_log(mem.scalar) * log_g0
                         + mem.ker_weight * log_ker) % N
                for coeffs, (idx, mem) in fb._members.items()
            }
            self._base_logs = (fb, cols, members)
        return self._base_logs

    def column_logs(self, fb: FactorBase) -> list[int]:
        """The log of each column of fb, in column order."""
        return self._logs_of(fb)[1]

    def member_logs(self, fb: FactorBase) -> dict:
        """The log of each base polynomial of fb, keyed by its coefficients:
        a member q = anchor^(p^shift) * scalar^-1 * (x + tau)^ker_weight has
        p^shift L(anchor) - scalar_log(scalar) L(g0) + ker_weight L(x + tau)."""
        return self._logs_of(fb)[2]

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


def build_log_table(rep: Representation, fb: FactorBase, relations, g: Poly) -> LogTable:
    """Solve for every column log and package them, each verified.

    The column logs come as in solve_log_system, and every one is checked
    by exponentiation.  A column that fails the check (one the relations
    left undetermined modulo some large prime of N) raises RankDeficient
    naming the failing columns: more relations are needed.
    """
    echelons = [Echelon(fb.ncols, ell) for ell in _order_split(rep)[1]]
    powers = FixedBasePowers(rep.ring, g, rep.order())
    return _table(rep, fb, g, powers, _reduce(echelons, relations))


def _table(rep: Representation, fb: FactorBase, g: Poly, powers: FixedBasePowers,
           echelons) -> LogTable:
    """build_log_table from the echelons the relations were reduced into;
    the table keeps powers, the fixed-base table of g."""
    table = LogTable(g, rep.order(), {})
    table._powers = powers
    targets = [fb.column_value(col) for col in range(fb.ncols)]
    values = _column_logs(rep, echelons, g, targets)
    failed = [col for col in range(fb.ncols) if powers.pow(values[col]) != targets[col]]
    if failed:
        raise RankDeficient(
            "log system does not determine all columns; collect more relations",
            failed,
        )
    table.logs.update(zip(targets, values))
    return table


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
    d - 1 polynomial z.  Then log target = -e + log num - log den.  Trial 0
    takes e = 0 and splits the target as it is, with no power of g; the
    RNG that draws e for the later trials is built only when trial 1 is
    needed.  The log of a smooth half is L(unit) + sum m L(q) over its
    factors q^m, read from the table's member logs of fb (see
    LogTable.member_logs); the smoothness test, lookup and split are
    smooth_factor's (_split_over).  The split only changes which trial
    succeeds, not the answer: for a fixed g the log is unique mod N, and
    no result is returned before g^result == target has been checked by
    exponentiation.
    """
    ring = rep.ring
    N = rep.order()
    target = ring.el(target)
    if target.is_zero():
        raise ValueError("zero has no logarithm")
    powers = table.powers(ring)
    member_logs = table.member_logs(fb)
    log_g0 = table.column_logs(fb)[fb.const_col]

    def half_log(z):
        split = _split_over(fb, z, member_logs)
        if split is None:
            return None
        unit, hits = split
        return fb.scalar_log(unit) * log_g0 + sum(lam * mult for lam, mult in hits)

    e, z, rng = 0, target, None
    for trial in range(max_trials):
        if trial:
            if rng is None:
                rng = random.Random(_mix(seed, 0x517CC1B7))
            e = rng.randrange(N)
            z = ring.mul(target, powers.pow(e))
        num, den = _rational_split(ring.modulus, z, rep.d // 2)
        num_log = half_log(num)
        if num_log is None:
            continue
        den_log = half_log(den)
        if den_log is None:
            continue
        result = (-e + num_log - den_log) % N
        if powers.pow(result) != target:
            continue  # table inconsistency would surface here; keep trying
        return result
    raise SieveTimeout(f"no smooth randomization of target in {max_trials} trials")


# compute_logs first collects this many sieved relations beyond the columns
RELATION_MARGIN = 10


def compute_logs(rep: Representation, kappa: int, seed: int = 0, max_trials: int = 10**6):
    """Whole pipeline: factor base, generator, relations, solved table.

    Each sieved relation from one relation_stream is reduced once, after
    the free rows, into one echelon per large prime of N; while one lacks a
    pivot, the stream yields max(16, ncols // 4) more from where it stopped.
    The trial budget max_trials is the only stop: SieveTimeout carries the
    relations found so far.  One fixed-base table of g serves the stream
    and the returned LogTable.  The result is a deterministic function of
    the seed.
    """
    fb = build_factor_base(rep, kappa)
    g = find_generator(rep)
    powers = FixedBasePowers(rep.ring, g, rep.order())
    free = fb.free_relations()
    echelons = _reduce([Echelon(fb.ncols, ell) for ell in _order_split(rep)[1]], free)
    stream = relation_stream(rep, fb, g, powers, seed, max_trials)
    sieved = []
    # the stream holds one relation per exponent, N - 1 in all, which at
    # F_4 and F_9 is fewer than ncols + RELATION_MARGIN
    target = min(fb.ncols + RELATION_MARGIN, rep.order() - 1)
    while True:
        done = len(sieved)
        _reduce(echelons, _take_relations(stream, sieved, target, max_trials)[done:])
        if all(ech.full for ech in echelons):
            return fb, g, free + sieved, _table(rep, fb, g, powers, echelons)
        target += max(16, fb.ncols // 4)
