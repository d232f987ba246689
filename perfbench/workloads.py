"""The benchmark's four workloads.

Each workload has a set-up (timed as setup_s), a deterministic stream of
units of repeated work made from the workload seed, and a rule for when to
stop starting units.  A unit times its work, then checks its outputs
outside the timed region (and outside the trace) and keeps only small
results, so peak memory does not grow with the number of units.
"""

import contextlib
import random
import signal
import statistics

# Library calls go through the package namespace, so that the tracer's
# patches of that namespace see them.
import frobsieve as fs
from frobsieve.errors import RankDeficient, SieveTimeout

from reference import ph_bsgs_log
from tracer import Deadline

# Per-call deadline on compute_logs at 43^6.  Over seeds 0-33 the slowest
# seed that completes takes 9.1 s on a 2-core host whose speed drifts by
# 15-40%, so 15 s leaves headroom; every seed that stalls runs far past it.
DLOG_DEADLINE_S = 15.0
# Individual logs after each completed table, and the fewest a run makes.
# A log takes from 1 to 20 or more smoothness trials, so p50 over a set of
# targets moves with the set: by about 9% (quartile spread) over 400 random
# targets, 5% over 1000 and 3.5% over 2000.  A run therefore goes on to more
# seeds until it has MIN_ILOGS, and p95 always has a hundred samples beyond
# it.
ILOGS_PER_TABLE = 1000
MIN_ILOGS = 2000
# Pohlig-Hellman + BSGS takes about 15 ms a log: the traced run checks it
# against the first this many individual logs of each table
REF_TARGETS_PER_TABLE = 200


def _untraced(tracer):
    return tracer.paused() if tracer is not None else contextlib.nullcontext()


class Alarm:
    """Cuts a call off after a deadline, by SIGALRM.

    While a tracer is updating its span stack the cut waits a millisecond,
    so spans are never left half written.  The spans open when the cut
    lands are kept, innermost first, in open_spans.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.open_spans = []

    def _fire(self, signum, frame):
        if self.tracer is not None:
            if self.tracer.busy:
                signal.setitimer(signal.ITIMER_REAL, 0.001)
                return
            self.open_spans = self.tracer.open_names()
        raise Deadline()

    @contextlib.contextmanager
    def limit(self, seconds):
        previous = signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)


def _median_rank(times):
    """Median of call times where None (a failed or cut-off call) ranks
    above every completed call; a median that lands on one reads as inf."""
    return statistics.median(sorted(float("inf") if t is None else t for t in times))


def _record(unit):
    """A unit's record.  "seconds" is the main call's time and "busy" all of
    the unit's timed work, both unscaled; "scale" turns "seconds" into
    seconds at the reference speed (see hostspeed.py); "bad" counts failed
    output checks, which are also in "failed"; "cut" counts calls cut off
    at the benchmark's deadline, which are slow, not failed: they rank
    above every completed call and count in failed_frac, not in "failed"."""
    return {"unit": unit, "status": "ok", "attempted": 1, "failed": 0, "bad": 0, "cut": 0}


class DlogWorkload:
    """compute_logs on Kummer F_(43^6), kappa = 2, over consecutive seeds,
    each under DLOG_DEADLINE_S, then individual logs on seeded targets."""

    name = "dlog-43x6"
    trace_units = 3

    def setup(self):
        return fs.build_kummer(43, 6)

    def units(self, seed):
        s = seed
        while True:
            yield s
            s += 1

    def keep_going(self, unit, records, measured, seconds):
        return measured < seconds or sum(len(r["ilogs"]) for r in records) < MIN_ILOGS

    @staticmethod
    def _target(rep, table_seed, j):
        rng = random.Random(table_seed * 1_000_003 + j)
        while True:
            z = rep.ring.random_el(rng)
            if not z.is_zero():
                return z

    def run(self, rep, seed, speed, tracer=None):
        rec = _record(seed)
        rec["ilogs"] = []
        alarm = Alarm(tracer)
        speed.mark()
        start = speed.clock()
        try:
            with alarm.limit(DLOG_DEADLINE_S):
                fb, _g, _rels, table = fs.compute_logs(rep, 2, seed=seed)
        except Deadline:
            rec["status"] = "cut"
            rec["open_spans"] = alarm.open_spans
            if tracer is not None:
                tracer.close_all()
        except (RankDeficient, SieveTimeout) as exc:
            rec["status"] = type(exc).__name__
        except ValueError:
            # compute_logs checks its own relations and solutions and raises
            # ValueError when one is wrong: a failed output check
            rec["status"] = "ValueError"
            rec["bad"] = 1
        rec["seconds"] = rec["busy"] = speed.clock() - start
        rec["scale"] = speed.scale()
        if rec["status"] == "cut":
            rec["cut"] = 1
            return rec
        if rec["status"] != "ok":
            rec["failed"] = 1
            return rec
        for j in range(ILOGS_PER_TABLE):
            z = self._target(rep, seed, j)
            rec["attempted"] += 1
            start = speed.clock()
            try:
                lam = fs.individual_log(rep, fb, table, z, seed=j)
            except SieveTimeout:
                rec["failed"] += 1
                continue
            rec["ilogs"].append((z, lam, speed.clock() - start))
            rec["busy"] += rec["ilogs"][-1][2]
        # the individual logs get their own speed scale: the host's speed
        # can change between the table and them
        rec["ilog_scale"] = speed.scale()
        with _untraced(tracer):
            ring = rep.ring
            g = ring.el(table.g)
            rec["bad"] += not table.verify_all(rep)
            rec["bad"] += sum(ring.pow(g, lam) != z for z, lam, _ in rec["ilogs"])
        rec["failed"] += rec["bad"]
        rec["g"] = table.g
        return rec

    def metrics(self, records):
        """Gated: individual-log p50 (op_s) and throughput (rate_per_s,
        one over the mean, so it also moves with the tail that p50 leaves
        out).  table_s is only reported: per-seed table time ranges from
        1.8 s to 9 s and one seed in four stalls, so the median of the five
        or so seeds a run has room for spreads by about 30% from run to run.
        A run without a completed table has no individual logs: op_s reads
        inf and rate_per_s 0."""
        times = [r["seconds"] * r["scale"] if r["status"] == "ok" else None for r in records]
        ilog = [dt * r["ilog_scale"] for r in records if r["status"] == "ok"
                for _, _, dt in r["ilogs"]]
        q = statistics.quantiles(ilog, n=100) if len(ilog) >= 2 else [float("inf")] * 99
        report = {
            "table_s": (_median_rank(times), "s", f"median of {len(times)} calls, "
                        f"{times.count(None)} cut off or failed"),
            "ilog_p50_s": (q[49], "s", f"{len(ilog)} samples"),
            "ilog_p95_s": (q[94], "s", f"{len(ilog)} samples"),
        }
        rate = len(ilog) / sum(ilog) if ilog else 0.0
        return {"op_s": q[49], "rate_per_s": rate}, report

    def reference(self, rep, records, clock):
        """Pohlig-Hellman + BSGS on the first REF_TARGETS_PER_TABLE targets
        of each completed table: the unscaled seconds of each of its logs and
        of individual_log's on the same targets, and how many answers
        differ."""
        ring = rep.ring
        N = rep.order()
        factors = fs.factorize_int(N)
        ref_times, ilog_times, wrong = [], [], 0
        for rec in records:
            if rec["status"] != "ok":
                continue
            g = ring.el(rec["g"])
            for z, lam, dt in rec["ilogs"][:REF_TARGETS_PER_TABLE]:
                start = clock()
                x = ph_bsgs_log(ring, g, z, N, factors)
                ref_times.append(clock() - start)
                ilog_times.append(dt)
                wrong += x != lam
        return ref_times, ilog_times, wrong

    def describe(self, rec):
        """Completion, top-up rounds and, for a cut-off call, the stage it
        was in (from the spans open when the deadline hit)."""
        out = {"unit": rec["unit"], "status": rec["status"], "seconds": round(rec["seconds"], 3)}
        if "counts" not in rec:
            return out  # untraced: no spans to read the rounds and stage from
        rounds = rec["counts"].get("indexcalc.collect", 0)
        out["topup_rounds"] = max(rounds - 1, 0)
        if rec["status"] == "cut" and rec["open_spans"]:
            stages = {
                "indexcalc.solve": "solve",
                "indexcalc.build_log_table": "descent",
                "indexcalc.collect": "collect",
                "indexcalc.find_generator": "find_generator",
                "indexcalc.build_factor_base": "build_factor_base",
            }
            stage = next((stages[n] for n in rec["open_spans"] if n in stages), "other")
            out["stalled_in"] = f"{stage} (collect round {rounds})"
        return out


class SieveWorkload:
    """Shared loop of the two sieve workloads: one budgeted sieve call per
    unit, seeded from the workload seed."""

    trace_units = 3

    def units(self, seed):
        i = 0
        while True:
            yield seed * 1000 + i
            i += 1

    def keep_going(self, unit, records, measured, seconds):
        return measured < seconds

    def run(self, state, sieve_seed, speed, tracer=None):
        rec = _record(sieve_seed)
        args = self.prepare(state)
        speed.mark()
        start = speed.clock()
        try:
            rels = self.sieve(state, args, sieve_seed)
        except ValueError:
            # the sieves verify each relation they find and raise ValueError
            # when one fails: a failed output check
            rec["status"] = "ValueError"
            rec["bad"] = 1
            rels = []
        rec["seconds"] = rec["busy"] = speed.clock() - start
        rec["scale"] = speed.scale()
        with _untraced(tracer):
            rec["bad"] += int(not all(self.valid(state, args, rel) for rel in rels))
        rec["failed"] = rec["bad"]
        rec["relations"] = len(rels)
        return rec

    def prepare(self, state):
        return None

    def metrics(self, records):
        """op_s is the median call time; rate_per_s is relations per second,
        which also moves with the yield of a fixed trial budget.  Without a
        completed call op_s reads inf and rate_per_s 0."""
        ok = [r for r in records if r["status"] == "ok"]
        rels = sum(r["relations"] for r in ok)
        secs = sum(r["seconds"] * r["scale"] for r in ok)
        rate = rels / secs if ok else 0.0
        op_s = _median_rank([r["seconds"] * r["scale"] if r["status"] == "ok" else None
                             for r in records])
        report = {
            "rels_per_s": (rate, "1/s", f"{rels} relations in {len(ok)} calls"),
            "sieve_call_s": (op_s, "s", f"median of {len(records)} calls"),
        }
        return {"op_s": op_s, "rate_per_s": rate}, report

    def describe(self, rec):
        return {"unit": rec["unit"], "status": rec["status"],
                "relations": rec["relations"], "seconds": round(rec["seconds"], 3)}


class JLWorkload(SieveWorkload):
    """jl_setup(43, 3, 2, 6), then jl_sieve at bidegree (1, 1), kappa 2,
    over a fixed trial budget per call."""

    name = "jl-43x6"
    trials = 3000

    def setup(self):
        return fs.jl_setup(43, 3, 2, 6)

    def sieve(self, setup, _args, sieve_seed):
        return fs.jl_sieve(setup, 1, 1, 2, self.trials, seed=sieve_seed)

    def valid(self, setup, _args, rel):
        return rel.verify(setup) and 1 <= rel.ratio(setup) < setup.p


class EEWorkload(SieveWorkload):
    """ee_setup(11, 7), class (2, 2, 1 + 0 phi), kappa 4, then ee_sieve over
    a fixed trial budget.  Each call gets a fresh EERestriction, built
    outside the timed region, so its place-class cache starts cold as it
    does for a CLI user."""

    name = "ee-11x7"
    trials = 400
    kappa = 4

    def setup(self):
        setup = fs.ee_setup(11, 7)
        cls = fs.NSClassEE(2, 2, fs.EndomorphismElement(1, 0, setup.curve.trace(), 11))
        lin = fs.linear_system_ee(setup, cls)
        fs.EERestriction(setup, lin, self.kappa)  # timed here; each call gets a fresh one
        return setup, cls, lin

    def prepare(self, state):
        setup, _cls, lin = state
        return fs.EERestriction(setup, lin, self.kappa)

    def sieve(self, state, restr, sieve_seed):
        setup, cls, _lin = state
        return fs.ee_sieve(setup, cls, self.kappa, self.trials, seed=sieve_seed,
                           restriction=restr)

    def valid(self, _state, restr, rel):
        return fs.verify_ee_relation(restr, rel)


def count_monic_irreducibles(p, kappa):
    """Closed form: sum over k <= kappa of (1/k) sum_{j | k} mu(j) p^(k/j)."""

    def mobius(n):
        facs = fs.factorize_int(n) if n > 1 else {}
        return 0 if any(m > 1 for m in facs.values()) else (-1) ** len(facs)

    return sum(
        sum(mobius(j) * p ** (k // j) for j in range(1, k + 1) if k % j == 0) // k
        for k in range(1, kappa + 1)
    )


class FbaseWorkload:
    """build_factor_base(rep, 2) and find_generator for Kummer 199^11 and
    torus 109^11.  The larger field runs once per run and the smaller one
    fills the rest of the time; fbase_s adds the two medians."""

    name = "fbase-x11"
    trace_units = 2
    kappa = 2

    def setup(self):
        return {"kummer-199": fs.build_kummer(199, 11), "torus-109": fs.build_torus(109, 11)}

    def units(self, seed):
        yield "kummer-199"
        while True:
            yield "torus-109"

    def keep_going(self, unit, records, measured, seconds):
        last = [r["seconds"] for r in records if r["unit"] == unit]
        return not last or measured + last[-1] <= seconds

    def run(self, reps, field, speed, tracer=None):
        rec = _record(field)
        rep = reps[field]
        speed.mark()
        start = speed.clock()
        fb = fs.build_factor_base(rep, self.kappa)
        fs.find_generator(rep)
        rec["seconds"] = rec["busy"] = speed.clock() - start
        rec["scale"] = speed.scale()
        with _untraced(tracer):
            sizes_divide = all(rep.d % orb.full_size == 0 for orb in fb.orbits)
            total = sum(orb.size for orb in fb.orbits)
            rec["bad"] = int(not sizes_divide
                             or total != count_monic_irreducibles(rep.p, self.kappa))
        rec["failed"] = rec["bad"]
        rec["ncols"] = fb.ncols
        rec["orbits"] = len(fb.orbits)
        return rec

    def metrics(self, records):
        per_field = {}
        for rec in records:
            per_field.setdefault(rec["unit"], []).append(rec)
        fbase_s = sum(statistics.median(r["seconds"] * r["scale"] for r in recs)
                      for recs in per_field.values())
        ncols = sum(recs[0]["ncols"] for recs in per_field.values())
        counts = ", ".join(f"{k} x{len(v)}" for k, v in per_field.items())
        report = {"fbase_s": (fbase_s, "s", f"sum of per-field medians ({counts})")}
        # rate_per_s mirrors op_s here: ncols is fixed, so it adds no
        # information, but every workload must print every end-to-end metric
        return {"op_s": fbase_s, "rate_per_s": ncols / fbase_s}, report

    def describe(self, rec):
        return {"unit": rec["unit"], "status": rec["status"], "ncols": rec["ncols"],
                "orbits": rec["orbits"], "seconds": round(rec["seconds"], 3)}


WORKLOADS = {w.name: w for w in (DlogWorkload(), JLWorkload(), EEWorkload(), FbaseWorkload())}
