"""In-memory span tracer that instruments frobsieve from the outside.

While installed, the tracer replaces each listed library function in every
frobsieve module namespace that binds it, and each listed method on its
class, with a wrapper.  Span wrappers record (name, start, end, parent);
count wrappers only bump a counter, for kernels called too often to span.
Spans stay in flat arrays until the run ends, when they are reduced to
per-name call counts, inclusive time and self time (a span's duration
minus the time its child spans cover).
"""

import contextlib
import functools
import sys
import time
from array import array
from collections import Counter

from frobsieve import elliptic, ffcore, galoisrep, indexcalc, sieve2d


class Deadline(BaseException):
    """Raised by the benchmark's alarm to cut off a call.

    It derives from BaseException so that no handler inside the library
    can swallow it.
    """


# (owner, attribute, span name, counter fed from the result, result -> int)
SPANS = [
    (ffcore, "poly_pow_mod", "ffcore.poly_pow_mod", None, None),
    (ffcore, "factor", "ffcore.factor", None, None),
    (ffcore, "is_irreducible", "ffcore.is_irreducible", None, None),
    (ffcore, "poly_gcd", "ffcore.poly_gcd", None, None),
    (ffcore, "kernel_basis", "ffcore.kernel_basis", None, None),
    (galoisrep, "build_kummer", "galoisrep.build", None, None),
    (galoisrep, "build_torus", "galoisrep.build", None, None),
    (galoisrep, "build_artin_schreier", "galoisrep.build", None, None),
    (galoisrep, "orbit_partition", "galoisrep.orbit_partition", "galoisrep.orbits", len),
    (elliptic, "build_elliptic_residue", "elliptic.build_elliptic_residue", None, None),
    (indexcalc, "compute_logs", "indexcalc.compute_logs", None, None),
    (indexcalc, "build_factor_base", "indexcalc.build_factor_base",
     "indexcalc.ncols", lambda fb: fb.ncols),
    (indexcalc, "find_generator", "indexcalc.find_generator", None, None),
    (indexcalc, "collect_relations", "indexcalc.collect", "indexcalc.collect.relations", len),
    (indexcalc.Relation, "verify", "indexcalc.relation_verify", None, None),
    (indexcalc, "solve_log_system", "indexcalc.solve", None, None),
    (indexcalc, "build_log_table", "indexcalc.build_log_table", None, None),
    (indexcalc, "individual_log", "indexcalc.ilog", None, None),
    (sieve2d, "jl_setup", "sieve2d.jl_setup", None, None),
    (sieve2d, "jl_sieve", "sieve2d.jl", "sieve2d.jl.relations", len),
    (sieve2d, "jl_relation", "sieve2d.jl_relation", None, None),
    (sieve2d.JLRelation, "verify", "sieve2d.jl_verify", None, None),
    (sieve2d, "ee_setup", "sieve2d.ee_setup", None, None),
    (sieve2d, "linear_system_ee", "sieve2d.linear_system_ee", None, None),
    (sieve2d.EERestriction, "__init__", "sieve2d.ee_restriction", None, None),
    (sieve2d, "ee_sieve", "sieve2d.ee", "sieve2d.ee.relations", len),
    (sieve2d, "ee_relation", "sieve2d.ee_relation", None, None),
    (sieve2d.EERestriction, "restrict", "sieve2d.ee_restrict", None, None),
    (sieve2d.FuncFieldOps, "norm", "sieve2d.ee_norm", None, None),
    (sieve2d.PlaceClasses, "class_of", "sieve2d.class_of", None, None),
]

# (owner, attribute, counter) for calls too frequent to give a span each
COUNTS = [
    (ffcore.Poly, "__mul__", "ffcore.poly_mul.calls"),
    (ffcore.Poly, "__divmod__", "ffcore.poly_divmod.calls"),
    (elliptic, "ec_add", "elliptic.ec_ops.calls"),
    (elliptic, "ec_sub", "elliptic.ec_ops.calls"),
    (elliptic, "ec_neg", "elliptic.ec_ops.calls"),
    (elliptic, "ec_scalar", "elliptic.ec_ops.calls"),
    (sieve2d, "translate_place", "sieve2d.translate_place.calls"),
]

# smooth_factor runs once per trial; the span it runs under names the loop
SMOOTH_TRIALS = {
    "indexcalc.collect": "indexcalc.collect.trials",
    "indexcalc.build_log_table": "indexcalc.descent.trials",
    "indexcalc.ilog": "indexcalc.ilog.trials",
}


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.nested = set()  # spans inside a span of the same name
        self.cut = set()  # spans a deadline interrupted
        self.stack = []
        self.counts = Counter()  # span calls by name, plus the counters
        self.busy = False  # inside open()/close(); a deadline must wait
        self._patches = []

    # -- spans --------------------------------------------------------------

    def open(self, name):
        self.busy = True
        idx = len(self.names)
        if any(self.names[i] == name for i in self.stack):
            self.nested.add(idx)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(idx)
        self.counts[name] += 1
        self.starts.append(self.clock())
        self.busy = False
        return idx

    def close(self, idx, cut=False):
        """End span idx and any span still open inside it, which can only
        be one a deadline left behind."""
        self.busy = True
        now = self.clock()
        while self.stack:
            top = self.stack.pop()
            self.ends[top] = now
            if cut or top != idx:
                self.cut.add(top)
            if top == idx:
                break
        self.busy = False

    def close_all(self):
        """Close every span still open as cut off."""
        if self.stack:
            self.close(self.stack[0], cut=True)

    def open_names(self):
        """Names of the open spans, innermost first."""
        return [self.names[i] for i in reversed(self.stack)]

    def current(self):
        return self.names[self.stack[-1]] if self.stack else None

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, counter, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx, cut=isinstance(exc, Deadline))
                raise
            self.close(idx)
            if counter is not None:
                self.counts[counter] += measure(result)
            return result

        return wrapper

    def _count(self, counter, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _count_trials(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counter = SMOOTH_TRIALS.get(self.current())
            if counter is not None:
                self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        original = getattr(owner, attr)
        if isinstance(owner, type):
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for mod in [m for n, m in sys.modules.items()
                    if n == "frobsieve" or n.startswith("frobsieve.")]:
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original))
                    setattr(mod, name, wrapper)

    def install(self):
        for owner, attr, name, counter, measure in SPANS:
            self._patch(owner, attr, self._span(name, getattr(owner, attr), counter, measure))
        for owner, attr, counter in COUNTS:
            self._patch(owner, attr, self._count(counter, getattr(owner, attr)))
        self._patch(indexcalc, "smooth_factor", self._count_trials(indexcalc.smooth_factor))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run the block untraced, as the benchmark's own checks must."""
        self.uninstall()
        try:
            yield
        finally:
            self.install()

    # -- reduction ----------------------------------------------------------

    def reduce(self):
        """{span name: (calls, inclusive seconds, self seconds)}.

        Inclusive time skips spans nested in a span of the same name, so
        recursion is not counted twice.
        """
        n = len(self.names)
        child = [0.0] * n
        for i in range(n):
            par = self.parents[i]
            if par >= 0:
                child[par] += self.ends[i] - self.starts[i]
        out = {}
        for i in range(n):
            dur = self.ends[i] - self.starts[i]
            calls, incl, own = out.get(self.names[i], (0, 0.0, 0.0))
            if i not in self.nested:
                incl += dur
            out[self.names[i]] = (calls + 1, incl, own + dur - child[i])
        return out

    def spans(self):
        """Every span as [name, start us, end us, parent, cut], times counted
        from the first span's start, for the trace file."""
        t0 = self.starts[0] if self.names else 0.0
        return [
            [self.names[i], round((self.starts[i] - t0) * 1e6),
             round((self.ends[i] - t0) * 1e6), self.parents[i], int(i in self.cut)]
            for i in range(len(self.names))
        ]


def layer_metrics(tracer):
    """Per-layer metrics that the spans and counters give directly."""
    spans = tracer.reduce()
    counts = tracer.counts

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def incl(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in ("ffcore.poly_pow_mod", "ffcore.factor", "ffcore.is_irreducible",
                 "ffcore.poly_gcd", "indexcalc.collect"):
        m[name + ".calls"] = calls(name)
        m[name + ".self_s"] = own(name)
    m["ffcore.poly_pow_mod.s"] = incl("ffcore.poly_pow_mod")
    m["ffcore.is_irreducible.s"] = incl("ffcore.is_irreducible")
    for name in ("ffcore.poly_mul.calls", "ffcore.poly_divmod.calls",
                 "elliptic.ec_ops.calls", "sieve2d.translate_place.calls",
                 "galoisrep.orbits", "indexcalc.ncols", "indexcalc.collect.trials",
                 "indexcalc.collect.relations", "indexcalc.descent.trials",
                 "indexcalc.ilog.trials", "sieve2d.jl.relations", "sieve2d.ee.relations"):
        m[name] = counts[name]
    for name in ("ffcore.kernel_basis", "galoisrep.build", "galoisrep.orbit_partition",
                 "elliptic.build_elliptic_residue", "sieve2d.jl_relation",
                 "sieve2d.ee_restrict", "sieve2d.ee_norm", "sieve2d.class_of"):
        m[name + ".self_s"] = own(name)
    for name in ("indexcalc.build_factor_base", "indexcalc.find_generator",
                 "indexcalc.relation_verify", "indexcalc.solve", "sieve2d.jl_setup",
                 "sieve2d.jl_verify", "sieve2d.ee_setup", "sieve2d.linear_system_ee",
                 "sieve2d.ee_restriction"):
        m[name + ".s"] = incl(name)
    m["indexcalc.collect.yield"] = ratio(m["indexcalc.collect.relations"],
                                         m["indexcalc.collect.trials"])
    m["indexcalc.collect.rels_per_s"] = ratio(m["indexcalc.collect.relations"],
                                              incl("indexcalc.collect"))
    m["indexcalc.descent.s"] = incl("indexcalc.build_log_table") - incl("indexcalc.solve")
    m["indexcalc.descent.self_s"] = own("indexcalc.build_log_table")
    for side, trial_span in (("jl", "sieve2d.jl_relation"), ("ee", "sieve2d.ee_relation")):
        m[f"sieve2d.{side}.trials"] = calls(trial_span)
        m[f"sieve2d.{side}.yield"] = ratio(m[f"sieve2d.{side}.relations"], calls(trial_span))
    return m
