"""Host-speed sampling, to take the host's drift out of timings.

The host's speed drifts by 15-40% over seconds to minutes, which moves
every wall-clock figure by more than the benchmark's bounds.  HostSpeed
times a fixed pure-Python kernel every SAMPLE_CPU_S of CPU time, from a
SIGVTALRM handler, so the samples land inside the timed library calls.
Its clock() leaves the kernel's own time out, and scale() turns the raw
seconds of a span into seconds at the reference speed: raw seconds times
REF_KERNEL_S over the mean kernel time in that span.  A change to the
library moves scaled seconds as it moves raw ones.

The mean, not the median: the host's slow spells are bursty, and the
stretched samples are how they show (with 400 logs per table, the median
let op_s on dlog-43x6 spread 0.145 over ten runs, against at most 0.061
with the mean).  The garbage collector is off while the kernel runs, so a
collection over the library's heap cannot stretch a sample.
"""

import gc
import signal
import statistics
import time

SAMPLE_CPU_S = 0.1
# the kernel's time at the reference speed: its median on the 2-core host
# the bounds were set on, so scaled seconds read close to raw ones there
REF_KERNEL_S = 0.0016


def _kernel():
    # dense products of degree-5 polynomials mod 43, the instruction mix of
    # the library's Poly arithmetic, in code the library cannot change
    p = 43
    a = [3, 1, 4, 1, 5, 9]
    b = [2, 7, 1, 8, 2, 8]
    for _ in range(300):
        out = [0] * 11
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
        a = out[:6]
    return a


class HostSpeed:
    def __init__(self):
        self.spent = 0.0  # seconds spent in the kernel, left out of clock()
        self.samples = []

    def _sample(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        try:
            _kernel()
            # a kernel cut short by a deadline is no sample
            self.samples.append(time.perf_counter() - start)
        finally:
            self.spent += time.perf_counter() - start
            if collecting:
                gc.enable()

    def start(self):
        signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, SAMPLE_CPU_S, SAMPLE_CPU_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_VIRTUAL, 0)
        signal.signal(signal.SIGVTALRM, signal.SIG_DFL)

    def clock(self):
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.spent

    def mark(self):
        """Start a new span: drop the samples taken so far."""
        self.samples = []

    def scale(self):
        """REF_KERNEL_S over the mean kernel time since the last mark() or
        scale(); a span too short to be sampled takes one sample now."""
        if not self.samples:
            self._sample()
        factor = REF_KERNEL_S / statistics.fmean(self.samples)
        self.samples = []
        return factor
