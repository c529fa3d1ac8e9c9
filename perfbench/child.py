"""One benchmark child process: import laminar, set up, run timed operations.

Usage: python3 perfbench/child.py SPEC.json

SPEC holds ``root`` (the checkout), ``result`` (where to write the outcome),
``trace`` (a span file path, or null for an untraced run) and either
``argv`` (one ``laminar`` command, timed around ``cli.main``) or ``queries``
(truncation queries run in this one process).  Set-up is the child's laminar
import plus fixture generation; operations are timed one by one.  Nothing is
printed; the outcome goes to the ``result`` file as JSON.

The machine this runs on changes speed by up to a third over tens of seconds
(other tenants), which swamps any change worth measuring.  So every timing is
also reported calibrated.  From the end of set-up on, a timer signal runs a
fixed kernel (Fraction arithmetic in a small slotted class, a dict, a sort; no
laminar code) every SAMPLE_PERIOD_S inside the child, which gives the machine's speed where and when the operation runs.  An
operation's calibrated time is its wall time, less the kernel runs inside it,
times the mean speed sampled during it (CAL_REF_S over the kernel time): the
time it would take on a machine where the kernel takes CAL_REF_S.
"""

import time

_T0 = time.perf_counter()

import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402

CAL_REF_S = 0.004
SAMPLE_PERIOD_S = 0.2
WINDOW_S = 2.0  # samples this close to an operation count for it


class _Pair:
    """a + b*sqrt2 over Fractions: the kind of work laminar's field layer does."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __mul__(self, o):
        return _Pair(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    def __add__(self, o):
        return _Pair(self.a + o.a, self.b + o.b)

    def __lt__(self, o):
        return (self.a - o.a) + (self.b - o.b) * Fraction(99, 70) < 0


def _kernel() -> None:
    y = _Pair(Fraction(3, 7), Fraction(-1, 4))
    seen, acc = {}, []
    for i in range(45):
        z = _Pair(Fraction(i % 13 + 1, 17), Fraction(3, i % 7 + 2)) * y + _Pair(Fraction(i, 11), Fraction(1, i + 1))
        seen[(z.a, z.b)] = z
        acc.append(z)
    acc.sort()


class SpeedSampler:
    """Samples the machine speed from a timer signal; calibrates intervals."""

    def __init__(self):
        self.samples = []  # (start, kernel seconds)

    def _sample(self, signum, frame) -> None:
        # a garbage collection of laminar's heap must not land in the kernel
        enabled = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        _kernel()
        self.samples.append((start, time.perf_counter() - start))
        if enabled:
            gc.enable()

    def start(self) -> None:
        _kernel()  # warm-up, untimed
        for _ in range(3):
            self._sample(None, None)
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        for _ in range(3):
            self._sample(None, None)

    def timing(self, start: float, end: float) -> tuple:
        """(calibrated, wall) seconds of [start, end], kernel runs excluded.

        The speed is the median over the samples taken within WINDOW_S of the
        interval, so a short operation still gets several.
        """
        wall = end - start - sum(k for t, k in self.samples if start <= t < end)
        near = [k for t, k in self.samples if start - WINDOW_S <= t < end + WINDOW_S]
        return wall * CAL_REF_S / statistics.median(near), wall


def _import_laminar(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import laminar.cli

    if not os.path.abspath(laminar.__file__).startswith(os.path.join(src, "")):
        raise ImportError(f"laminar imported from {laminar.__file__}, not from {src}")
    return laminar.cli


def _run_cli(cli, argv):
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        rc = cli.main(argv)
    return {"span": (start, time.perf_counter()), "rc": rc}


def _query_ops(spec):
    import queries

    fixtures = {name: queries.build_truncation(*where) for name, where in spec["truncations"].items()}
    ops = []
    for qtype, entries in spec["queries"].items():
        fn = queries.function(qtype)
        for trunc, index, entry in entries:
            ops.append((qtype, trunc, index, fn, queries.resolve(qtype, entry, fixtures[trunc])))
    return ops


def _run_queries(ops, tracer):
    import queries

    out = []
    for n, (qtype, trunc, index, fn, args) in enumerate(ops):
        if tracer is not None:
            tracer.op = n
        entry = {"type": qtype, "trunc": trunc, "index": index}
        try:
            start = time.perf_counter()
            result = fn(*args)
            entry["span"] = (start, time.perf_counter())
        except Exception as exc:  # recorded as a failed operation
            entry["error"] = repr(exc)
        else:
            entry["answer"] = queries.answer(qtype, result)
        out.append(entry)
    return out


def main(spec_path: str) -> None:
    with open(spec_path, encoding="utf-8") as f:
        spec = json.load(f)
    sampler = SpeedSampler()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    cli = _import_laminar(spec["root"])
    tracer = None
    if spec["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    query_ops = None if "argv" in spec else _query_ops(spec)
    setup = (_T0, time.perf_counter())
    sampler.start()
    if query_ops is None:
        if tracer is not None:
            tracer.op = 0
        ops = [_run_cli(cli, spec["argv"])]
    else:
        ops = _run_queries(query_ops, tracer)
    sampler.stop()
    for op in ops:
        if "span" in op:
            op["cal_s"], op["wall_s"] = sampler.timing(*op.pop("span"))
    outcome = {
        "setup": sampler.timing(*setup),
        "ops": ops,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "backend": sys.modules["laminar.field"]._Q.__module__,
        "trace": None,
    }
    if tracer is not None:
        tracer.dump(spec["trace"])
        outcome["trace"] = {"agg": tracer.agg, "counters": tracer.counters}
    with open(spec["result"], "w", encoding="utf-8") as f:
        json.dump(outcome, f)


if __name__ == "__main__":
    main(sys.argv[1])
