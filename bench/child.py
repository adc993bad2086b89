"""One cold repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 bench/child.py '<spec as JSON>'

The spec names the source tree to import ``hahnsl2`` from, the workload kind
(``cli`` arguments or an ``ideal`` membership target) and whether to trace.
The child prints one JSON line: the monotonic time at which set-up ended, the
timed wall time, the mean time of the speed probe, the report text, its peak
RSS and, when traced, the layer figures.  The runner owns all checking.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time

# The speed probe: a fixed pure-Python loop, timed every PROBE_INTERVAL_S of
# the timed region; the runner rescales times by it (see run.py).
PROBE_INTERVAL_S = 0.02


def probe_loop() -> None:
    s = 0
    for i in range(1, 1200):
        s += i * i % 7


class SpeedProbe:
    """Samples the probe from a SIGALRM handler while the block runs.

    The samples take about 0.5 % of the region; the child subtracts them from
    the wall time, but in a traced run they count toward the interrupted span.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        probe_loop()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mean(self) -> float:
        """Mean probe time; a region shorter than one interval is probed once after it."""
        if not self.samples:
            self._tick(signal.SIGALRM, None)
        return sum(self.samples) / len(self.samples)


def main() -> int:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    import hahnsl2
    from hahnsl2 import cli, freealg, hahn, usl2

    if not os.path.abspath(hahnsl2.__file__).startswith(spec["src"] + os.sep):
        raise SystemExit(f"imported hahnsl2 from {hahnsl2.__file__}, not from {spec['src']}")

    if spec["kind"] == "ideal":
        target = freealg.FreePoly(hahn.ALPHABET, spec["target"])
        relators = list(hahn.presentation().relators)

        def run() -> str:
            cert = freealg.ideal_membership(target, relators, spec["bound"])
            body = {"bound": spec["bound"], "certificate": cert and cert.as_json_dict()}
            return json.dumps(body, sort_keys=True)
    else:
        def run() -> str:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                cli.main(spec["argv"])
            return out.getvalue()

    # CLI users pay for a cold PBW product cache on every run; so must we.
    core = getattr(usl2, "_core_product", None)
    if core is not None and core.cache_info().currsize != 0:
        raise SystemExit("the PBW product cache is warm before the timed region")

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    with SpeedProbe() as probe:
        t_ready = time.monotonic()
        text = run()
        t_end = time.monotonic()
    wall = t_end - t_ready - sum(probe.samples)

    layers = None
    if tracer is not None:
        layers = tracer.figures(t_end - t_ready, core, text if spec["kind"] == "cli" else "")
    print(json.dumps({
        "t_ready": t_ready,
        "wall_s": wall,
        "probe_s": probe.mean(),
        "report": text,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
