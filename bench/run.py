"""The hahnsl2 benchmark: cold-process workloads with checked verdicts.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {verify-all,cube-d7,ideal-exhaust}
                         --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Each repetition runs in a fresh interpreter (bench/child.py), one child at a
time, because command-line users pay for a cold PBW product cache on every
run.  The runner starts repetitions until the next one would end after
``--seconds`` (at least MIN_REPS of them), checks every verdict with the
oracles in bench/oracles.py, checks that every repetition produced a report
with the same SHA-256, and prints one JSON object as its last line.

``--trace 0`` reports the end-to-end metrics, each the median over the
repetitions: ``wall_s`` (first call into the package to the verdict in hand),
``setup_s`` (interpreter start, ``import hahnsl2`` and building the inputs)
and ``peak_rss_mb`` (the child's peak resident set).  Both times are rescaled
to a nominal machine speed with the child's speed probe (see
NOMINAL_PROBE_S).  ``--trace 1`` alternates untraced and traced repetitions
(bench/tracer.py) and reports the per-layer figures, with layer times as
measured; their counts must repeat exactly between traced runs.  Wrong,
missing or non-deterministic verdicts go to ``failed`` out of ``attempted``.

The line before the result records the machine, the source, the inputs, the
times as measured and the probe.  With so few samples per run no tail
percentile is reported: the highest with ten samples beyond it needs 100.

``--size smoke`` runs the same code paths at sizes that take seconds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
from tracer import FIGURES  # noqa: E402

# A shared host's speed drifts by 10-20 % within minutes and by up to 1.7x
# within an hour, which no run length averages out.  Each child times a fixed
# loop throughout its timed region (child.py), and times are rescaled to a
# machine on which that loop takes NOMINAL_PROBE_S.  The workloads slow more
# than the loop does: across a 1.5x swing of the loop on a 2-vCPU VM, log wall
# time rose 1.17-1.28 times as fast as log loop time (153 repetitions of the
# three workloads), and log set-up time 1.05 times; hence the exponent.
NOMINAL_PROBE_S = 100e-6
PROBE_ELASTICITY = 1.25

MIN_REPS = 3
MIN_TRACED_REPS = 2
CHILD_TIMEOUT_S = 150

# Why each workload exists, and the layer it is chosen to load.
WORKLOADS = {
    # The paper's end-to-end run; the PBW product (usl2) is the largest layer,
    # linalg sees thousands of small matrices, and hahn, reps, the certified
    # freealg path and report emission run only here.  Its suites use fixed
    # seeds, so --seed changes nothing.
    "verify-all": {
        "full": {"n_max": 10, "degree_bound": 8, "repr_n_max": 12, "d_min": 2, "d_max": 6},
        "smoke": {"n_max": 2, "degree_bound": 8, "repr_n_max": 4, "d_min": 2, "d_max": 4},
    },
    # The halved-cube Terwilliger algebra: span closure over 64x64 operators,
    # so linalg does nearly all the work and usl2 and freealg none.  The
    # seeded base vertex changes the input but not the answer.
    "cube-d7": {"full": {"D": 7}, "smoke": {"D": 4}},
    # A seeded target proven outside the relator ideal, so the search must
    # exhaust its bound: freealg's private echelon does nearly all the work.
    "ideal-exhaust": {"full": {"bound": 8}, "smoke": {"bound": 5}},
}


def random_target(rng: random.Random) -> dict[str, Fraction]:
    """A nonzero free polynomial over {A, B} of degree at most 4."""
    terms: dict[str, Fraction] = {}
    for _ in range(rng.randint(1, 4)):
        w = "".join(rng.choice("AB") for _ in range(rng.randint(0, 4)))
        terms[w] = terms.get(w, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return {w: c for w, c in terms.items() if c}


def make_spec(workload: str, size: str, seed: int, hahn: oracles.Hahn) -> tuple[dict, dict]:
    """The child's spec and the parameters the oracles check against."""
    p = WORKLOADS[workload][size]
    rng = random.Random(seed)
    if workload == "verify-all":
        argv = ["verify-all", "--n-max", str(p["n_max"]), "--degree-bound", str(p["degree_bound"]),
                "--repr-n-max", str(p["repr_n_max"]), "--d-min", str(p["d_min"]),
                "--d-max", str(p["d_max"]), "--format", "json", "--jobs", "1"]
        return {"kind": "cli", "argv": argv}, {"verdicts": oracles.expected_items(p)}
    if workload == "cube-d7":
        D = p["D"]
        bits = [rng.randint(0, 1) for _ in range(D)]
        if sum(bits) % 2:
            bits[rng.randrange(D)] ^= 1
        base = "".join(map(str, bits))
        argv = ["cube", "--d-min", str(D), "--d-max", str(D), "--base-vertex", base,
                "--format", "json"]
        params = {"verdicts": 3, "d_min": D, "d_max": D, "base_vertex": base}
        return {"kind": "cli", "argv": argv}, params
    witness = None
    while witness is None:
        target = random_target(rng)
        witness = oracles.nonmember_witness(target, hahn) if target else None
    text = {w: str(c) for w, c in target.items()}
    params = {"verdicts": 1, "bound": p["bound"], "target": text, "nonmember_module": f"L_{witness}"}
    return {"kind": "ideal", "target": text, "bound": p["bound"]}, params


def run_child(spec: dict) -> dict:
    t_spawn = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, cwd=str(ROOT),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    out["elapsed_s"] = time.monotonic() - t_spawn
    out["scale"] = (NOMINAL_PROBE_S / out["probe_s"]) ** PROBE_ELASTICITY
    return out


def run_reps(specs: list[dict], seconds: float, minimum: int) -> list[dict]:
    """Repetitions, cycling through ``specs``, until the next would end more
    than ``seconds`` after the first began."""
    start = time.monotonic()
    reps: list[dict] = []
    while len(reps) < minimum or (
        time.monotonic() - start + statistics.median(r["elapsed_s"] for r in reps) <= seconds
    ):
        reps.append(run_child(specs[len(reps) % len(specs)]))
    return reps


def judge(reps: list[dict], workload: str, params: dict, hahn: oracles.Hahn):
    """Verdicts attempted, failed, and the reasons, over all repetitions.

    A repetition whose report digest differs from the first one's has every
    verdict counted as failed."""
    kind = "ideal" if workload == "ideal-exhaust" else "cli"
    by_digest: dict[str, tuple[int, int, list[str]]] = {}
    attempted = failed = 0
    reasons: list[str] = []
    first = None
    for r in reps:
        digest = hashlib.sha256(r["report"].encode()).hexdigest()
        first = first or digest
        if digest not in by_digest:
            by_digest[digest] = oracles.check_report(kind, r["report"], params, hahn)
        n, bad, why = by_digest[digest]
        attempted += n
        if digest != first:
            failed += n
            reasons.append(f"report digest {digest[:12]} differs from {first[:12]}")
        else:
            failed += bad
            reasons += why
    return attempted, failed, reasons, first


def layer_metrics(untraced: list[dict], traced: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer figures (times as medians) and any count that did not repeat."""
    first = traced[0]["layers"]
    metrics, unrepeated = {}, []
    for name, unit in FIGURES:
        values = [r["layers"][name] for r in traced]
        if unit in ("count", "bits", "bytes") and len(set(values)) != 1:
            unrepeated.append(f"{name}: {values}")
        metrics[name] = (statistics.median(values) if unit in ("s", "ratio") else first[name], unit)
    metrics["trace.overhead_s"] = (
        statistics.median(r["wall_s"] * r["scale"] for r in traced)
        - statistics.median(r["wall_s"] * r["scale"] for r in untraced),
        "s",
    )
    return metrics, unrepeated


def source_identity() -> dict:
    """The commit when the checkout is a git repository, and a digest of the sources."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            commit = ref
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hahnsl2").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "source_sha256": h.hexdigest()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "hahnsl2" / "__init__.py").is_file():
        print(f"no hahnsl2 sources under {src}", file=sys.stderr)
        return 2

    hahn = oracles.Hahn()
    spec, params = make_spec(args.workload, args.size, args.seed, hahn)
    spec.update(src=str(src), trace=False)
    try:
        if args.trace:
            # untraced and traced repetitions alternate, so drift hits both
            reps = run_reps([spec, dict(spec, trace=True)], args.seconds, 2 * MIN_TRACED_REPS)
            untraced, traced = reps[0::2], reps[1::2]
        else:
            reps = run_reps([spec], args.seconds, MIN_REPS)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    attempted, failed, reasons, digest = judge(reps, args.workload, params, hahn)
    if args.trace:
        metrics, unrepeated = layer_metrics(untraced, traced)
        attempted += 1
        if unrepeated:
            failed += 1
            reasons.append("counts differ between traced runs: " + "; ".join(unrepeated))
    else:
        metrics = {
            "wall_s": (statistics.median(r["wall_s"] * r["scale"] for r in reps), "s"),
            "setup_s": (statistics.median(r["setup_s"] * r["scale"] for r in reps), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in reps) / 1024, "MB"),
        }

    info = {
        "workload": args.workload, "size": args.size, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "cores": os.cpu_count(), **source_identity(),
        "inputs": {k: v for k, v in spec.items() if k not in ("src", "trace")},
        "params": params, "report_sha256": digest, "repetitions": len(reps),
        "measured_wall_s": [r["wall_s"] for r in reps],
        "measured_setup_s": [r["setup_s"] for r in reps],
        "probe_s": [r["probe_s"] for r in reps],
        "verdicts": {"attempted": attempted, "failed": failed,
                     "verdict_fail_share": failed / attempted},
        "failures": reasons[:20],
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
