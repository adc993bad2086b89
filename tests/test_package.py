import json
import subprocess
import sys
from pathlib import Path

import pytest

import hahnsl2
from hahnsl2 import cli, freealg, hahn, linalg, usl2


def test_every_exported_name_resolves():
    missing = [name for name in hahnsl2.__all__ if not hasattr(hahnsl2, name)]
    assert missing == []
    assert len(set(hahnsl2.__all__)) == len(hahnsl2.__all__)


def test_names_the_benchmark_calls_resolve():
    # bench/child.py and bench/tracer.py call these names with no fallback,
    # so a change that drops one breaks the benchmark; bench/ is not imported
    for owner, attr in (
        (cli, "main"),
        (freealg, "FreePoly"),
        (freealg, "ideal_membership"),
        (freealg.MembershipCertificate, "as_json_dict"),
        (freealg.MembershipCertificate, "replay"),
        (hahn, "presentation"),
        (usl2._core_product, "cache_info"),
        (linalg.SparseMatrix, "matmul"),
        (linalg.SparseMatrix, "items"),
        (linalg.EchelonBasis, "insert"),
    ):
        assert callable(getattr(owner, attr, None)), (owner, attr)
    assert hahn.presentation().relators
    assert hahn.ALPHABET == ("A", "B")
    assert isinstance(linalg.Combination.terms, property)


ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_each_benchmark_workload_runs_at_smoke_size(workload):
    # the benchmark's own runner on these sources, traced, at smoke size: a
    # change that breaks a workload's verdicts or its traced counts fails here
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--size", "smoke",
         "--seconds", "1", "--trace", "1", "--seed", "1"],
        capture_output=True, text=True, timeout=300, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, proc.stdout
