"""Self-tests for the benchmark, at smoke size.

Run from the root of a source checkout:  python3 bench/selftest.py

They check that every workload and metric the runner prints matches
BENCHMARK.json, that wrong, missing and non-deterministic verdicts are
counted as failures, and that the tracer sees calls made through names that
other modules imported.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def smoke(workload: str, trace: int, seed: int = 5) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        capture_output=True, text=True, timeout=300, cwd=str(run.ROOT),
    )
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    *_, info, result = proc.stdout.strip().splitlines()
    return json.loads(info), json.loads(result)


def smoke_report(workload: str, seed: int = 5) -> tuple[str, dict]:
    hahn = oracles.Hahn()
    spec, params = run.make_spec(workload, "smoke", seed, hahn)
    spec.update(src=str(run.ROOT / "src"), trace=False)
    return run.run_child(spec)["report"], params


def failed(workload: str, text: str, params: dict) -> int:
    kind = "ideal" if workload == "ideal-exhaust" else "cli"
    return oracles.check_report(kind, text, params, oracles.Hahn())[1]


class NamesMatchBenchmarkJson(unittest.TestCase):
    def test_workloads(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(run.WORKLOADS))

    def test_printed_metrics(self):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    info, result = smoke(workload, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], info["failures"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {n: m["unit"] for n, m in result["metrics"].items()}
                    self.assertEqual(got, want)
                    for field in ("python", "cores", "commit", "seed"):
                        self.assertIn(field, info)
                    if trace:
                        self.check_layers(workload, result["metrics"])

    def check_layers(self, workload: str, metrics: dict):
        value = {n: m["value"] for n, m in metrics.items()}
        if workload != "verify-all":
            self.assertEqual(value["usl2.multiply.calls"], 0)
        if workload == "cube-d7":
            # terwilliger calls span_closure through the name it imported
            self.assertEqual(value["linalg.span_closure.calls"], 1)
        if workload == "ideal-exhaust":
            self.assertEqual(value["freealg.ideal_membership.exhausted"], 1)
            self.assertGreater(value["freealg.row_ops"], 0)


class WrongVerdictsCount(unittest.TestCase):
    def test_cube_dimension(self):
        text, params = smoke_report("cube-d7")
        self.assertEqual(failed("cube-d7", text, params), 0)
        report = json.loads(text)
        report["per_d"][0]["te_dimension"] += 1
        self.assertEqual(failed("cube-d7", json.dumps(report), params), 1)

    def test_verify_all_certificate_and_missing_item(self):
        text, params = smoke_report("verify-all")
        self.assertEqual(failed("verify-all", text, params), 0)
        report = json.loads(text)
        hahn_report = report["reports"]["verify-hahn"]
        cert = next(iter(hahn_report["certificates"].values()))
        cert["terms"][0]["coefficient"] = str(oracles.Fraction(cert["terms"][0]["coefficient"]) + 1)
        self.assertEqual(failed("verify-all", json.dumps(report), params), 1)
        fewer = copy.deepcopy(json.loads(text))
        fewer["reports"]["repr"]["items"].pop()
        self.assertEqual(failed("verify-all", json.dumps(fewer), params), 1)

    def test_ideal_certificate_for_non_member(self):
        text, params = smoke_report("ideal-exhaust")
        self.assertEqual(failed("ideal-exhaust", text, params), 0)
        fake = {"alphabet": "AB", "terms": [
            {"coefficient": "1", "left": "", "generator": 0, "right": ""}]}
        self.assertEqual(failed("ideal-exhaust", json.dumps({"certificate": fake}), params), 1)

    def test_differing_digest(self):
        text, params = smoke_report("cube-d7")
        reps = [{"report": text}, {"report": text + " "}]
        attempted, bad, _, _ = run.judge(reps, "cube-d7", params, oracles.Hahn())
        self.assertEqual((attempted, bad), (6, 3))


class NonMemberProof(unittest.TestCase):
    def test_relator_has_no_witness_and_generator_has_one(self):
        hahn = oracles.Hahn()
        self.assertIsNone(oracles.nonmember_witness(hahn.relators[0], hahn))
        self.assertEqual(oracles.nonmember_witness(hahn.A, hahn), 1)


if __name__ == "__main__":
    unittest.main()
