import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from hahnsl2.cli import main, run_cube, run_verify_hahn

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "schemas" / "report.schema.json").read_text()
)


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_verify_usl2_text(capsys):
    code, out = _run(capsys, ["verify-usl2", "--n-max", "2"])
    assert code == 0
    assert "summary:" in out
    assert "FAIL" not in out


def test_verify_usl2_json_validates(capsys):
    code, out = _run(capsys, ["verify-usl2", "--n-max", "1", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["ok"] is True


def test_verify_hahn_json_validates_and_has_certificates(capsys):
    code, out = _run(capsys, ["verify-hahn", "--degree-bound", "8", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert report["certificates"]


# SHA-256 of `hahnsl2 verify-hahn --degree-bound 8 --format json`.  It pins
# every certificate coefficient and word: a change to the ideal search that
# alters a certificate, or the report layout, must update this on purpose.
VERIFY_HAHN_BOUND_8_SHA256 = "39c0c725df7f65032be6d37eae38680c3e35dae2e57b764367363386b04e1e8f"


def test_verify_hahn_json_bytes_are_pinned(capsys):
    code, out = _run(capsys, ["verify-hahn", "--degree-bound", "8", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_HAHN_BOUND_8_SHA256


# SHA-256 of the default `repr` and `cube` JSON reports: they pin every module
# label, signature check and decomposition block.
REPR_N_MAX_12_SHA256 = "5ed89d381acd8e53835a59eb552f8b2905f65554e8186b1cdff2f1848a5ed2d1"
CUBE_D_2_TO_6_SHA256 = "171737e258b5f5165e6c82cd07058b0dcb79a09e410d4b06efc007981ff01869"


@pytest.mark.parametrize(
    "argv, digest",
    [
        (["repr", "--n-max", "12"], REPR_N_MAX_12_SHA256),
        (["cube", "--d-min", "2", "--d-max", "6"], CUBE_D_2_TO_6_SHA256),
    ],
)
def test_repr_and_cube_json_bytes_are_pinned(capsys, argv, digest):
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# SHA-256 of `hahnsl2 verify-usl2 --n-max 10 --format json`, the size the
# benchmark runs: it pins every PBW identity and rho sample verdict there.
VERIFY_USL2_N_MAX_10_SHA256 = "acd4635d7a5721f04a80c598adc8739caffd2605f10749e155ed9d1a8d2ae4ae"


def test_verify_usl2_bench_size_json_bytes_are_pinned(capsys):
    code, out = _run(capsys, ["verify-usl2", "--n-max", "10", "--format", "json"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_USL2_N_MAX_10_SHA256


def test_verify_hahn_low_bound_exits_one(capsys):
    code, out = _run(capsys, ["verify-hahn", "--degree-bound", "4", "--format", "json"])
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    unresolved = [i for i in report["items"] if i["status"] == "unresolved-at-bound"]
    assert unresolved


def test_repr_command(capsys):
    code, out = _run(capsys, ["repr", "--n-max", "3", "--format", "json"])
    assert code == 0
    jsonschema.validate(json.loads(out), SCHEMA)


def test_cube_command(capsys):
    code, out = _run(capsys, ["cube", "--d-min", "2", "--d-max", "3", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert [e["te_dimension"] for e in report["per_d"]] == [4, 5]
    assert all(e["match"] for e in report["per_d"])


def test_cube_base_vertex_flag(capsys):
    code, out = _run(
        capsys,
        ["cube", "--d-min", "4", "--d-max", "4", "--base-vertex", "0011", "--format", "json"],
    )
    assert code == 0
    report = json.loads(out)
    assert report["per_d"][0]["base_vertex"] == "0011"
    assert report["per_d"][0]["match"]


def test_cube_rejects_odd_base_vertex():
    with pytest.raises(SystemExit) as exc:
        main(["cube", "--d-min", "4", "--d-max", "4", "--base-vertex", "0001"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["cube", "verify-all"])
def test_d_max_above_the_cap_is_refused(command, capsys):
    # refused while parsing, before any suite runs
    with pytest.raises(SystemExit) as exc:
        main([command, "--d-max", "10"])
    assert exc.value.code == 2
    assert "capped at 9" in capsys.readouterr().err


def test_jobs_is_only_accepted_by_verify_all():
    with pytest.raises(SystemExit) as exc:
        main(["cube", "--d-min", "2", "--d-max", "2", "--jobs", "2"])
    assert exc.value.code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify-usl2", "--n-max", "not-a-number"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify-usl2", "--n-max", "0"])
    assert exc.value.code == 2


def test_out_file_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["verify-usl2", "--n-max", "2", "--format", "json", "--out", str(p1)]) == 0
    assert main(["verify-usl2", "--n-max", "2", "--format", "json", "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


# SHA-256 of `hahnsl2 verify-all --n-max 2 --repr-n-max 2 --d-max 3 --format
# json`: it pins the combined report, its summary and its `config.jobs` field.
VERIFY_ALL_SMALL_SHA256 = "a48c482a2963973050e911e678fe8b31171d155adfd59567de24e6749cb0d875"
VERIFY_ALL_SMALL_ARGV = [
    "verify-all", "--n-max", "2", "--repr-n-max", "2", "--d-max", "3", "--format", "json",
]


def test_verify_all_json_bytes_are_pinned(capsys):
    code, out = _run(capsys, VERIFY_ALL_SMALL_ARGV)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert set(report["reports"]) == {"verify-usl2", "verify-hahn", "repr", "cube"}
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_ALL_SMALL_SHA256
    assert _run(capsys, VERIFY_ALL_SMALL_ARGV + ["--jobs", "1"]) == (0, out)


def test_verify_all_accepts_only_one_job():
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--n-max", "1", "--d-max", "2", "--jobs", "2"])
    assert exc.value.code == 2


def test_report_functions_reused_by_tests():
    # report payloads are plain data wherever they are produced
    report = run_verify_hahn(8)
    assert report["ok"]
    report = run_cube(2, 2, None)
    assert report["per_d"][0]["te_dimension"] == 4
