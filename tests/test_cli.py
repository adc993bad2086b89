import argparse
import ast
import hashlib
import json
import os
from pathlib import Path
import re
import subprocess
import sys

import jsonschema
import pytest

from hahnsl2 import cli
from hahnsl2.cli import main, run_cube, run_verify_hahn

ROOT = Path(__file__).resolve().parent.parent
SCHEMA = json.loads((ROOT / "schemas" / "report.schema.json").read_text())
README = ROOT / "README.md"


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


# SHA-256 of JSON reports, with the exit code each run must return.  They
# pin every certificate coefficient and word (verify-hahn at bound 8), the
# degrees of the residuals left unresolved at bound 4, every PBW identity and
# rho sample verdict at the benchmark's n-max 10, every module label and
# signature check (repr, including the n = 0 branch and the first odd half),
# every decomposition block (cube, also at the benchmark's D = 7 from a
# seeded base vertex, and at D = 8 and 9) and the combined verify-all report
# with its summary and `config.jobs` field.  A change to any of them must
# update its digest here on purpose.
VERIFY_ALL_SMALL_ARGV = ["verify-all", "--n-max", "2", "--repr-n-max", "2", "--d-max", "3"]
PINNED_REPORTS = [
    (["verify-hahn", "--degree-bound", "8"], 0,
     "39c0c725df7f65032be6d37eae38680c3e35dae2e57b764367363386b04e1e8f"),
    (["verify-hahn", "--degree-bound", "4"], 1,
     "25c9bd5568d58fa4a54fa2279a1d54a8db256a74f85465ca7b4f2d38982a908f"),
    (["verify-usl2", "--n-max", "10"], 0,
     "4f5ccf70fc94c20d4bf40c485594a16cec37ec7ae0ca83bf150f3acb58debf0e"),
    (["repr", "--n-max", "0"], 0,
     "3e2eb2e09f91ae912b1b5ff48081c610c48ad6cb33ae3b8a0fa33f0ade6505e1"),
    (["repr", "--n-max", "1"], 0,
     "e7a2d9ab7ba37f6fc5e8e9d8a6567bb657c30f41c6bd8ae9d537cd23f2c6e0c1"),
    (["repr", "--n-max", "12"], 0,
     "5ed89d381acd8e53835a59eb552f8b2905f65554e8186b1cdff2f1848a5ed2d1"),
    (["cube", "--d-min", "2", "--d-max", "6"], 0,
     "171737e258b5f5165e6c82cd07058b0dcb79a09e410d4b06efc007981ff01869"),
    (["cube", "--d-min", "7", "--d-max", "7", "--base-vertex", "0110000"], 0,
     "7329251afcd098c949630d49f1ce286266609b0db4b4d18bd7c6c281e686e874"),
    (["cube", "--d-min", "8", "--d-max", "8"], 0,
     "da8d9502a8aa2afc80831bdd56c8529d02e19de2d3250a0f5e89f40a3a3f66a1"),
    (["cube", "--d-min", "9", "--d-max", "9"], 0,
     "1fd33510ea87c3539786c0b4d52dfc6b97592c33e58154c0a810ea84eebaa900"),
    (VERIFY_ALL_SMALL_ARGV, 0,
     "63c23ede153d1fa47c405ae6ea4ee522a88b8b182b75299c115e4462db1fcab8"),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest",
    PINNED_REPORTS,
    ids=["-".join(arg.lstrip("-") for arg in row[0]) for row in PINNED_REPORTS],
)
def test_json_report_bytes_are_pinned(capsys, argv, exit_code, digest):
    code, out = _run(capsys, argv + ["--format", "json"])
    assert code == exit_code
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-usl2", "--n-max", "10"],
        ["verify-hahn", "--degree-bound", "4"],
        ["repr", "--n-max", "2"],
        ["cube", "--d-min", "2", "--d-max", "3"],
        VERIFY_ALL_SMALL_ARGV,
    ],
    ids=lambda argv: argv[0],
)
def test_reports_name_each_identity_once(capsys, argv):
    _, out = _run(capsys, argv + ["--format", "json"])
    report = json.loads(out)
    for sub in report.get("reports", {argv[0]: report}).values():
        names = [i["identity"] for i in sub["items"]]
        assert len(names) == len(set(names)), sub["command"]


def test_verify_hahn_low_bound_exits_one(capsys):
    code, out = _run(capsys, ["verify-hahn", "--degree-bound", "4", "--format", "json"])
    assert code == 1
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    unresolved = [i for i in report["items"] if i["status"] == "unresolved-at-bound"]
    assert unresolved
    assert not any("certificate-reference" in i for i in unresolved)


def test_certificate_references_match_certificates_one_to_one(capsys):
    _, out = _run(capsys, ["verify-hahn", "--degree-bound", "8", "--format", "json"])
    report = json.loads(out)
    refs = {
        i["certificate-reference"]: i["identity"]
        for i in report["items"]
        if "certificate-reference" in i
    }
    assert len(refs) == sum("certificate-reference" in i for i in report["items"])
    assert set(refs) == set(report["certificates"])
    assert all(ref == "cert:" + identity for ref, identity in refs.items())


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


def test_python_dash_m_runs_main(capsys):
    # __main__.py in a fresh interpreter: its report is the one main prints
    argv = ["cube", "--d-min", "2", "--d-max", "3", "--format", "json"]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.run([sys.executable, "-m", "hahnsl2", *argv], capture_output=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert _run(capsys, argv) == (0, proc.stdout.decode())


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


# Each integer option one below its least value, as typed on its suite's
# subcommand and on verify-all
BELOW_LEAST = [
    (typed_on, flag, o.least)
    for command, suite in cli.SUITES.items()
    for o in suite.options
    for typed_on, flag in ((command, o.flag), ("verify-all", o.all_flag))
]


@pytest.mark.parametrize("command, flag, least", BELOW_LEAST,
                         ids=[f"{command}{flag}" for command, flag, _ in BELOW_LEAST])
def test_a_value_below_its_least_is_refused_naming_the_flag(command, flag, least, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(least - 1)])
    assert exc.value.code == 2
    assert f"error: {flag} must be at least {least}\n" in capsys.readouterr().err
    parser = cli.build_parser()
    cli._validate(parser.parse_args([command, flag, str(least)]), parser)  # the least passes


# Each integer option one above its most, typed as above.  --d-min is typed
# with an equal --d-max, since --d-max must be at least it; one above the
# most, both are out of range, and the message names --d-min, which cube
# lists first.
ABOVE_MOST = [
    (typed_on, flag, o.most)
    for command, suite in cli.SUITES.items()
    for o in suite.options
    for typed_on, flag in ((command, o.flag), ("verify-all", o.all_flag))
]


def _typed(command: str, flag: str, value: int) -> list[str]:
    argv = [command, flag, str(value)]
    return argv + ["--d-max", str(value)] if flag == "--d-min" else argv


@pytest.mark.parametrize("command, flag, most", ABOVE_MOST,
                         ids=[f"{command}{flag}" for command, flag, _ in ABOVE_MOST])
def test_a_value_above_its_most_is_refused_naming_the_flag(command, flag, most, capsys):
    # only the parser and _validate run: no suite starts at a large value
    parser = cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli._validate(parser.parse_args(_typed(command, flag, most + 1)), parser)
    assert exc.value.code == 2
    assert f"error: {flag} must be at most {most}\n" in capsys.readouterr().err
    cli._validate(parser.parse_args(_typed(command, flag, most)), parser)  # the most passes


def _bench_argvs() -> list[list[str]]:
    """The CLI argv of the benchmark's verify-all and cube-d7 workloads at
    both sizes, read from the WORKLOADS literal in bench/run.py without
    importing it."""
    tree = ast.parse((ROOT / "bench" / "run.py").read_text())
    node = next(n for n in tree.body if isinstance(n, ast.Assign)
                and [getattr(t, "id", None) for t in n.targets] == ["WORKLOADS"])
    workloads = ast.literal_eval(node.value)
    argvs = []
    for size in ("full", "smoke"):
        params = workloads["verify-all"][size]  # keyed by each option's dest
        argvs.append(["verify-all"] + [a for dest, v in params.items() for a in ("--" + dest.replace("_", "-"), str(v))])
        D = str(workloads["cube-d7"][size]["D"])
        argvs.append(["cube", "--d-min", D, "--d-max", D])
    return argvs


def test_every_pinned_and_benchmarked_argv_is_in_range():
    # a later change to a range cannot refuse a pinned or benchmarked run
    parser = cli.build_parser()
    for argv in [row[0] for row in PINNED_REPORTS] + _bench_argvs():
        cli._validate(parser.parse_args(argv), parser)


def _readme_usage() -> dict[str, str]:
    """The lines of the README's usage block by command, with each
    continuation line joined to the line it continues."""
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    usage: dict[str, str] = {}
    for line in block.strip().splitlines():
        if line.startswith("hahnsl2 "):
            command = line.split()[1]
            usage[command] = line
        else:
            usage[command] += " " + line.strip()
    return usage


def test_the_readme_usage_states_each_default_and_least_value():
    # "hahnsl2 <suite> [--flag N ...]  # least <= flag <= most", where a
    # chain "least <= a <= b <= most" gives both flags that range
    usage = _readme_usage()
    assert set(usage) == set(cli.SUITES) | {"verify-all"}
    for command, suite in cli.SUITES.items():
        options, comment = usage[command].split("#")
        assert dict(re.findall(r"(--[a-z-]+) (\d+)", options)) == {o.flag: str(o.default) for o in suite.options}
        least, *flags, most = (t.strip() for t in comment.split("<="))
        assert sorted("--" + f for f in flags) == sorted(o.flag for o in suite.options)
        assert [(o.least, o.most) for o in suite.options] == [(int(least), int(most))] * len(suite.options)
    defaults = {o.all_flag: str(o.default) for suite in cli.SUITES.values() for o in suite.options}
    assert dict(re.findall(r"(--[a-z-]+) (\d+)", usage["verify-all"])) == defaults | {"--jobs": "1"}


def test_verify_all_at_its_defaults_embeds_each_suite_at_its_defaults(capsys):
    _, out = _run(capsys, ["verify-all", "--format", "json"])
    reports = json.loads(out)["reports"]
    assert set(reports) == set(cli.SUITES)
    for command in cli.SUITES:
        _, out = _run(capsys, [command, "--format", "json"])
        assert reports[command] == json.loads(out), command


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # the argparse tree is built on the first call and shared by the later
    # ones, and a usage error on a later call still exits 2
    cli.build_parser.cache_clear()
    built = []
    real = argparse.ArgumentParser.add_subparsers
    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers",
                        lambda self, **kwargs: built.append(self) or real(self, **kwargs))
    assert main(["repr", "--n-max", "0"]) == 0
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["cube", "--d-max", "17"])
        assert exc.value.code == 2
    assert main(["cube", "--d-min", "2", "--d-max", "2"]) == 0
    assert len(built) == 1 and built[0] is cli.build_parser()
    capsys.readouterr()


def test_out_file_and_determinism(tmp_path, capsys):
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert main(["verify-usl2", "--n-max", "2", "--format", "json", "--out", str(p1)]) == 0
    assert main(["verify-usl2", "--n-max", "2", "--format", "json", "--out", str(p2)]) == 0
    capsys.readouterr()
    assert p1.read_bytes() == p2.read_bytes()


def test_out_to_a_missing_directory_is_refused(tmp_path, capsys, monkeypatch):
    # refused while parsing, before any suite runs
    runs = []
    monkeypatch.setattr(cli, "run_repr", lambda *args: runs.append(args))
    out = tmp_path / "missing" / "r.json"
    with pytest.raises(SystemExit) as exc:
        main(["repr", "--n-max", "0", "--out", str(out)])
    assert exc.value.code == 2
    assert "does not exist" in capsys.readouterr().err
    assert runs == [] and not out.parent.exists()


def test_out_naming_a_directory_is_refused(tmp_path, capsys, monkeypatch):
    # a directory passes the parent-directory check but cannot be written:
    # refused while parsing, with the usage exit code, not a failed check
    runs = []
    monkeypatch.setattr(cli, "run_repr", lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["repr", "--n-max", "0", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "is a directory" in capsys.readouterr().err
    assert runs == [] and list(tmp_path.iterdir()) == []


def test_an_empty_out_path_is_refused(capsys, monkeypatch):
    # an empty path used to pass, and the report went to stdout with exit 0
    runs = []
    for name in ("run_verify_usl2", "run_verify_hahn", "run_repr", "run_cube"):
        monkeypatch.setattr(cli, name, lambda *args: runs.append(args))
    with pytest.raises(SystemExit) as exc:
        main(["verify-all", "--out", ""])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--out: the path is empty" in captured.err and captured.out == ""
    assert runs == []


def test_verify_all_json_validates_and_accepts_one_job(capsys):
    argv = VERIFY_ALL_SMALL_ARGV + ["--format", "json"]
    code, out = _run(capsys, argv)
    assert code == 0
    report = json.loads(out)
    jsonschema.validate(report, SCHEMA)
    assert set(report["reports"]) == {"verify-usl2", "verify-hahn", "repr", "cube"}
    assert _run(capsys, argv + ["--jobs", "1"]) == (0, out)


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
