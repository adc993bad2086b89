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
     "41d6c15e6687799b802786c4983058ef7785320d9a2ec8b1835be7ac01788990"),
    (["verify-hahn", "--degree-bound", "4"], 1,
     "b3d736e35b2a708159e59013f847dcffba45e03b3b37ed4d7ff869aefcd409e1"),
    (["verify-usl2", "--n-max", "10"], 0,
     "2df0674e7e29779d3e1ae640150f7d381179dcfd698549aec64cdf5f9846b356"),
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
     "ef4c080146ad53866d946a1942fc1afdd16830a98b2ee132cfc75ce8f49dc172"),
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
    cli._validate(cli._parse([command, flag, str(least)]))  # the least passes


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
    with pytest.raises(SystemExit) as exc:
        cli._validate(cli._parse(_typed(command, flag, most + 1)))
    assert exc.value.code == 2
    assert f"error: {flag} must be at most {most}\n" in capsys.readouterr().err
    cli._validate(cli._parse(_typed(command, flag, most)))  # the most passes


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
    for argv in [row[0] for row in PINNED_REPORTS] + _bench_argvs():
        cli._validate(cli._parse(argv))


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


# SHA-256 of what main writes to stdout, a NUL, and what it writes to stderr,
# with the exit code, for root help, each subcommand's help and every kind of
# usage error, at COLUMNS=80.  They are argparse's bytes on Python 3.11.  A
# run parses with its subcommand's parser alone and falls back to the whole
# tree for anything that parser does not take, so these pin that the two
# paths print the same help and the same errors.
PINNED_USAGE = [
    ([], 2,
     '46899ce07860d01f65b821006ecb04e1a9d6c6db784df09ffe17f276fb8db172'),
    (['-h'], 0,
     '8095fc4c3d2c2ab4aeb5f222d466326d0a2b0e95feef0e87d3010d818becdc2a'),
    (['verify-usl2', '-h'], 0,
     '72487e1df38f43e6c65bb229c2f10d530b30d2e2293c6058235dc6606ea3b780'),
    (['verify-hahn', '-h'], 0,
     'a340ec9e77111585b8136356cd3f78f4e24c0bce83a042cb2387eea8bc0a56f5'),
    (['repr', '-h'], 0,
     '90fc20ee6308bb566ca668cf6d67b097deb0f5f054ce04d316a49c2bf6cbd795'),
    (['cube', '-h'], 0,
     'ebbdf9edc2256db55cbc81559e81449d3227c0dfcffa2da746c8e09100a95d1b'),
    (['verify-all', '-h'], 0,
     'ef9835e17dae1fc3a1150e42b1939c8b50ea37c75fca00f493e004f33e4e5e7b'),
    (['bogus'], 2,
     '921bb26cff5d00dfdf46124f18411fbed103a1b47fd23fe8047e2018455eda55'),
    (['cube', '--jobs', '2'], 2,
     '0eace87ad81c175011f243fb128dc623ed25e2c5e355eb0dd8b2c13c4c149542'),
    (['cube', '--d-min', 'x'], 2,
     '13d252826f6c68ab18051fc37220acf28a7c70f959cd500dd2fd51ed50d2f01e'),
    (['verify-usl2', '--n-max', '0'], 2,
     '2e5e4a1375bac7ab5d11f1a9ac526a743cb6461a91f4f331cd6a7402165a9d13'),
    (['verify-all', '--repr-n-max', '-1'], 2,
     '4d6e42c992640b42df509a087355b8f607d85761174372ee675ac6f04a9b5119'),
    (['cube', '--d-max', '17'], 2,
     'ad3fcd4c6587edb748ff4582cf9cb79bf3970cc317ebb3d9d03976966636a1c2'),
    (['verify-all', '--degree-bound', '12'], 2,
     '197bb2ad82cb47f6235240c4adca9d7e4cec234cc828ef50840c408932006104'),
    (['cube', '--d-min', '5', '--d-max', '4'], 2,
     '65861e39afe6df71ece956afa81174d317ad2ea7341cd3adb920a568f09ac4bc'),
    (['cube', '--d-min', '4', '--d-max', '4', '--base-vertex', '0001'], 2,
     '6b80f68ea8c524df371bbbb9de22a4cdd51ef1271e11f2da0ed82de93b40e78f'),
    (['cube', '--d-min', '3', '--d-max', '4', '--base-vertex', '011'], 2,
     '198134dd92d9490d4cd10b01a1b0ccf10151b430fae45553622061fbfb3d488e'),
    (['cube', '--d-min', '3', '--d-max', '3', '--base-vertex', '01'], 2,
     '301b2ed115e65153b6108aacef3734119e585ebbbcd746f109fd91e86db9470b'),
    (['cube', '--out', ''], 2,
     'e108458f4520283dacbac0450a7e15080dcde9c2e752e4bac22fdeadc49e4b7e'),
    (['cube', '--format', 'xml'], 2,
     '98783f9b10cb1df9f2ecba96e723493187ce91d2cc7e034e7799e0e528115f51'),
    (['verify-all', '--jobs', '2'], 2,
     '4f44f8899fb0b221c0caa22efb66524510a172c59bab3792c9da5cca8bef6cb7'),
    (['verify-all', '--n-max'], 2,
     'a18f58d80685b8a8bfd3e7fde4f583f878d9b71c8c4174b7f3873123f68296a1'),
    (['cube', '--d', '3'], 2,
     'd171eb6962c128bb4dc0588ec5012cb36f5abeae89440f6b7d9b379d95b7ea91'),
    (['cube', '--d-mi', '3', '--d-ma', '3'], 0,
     '5b88a935533652d1f8766e2fec3192b35b089ab7f6599ac24a72aca7d971b7f5'),
    (['cube', '--d-min=3', '--d-max', '3'], 0,
     '5b88a935533652d1f8766e2fec3192b35b089ab7f6599ac24a72aca7d971b7f5'),
    (['--', 'cube', '--d-min', '3', '--d-max', '3'], 2,
     '5ebf016f954c29da56a2cb19e9de67ac5971ea44fa4f515484ab95af6aa0c0b7'),
    (['cube', '--d-min', '2', '--d-min', '3', '--d-max', '3'], 0,
     '5b88a935533652d1f8766e2fec3192b35b089ab7f6599ac24a72aca7d971b7f5'),
    (['repr', '--n-max', '3', 'extra'], 2,
     '9e651a56bbfe681cc08802ee088ff9e9877e5c70866f2008570f4a15e2ef7445'),
    (['-h', 'cube'], 0,
     '8095fc4c3d2c2ab4aeb5f222d466326d0a2b0e95feef0e87d3010d818becdc2a'),
    (['cube', '--d-min', '3', '--d-max', '3', '-h'], 0,
     'ebbdf9edc2256db55cbc81559e81449d3227c0dfcffa2da746c8e09100a95d1b'),
]


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_USAGE,
                         ids=[" ".join(row[0]) or "no-arguments" for row in PINNED_USAGE])
def test_help_and_usage_errors_are_pinned(argv, exit_code, digest, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert code == exit_code
    assert hashlib.sha256((captured.out + "\0" + captured.err).encode()).hexdigest() == digest


def test_main_builds_the_parser_once(monkeypatch, capsys):
    # a run its subcommand's parser takes builds no tree; the tree is built
    # for the first refused value and shared by the later ones, and a usage
    # error on a later call still exits 2
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


@pytest.mark.parametrize("argv", [
    ["cube", "--d-min", "7", "--d-max", "7", "--base-vertex", "0110000", "--format", "json"],
    ["verify-all", "--n-max", "10", "--format", "json"],
], ids=lambda argv: argv[0])
def test_a_run_builds_one_parser(argv):
    # a fresh interpreter counts the ArgumentParsers that the benchmark's
    # cube-d7 run, or a verify-all run, constructs: 6 while main built the
    # whole tree, the root and one parser per subcommand, on every run
    code = (
        "import argparse, contextlib, io, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "built = []\n"
        "real_init = argparse.ArgumentParser.__init__\n"
        "def init(self, *args, **kwargs):\n"
        "    built.append(self)\n"
        "    real_init(self, *args, **kwargs)\n"
        "argparse.ArgumentParser.__init__ = init\n"
        "from hahnsl2 import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = cli.main({argv!r})\n"
        "print(status, len(built))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]

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
