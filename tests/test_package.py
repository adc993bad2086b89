import ast
import importlib
import json
import pkgutil
import re
import subprocess
import sys
from collections import namedtuple
from pathlib import Path

import pytest

import hahnsl2
from hahnsl2 import cli, freealg, hahn, linalg, reps, terwilliger, usl2


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
    # bench/tracer.py wraps these and skips a name it does not find, so a
    # rename would read 0 in its per-layer figure and fail nothing there
    for owner, attrs in (
        (linalg, "kernel_basis restrict_to_subspace"),
        (usl2, "multiply"),
        (freealg, "substitute"),
        (hahn, "natural verify_natural_well_defined verify_image_gradings verify_intertwining"
               " verify_hahn_identities verify_kernel_and_inverse"),
        (reps, "evaluate is_irreducible classify_ue_irreducible"),
        (terwilliger, "te_dimension decompose_standard decompose_halved"),
        (cli, "run_verify_usl2 run_verify_hahn run_repr run_cube emit"),
    ):
        for attr in attrs.split():
            assert callable(getattr(owner, attr, None)), (owner, attr)
    assert hahn.presentation().relators
    assert hahn.ALPHABET == ("A", "B")
    assert isinstance(linalg.Combination.terms, property)


def test_a_matrix_product_reaches_the_traced_matmul(monkeypatch):
    # bench/tracer.py wraps the class attribute SparseMatrix.matmul, so the
    # product operator must call it there, once a product, or the traced
    # linalg.matmul figures read 0
    calls = []
    real = linalg.SparseMatrix.matmul

    def counted(self, other):
        calls.append((self, other))
        return real(self, other)

    monkeypatch.setattr(linalg.SparseMatrix, "matmul", counted)
    a = linalg.SparseMatrix(2, 3, {(0, 1): 2, (1, 2): -1})
    b = linalg.SparseMatrix(3, 2, {(1, 0): 1, (2, 1): 5})
    assert a * b == linalg.SparseMatrix(2, 2, {(0, 0): 2, (1, 1): -5})
    assert calls == [(a, b)]


ROOT = Path(__file__).resolve().parent.parent


def _package_name(dotted: str):
    """The object a dotted name in the README names, or None: the head is a
    module of the package, a class of one, or a standard-library module,
    and each later part an attribute of what comes before."""
    head, *rest = dotted.split(".")
    modules = [importlib.import_module(f"hahnsl2.{m.name}") for m in pkgutil.iter_modules(hahnsl2.__path__)
               if m.name != "__main__"]
    owners = {m.__name__.rsplit(".", 1)[1]: m for m in modules}
    owners.update({name: obj for m in modules for name, obj in vars(m).items()
                   if isinstance(obj, type) and obj.__module__ == m.__name__})
    obj = owners.get(head)
    if obj is None and head in sys.stdlib_module_names:
        obj = importlib.import_module(head)
    for attr in rest:
        obj = getattr(obj, attr, None)
    return obj


def test_every_dotted_name_in_the_readme_resolves():
    # README names the API as `module.name` (or `Class.method`); a rename or
    # a removal that the README misses fails here.  File names such as
    # `cli.py` are not names
    text = (ROOT / "README.md").read_text()
    names = set(re.findall(r"`([A-Za-z_]\w*(?:\.\w+)+)[^`]*`", text))
    files = {n for n in names if (ROOT / n).exists() or (ROOT / "src" / "hahnsl2" / n).exists()}
    assert "linalg.EchelonBasis" in names and "cli.py" in files
    assert [n for n in sorted(names - files) if _package_name(n) is None] == []


# class-body names that collections.namedtuple reads, as _replace reads
# _make: an override has a reader that no source shows
NAMEDTUPLE_PROTOCOL = {name for name in dir(namedtuple("T", ""))
                       if name.startswith("_") and not name.startswith("__")}


def _defined_names(body) -> set[str]:
    """The functions, classes and assigned names of a module or class body."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def unread_module_names(sources) -> list[str]:
    """The module-level functions, classes and assigned names of the given
    module sources, and the methods, class attributes and named-tuple
    fields of their module-level classes, that none of them reads, as a
    Name, an Attribute or an import alias.  Dunders and the named-tuple
    protocol are excepted in a class: the language and ``collections``
    read them."""
    trees = [ast.parse(text) for text in sources]
    defined, read = set(), set()
    for tree in trees:
        defined |= _defined_names(tree.body)
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                defined |= {name for name in _defined_names(node.body) if name not in NAMEDTUPLE_PROTOCOL
                            and not (name.startswith("__") and name.endswith("__"))}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(defined - read)


def test_every_module_level_name_in_src_has_a_reader_in_src():
    # a name that only tests or the benchmark read is API with no caller in
    # the package: it belongs in the tests
    sources = [p.read_text() for p in sorted((ROOT / "src" / "hahnsl2").glob("*.py"))]
    assert unread_module_names(sources) == []


def test_unread_module_names_sees_each_kind_of_read():
    sources = ["from .b import f\nimport c\nX = 1\nclass K: pass\ndef g(): return X\n",
               "def f(): pass\ndef h(): return c.K\nY: int = 2\n"]
    assert unread_module_names(sources) == ["Y", "g", "h"]
    # in a class body: fields, attributes and methods; dunders and the
    # named-tuple protocol have readers outside the sources, so never count
    record = ("class R(T):\n    x: int\n    y: int\n    UNIT = 0\n    __slots__ = ()\n    _make = None\n"
              "    def used(self): return self.x\n    def unused(self): pass\n"
              "    def __len__(self): return 0\n")
    assert unread_module_names([record, "def f(r): return R, r.used()\nf(0)\n"]) == ["UNIT", "unused", "y"]


# dataclasses and the modules it pulls in cost a cold run several
# milliseconds of start-up, and no record in src/ needs them
HEAVY_IMPORTS = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


def test_importing_the_package_loads_no_heavy_stdlib_module():
    # the imports of bench/child.py in a fresh interpreter; modules that were
    # loaded before the import (by site hooks, say) do not count
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "before = set(sys.modules)\n"
        "import hahnsl2\n"
        "from hahnsl2 import cli, freealg, hahn, usl2\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "hahnsl2.cli" in loaded
    assert loaded & HEAVY_IMPORTS == set()


def test_no_module_in_src_imports_random():
    # seeded samples live in the tests; the guard above cannot see random,
    # which site often loads (through tempfile) before the package
    importers = []
    for path in sorted((ROOT / "src" / "hahnsl2").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            importers += [path.name for m in modules if m.split(".")[0] == "random"]
    assert importers == []


def test_importing_the_package_computes_no_natural_image_and_checks_no_module():
    # the imports of bench/child.py, and reps, in a fresh interpreter: the
    # memo of natural and the record of checked UeRep values start empty, so
    # no work moves into import time
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "import hahnsl2\n"
        "from hahnsl2 import cli, freealg, hahn, reps, usl2\n"
        "print(len(hahn._natural_memo()), reps._check_even_presentation.cache_info().currsize,\n"
        "      hahn.natural_images.cache_info().currsize, usl2._core_product.cache_info().currsize)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0", "0"]


def test_verify_all_computes_each_value_once():
    # verify-all at --n-max 10 (the benchmark's verify-all run) in a fresh
    # interpreter, counting PBW products, those made inside natural, and
    # matrix products; the three counts were 986, 389 and 1,372 when every
    # word image, Casimir product and UeRep check was recomputed, and the
    # matrix products 997 when each ladder module formed E*E, F*F and E*F
    # once for its even generators and again for the image of B, and 958
    # when the repr classification also built an embedding of each half
    # (the identity) and multiplied all four operators by it on both sides;
    # the PBW products were 436 when rho was checked on 100 seeded pairs
    code = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
        "from hahnsl2 import cli, hahn, linalg, usl2\n"
        "counts = {'multiply': 0, 'natural': 0, 'matmul': 0}\n"
        "inside = []\n"
        "real_multiply, real_natural, real_matmul = usl2.multiply, hahn.natural, linalg.SparseMatrix.matmul\n"
        "def multiply(a, b):\n"
        "    counts['multiply'] += 1\n"
        "    counts['natural'] += bool(inside)\n"
        "    return real_multiply(a, b)\n"
        "def natural(p):\n"
        "    inside.append(p)\n"
        "    try:\n"
        "        return real_natural(p)\n"
        "    finally:\n"
        "        inside.pop()\n"
        "def matmul(a, b):\n"
        "    counts['matmul'] += 1\n"
        "    return real_matmul(a, b)\n"
        "usl2.multiply, hahn.natural, linalg.SparseMatrix.matmul = multiply, natural, matmul\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['verify-all', '--n-max', '10', '--format', 'json'])\n"
        "print(status, counts['multiply'], counts['natural'], counts['matmul'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    status, products, natural_products, matrix_products = map(int, proc.stdout.split())
    assert status == 0
    assert products <= 246
    assert natural_products <= 30
    assert matrix_products <= 692


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
