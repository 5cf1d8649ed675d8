import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import multizeta
from test_cli import run_child

MODULES = ["multizeta"] + [
    f"multizeta.{info.name}" for info in pkgutil.iter_modules(multizeta.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), name
    assert [n for n in exported if not hasattr(module, n)] == []


def test_no_module_imports_a_private_name_from_another():
    # a name that one module uses from another is that module's public API
    private = [
        (path.name, node.module, alias.name)
        for path in sorted(Path(multizeta.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_public_numerics_run_without_mpmath():
    # both engines and the readback through the package, in a child where
    # importing mpmath fails: the oracle's interval holds the fast one, and
    # the readback declines zeta(1,3) = pi^4/360 but reads the empty zeta as 1
    script = (
        "import sys\n"
        "sys.modules['mpmath'] = None\n"
        "import multizeta\n"
        "c = multizeta.Composition((1, 3))\n"
        "low, high, e = multizeta.eval_mzv_fast(c)\n"
        "s_low, s_high, s_e = multizeta.eval_mzv_series(c, 100)\n"
        "assert s_low << e <= low << s_e and high << s_e <= s_high << e\n"
        "one_low, one_high, one_e = multizeta.eval_mzv_fast(multizeta.Composition(()))\n"
        "print(multizeta.reconstruct_rational(low, high, 1 << e),\n"
        "      multizeta.reconstruct_rational(one_low, one_high, 1 << one_e))\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "None 1\n", "")


def test_the_benchmark_wraps_every_name_it_rebinds(tmp_path):
    # bench/child.py rebinds functions of the package by name for its traced
    # runs; a refactor that unbinds one fails here, not only in a traced run
    bench = Path(__file__).resolve().parent.parent / "bench"
    script = (
        "import contextlib, io, pathlib, sys\n"
        f"sys.path.insert(0, {str(bench)!r})\n"
        "import child, spans\n"
        "from multizeta import cli\n"
        f"recorder = spans.Recorder(pathlib.Path({str(tmp_path)!r}), row_layer='numerics.check')\n"
        "spans.install(recorder, child._targets(recorder, True))\n"
        "child._time_the_pool(cli, recorder)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = cli.main(['verify', '--a', '1,0,0'])\n"
        "print(code, recorder.calls['verifier.verify_instance'], recorder.calls['coaction.expansion'] > 0)\n"
    )
    proc = run_child(script)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0 1 True\n", "")


def test_the_readme_quick_start_runs():
    # README's ```python blocks, run in order in one interpreter against the public API
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = [block.split("\n```", 1)[0] for block in readme.split("```python\n")[1:]]
    assert len(blocks) == 2
    proc = run_child("\n".join(blocks))
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    places = [lines.index(line) for line in
              ("verified", "verified-rational", "{'num': 1, 'den': 2520}", "None")]
    assert places == sorted(places), proc.stdout
