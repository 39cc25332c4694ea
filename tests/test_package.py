import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import asynclab
from asynclab.scenarios import builtin_example
from test_cli import FEASIBLE_OSCILLATOR


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as f:
        version = tomllib.load(f)["project"]["version"]
    assert asynclab.__version__ == version


# Runs one CLI command (none for an empty argv) after `import asynclab.cli`
# and prints its exit code and whether scipy was imported.
_SCIPY_CHILD = """
import contextlib, io, json, sys
from asynclab import cli
argv = json.loads(sys.argv[1])
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv) if argv else 0
print(json.dumps({"code": code, "scipy": "scipy" in sys.modules}))
"""


@pytest.mark.parametrize("argv, example, overrides, loads_scipy", [
    pytest.param([], None, None, False, id="import"),
    pytest.param(["bound", "{doc}", "--theorem", "3"], 2, None, False, id="ex2-bound-3"),
    pytest.param(["bound", "{doc}", "--theorem", "4"], 3, None, False, id="ex3-bound-4"),
    pytest.param(["design", "{doc}"], 3, None, False, id="ex3-design"),
    pytest.param(["run", "{doc}", "--out", "{out}"], 3, None, False, id="ex3-run"),
    pytest.param(["reproduce", "--example", "2"], None, None, False, id="reproduce-ex2"),
    pytest.param(["reproduce", "--example", "3"], None, None, False, id="reproduce-ex3"),
    # example 1's oscillator has two states, solved without scipy too
    pytest.param(["bound", "{doc}", "--theorem", "2"], 1, None, False, id="ex1-bound-2"),
    pytest.param(["bound", "{doc}", "--theorem", "c1"], 1, None, False, id="ex1-bound-c1"),
    pytest.param(["design", "{doc}"], 1, None, False, id="ex1-design"),
    pytest.param(["reproduce", "--example", "1"], None, None, False, id="reproduce-ex1"),
    # theorem 4 scans the norms of e^{As} from the oscillator's modal flow maps
    pytest.param(["bound", "{doc}", "--theorem", "4"], 1,
                 {"bound_params": FEASIBLE_OSCILLATOR}, False, id="ex1-bound-4"),
    # double integrators are defective: their flow maps are scipy's block expm
    pytest.param(["run", "{doc}", "--out", "{out}"], 1,
                 {"model": {"A": [[0.0, 1.0], [0.0, 0.0]], "B": [[0.0], [1.0]]}}, True,
                 id="double-integrator-run"),
])
def test_scipy_is_imported_only_where_it_is_used(tmp_path, argv, example, overrides,
                                                 loads_scipy):
    if example is not None:
        doc, _ = builtin_example(example)
        doc["horizon"] = 2.0
        doc.update(overrides or {})
        (tmp_path / "doc.json").write_text(json.dumps(doc))
    argv = [a.format(doc=tmp_path / "doc.json", out=tmp_path / "out") for a in argv]
    src = str(Path(asynclab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH", "")) if p))
    done = subprocess.run([sys.executable, "-c", _SCIPY_CHILD, json.dumps(argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"code": 0, "scipy": loads_scipy}
