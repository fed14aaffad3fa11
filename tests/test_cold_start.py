"""scipy is loaded by the first logistic, not by the import.

``import mggp`` and the commands that evaluate no tree (``gen``, ``report``
and ``compare``) must leave scipy unloaded; the first logsig forward or
logsig/softplus derivative loads ``scipy.special``, and its values are
scipy's ``expit`` bit for bit.  This test process has scipy loaded already,
so each check runs in a fresh interpreter.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import mggp
from mggp.cli import main

SRC = str(Path(mggp.__file__).resolve().parent.parent)


def fresh(code: str) -> str:
    """Run ``code`` in a new interpreter that imports this checkout's
    ``mggp``; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [SRC, *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(code)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_import_loads_no_scipy():
    out = fresh("""
        import sys
        import mggp
        print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
    """)
    assert out.split("\n")[0] == "[]"


def test_gen_report_and_compare_load_no_scipy(tmp_path):
    records = tmp_path / "records"
    assert main(["run", "--dataset", "s2d", "--config", "baseline", "--config", "UB",
                 "--runs", "3", "--generations", "1", "--out", str(records)]) == 0
    out = fresh(f"""
        import sys
        from mggp.cli import main
        codes = [main(["gen", "s2d", "--seed", "1", "--out", {str(tmp_path / "data")!r}]),
                 main(["report", {str(records)!r}]),
                 main(["compare", {str(records)!r}, "--config-a", "UB",
                       "--config-b", "baseline"])]
        print(codes, "scipy" in sys.modules)
    """)
    assert out.splitlines()[-1] == "[0, 0, 0] False"


@pytest.mark.parametrize("first", [
    "eval_batch(parse_tree('(logsig (var 1))'), X)",
    "DERIVATIVE[Fn.LOGSIG](X[:, 0], None, None, 0)",
    "DERIVATIVE[Fn.SOFTPLUS](X[:, 0], None, None, 0)",
])
def test_the_first_logistic_loads_scipy_and_computes_expit(first):
    out = fresh(f"""
        import sys
        import numpy as np
        from mggp import exprtree
        from mggp.backprop import DERIVATIVE
        from mggp.exprtree import Fn, eval_batch, parse_tree
        X = np.linspace(-40.0, 40.0, 2001).reshape(-1, 1)
        assert "scipy" not in sys.modules
        {first}
        from scipy.special import expit
        assert exprtree.expit is expit  # bound once: later calls import nothing
        x = X[:, 0]
        s = expit(x)
        pairs = [(eval_batch(parse_tree("(logsig (var 1))"), X), expit(-x)),
                 (DERIVATIVE[Fn.LOGSIG](x, None, None, 0), -(s * (1.0 - s))),
                 (DERIVATIVE[Fn.SOFTPLUS](x, None, None, 0), s)]
        print(all(got.tobytes() == want.tobytes() for got, want in pairs))
    """)
    assert out.splitlines()[-1] == "True"
