"""scipy stays off the start-up path.

Only the L^p escape (``zeta``, ``digamma``) and the two escape invariants of
the suite need scipy, and each imports it on first call; a
``GeneralSpectrum``'s norms and power integrals are its declared closed forms
and import none.  The test session itself imports scipy, so every check runs
in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import riskspace

# prints (command, scipy modules loaded after it) for the import and for
# each CLI call in turn, all in one process
_CLI_PROBE = """
import contextlib, io, json, sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import riskspace
report = [["import riskspace", 0, scipy_modules()]]
from riskspace.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    report.append([" ".join(argv), code, scipy_modules()])
print(json.dumps(report))
"""

# evaluates one check that needs scipy; reports the scipy modules loaded
# before and after it, and the check's outcome
_LAZY_PROBE = """
import contextlib, io, json, sys

def scipy_count():
    return sum(1 for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import numpy as np
from riskspace.cli import main
from riskspace.extremal import lp_escape_limit
from riskspace.spectrum import GeneralSpectrum, PowerSqrtSpectrum
from riskspace.verify import run_suite
rising = GeneralSpectrum(
    gap_density_fn=lambda g: (2.0 - g) / 1.5,
    gap_tail_fn=lambda g: (2.0 * g - g**2 / 2.0) / 1.5,
    tail_power_fn=lambda g, q: (
        -(2.0 ** (q + 1.0)) * np.expm1((q + 1.0) * np.log1p(-g / 2.0)) / ((q + 1.0) * 1.5**q)
    ),
)
before = scipy_count()
with contextlib.redirect_stdout(io.StringIO()):
    result = eval(sys.argv[1])
print(json.dumps({"before": before, "after": scipy_count(), "result": result}))
"""


def _child(tmp_path, script, arg):
    # the child imports the same package as these tests, installed or not
    package_root = str(Path(riskspace.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, arg],
        capture_output=True, text=True, timeout=120, env=env, cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_import_and_file_commands_load_no_scipy(tmp_path):
    (tmp_path / "avar.json").write_text(json.dumps({"kind": "avar", "alpha": 0.5}))
    (tmp_path / "power.json").write_text(json.dumps({"kind": "power_sqrt"}))
    (tmp_path / "step.json").write_text(
        json.dumps({"kind": "step", "breakpoints": [0.0, 0.5, 1.0], "values": [0.5, 1.5]})
    )
    (tmp_path / "mu.json").write_text(json.dumps({"atoms": [[0.0, 0.5], [0.5, 0.5]]}))
    (tmp_path / "d.csv").write_text("value,weight\n-2,0.25\n1,0.25\n3,0.5\n")
    pair = ["--spectrum", "power.json", "--samples", "d.csv"]
    commands = [
        ["--version"],
        *(["eval", *pair, "--method", m] for m in ("quantile", "cdf", "both")),
        ["eval", *pair, "--norm"],
        ["norm", *pair],
        ["dual-norm", *pair],
        ["dominate", *pair, "--eta", "10"],
        ["approx", *pair, "--epsilon", "0.1"],
        ["diverge", "--spectrum", "step.json"],
        ["kusuoka", "to-measure", "--spectrum", "step.json"],
        ["kusuoka", "to-spectrum", "--measure", "mu.json"],
        *(["embed", "--from", a, "--to", b]
          for a in ("avar.json", "power.json", "step.json")
          for b in ("avar.json", "power.json", "step.json")),
    ]
    report = _child(tmp_path, _CLI_PROBE, json.dumps(commands))
    assert [row[0] for row in report[1:]] == [" ".join(argv) for argv in commands]
    assert [row for row in report if row[1] != 0] == []
    assert [row for row in report if row[2]] == []


@pytest.mark.parametrize(
    "call",
    [
        "main(['escape', '--spectrum', 'power.json', '--mode', 'lp', '--depth', '5']) == 0",
        "lp_escape_limit(PowerSqrtSpectrum(), 1.5) > 0",
        "run_suite(seed=0, cases=1)['failures_total'] == 0",
    ],
    ids=["escape-lp", "lp_escape_limit", "run_suite"],
)
def test_scipy_is_loaded_on_first_call(tmp_path, call):
    (tmp_path / "power.json").write_text(json.dumps({"kind": "power_sqrt"}))
    report = _child(tmp_path, _LAZY_PROBE, call)
    assert report["before"] == 0
    assert report["after"] > 0
    assert report["result"] is True


@pytest.mark.parametrize(
    "call",
    [
        # integral of ((1+u)/1.5)**2 over [0, 1) is 7/6.75
        "abs(rising.lq_norm(2.0) - (7.0 / 6.75) ** 0.5) < 1e-12",
        "abs(float(rising.tail_power_integral(0.5, 1.5))"
        " - 1.5**-1.5 * (2.0**2.5 - 1.5**2.5) / 2.5) < 1e-12",
    ],
    ids=["general-lq_norm", "general-tail_power"],
)
def test_general_spectrum_calls_load_no_scipy(tmp_path, call):
    report = _child(tmp_path, _LAZY_PROBE, call)
    assert report["before"] == 0
    assert report["after"] == 0
    assert report["result"] is True
