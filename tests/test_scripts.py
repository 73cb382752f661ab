"""The runnable demos in scripts/, run as a user runs them."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import selfverify
from selfverify.cli import main

REPO = Path(__file__).resolve().parent.parent
SRC = str(Path(selfverify.__file__).resolve().parent.parent)

# The table the ablation demo prints; the benchmark's offline_ablation
# workload checks the same five rows.
ABLATION_TABLE = (
    "Variant     Precision      Recall         F1             Seeds\n"
    "----------  -------------  -------------  -------------  -----\n"
    "Original    0.750 ± 0.000  0.750 ± 0.000  0.750 ± 0.000  3\n"
    "+ Omission  0.733 ± 0.000  1.000 ± 0.000  0.844 ± 0.000  3\n"
    "+ Prune     1.000 ± 0.000  0.725 ± 0.000  0.838 ± 0.000  3\n"
    "+ Full SV   1.000 ± 0.000  0.975 ± 0.000  0.986 ± 0.000  3\n"
    "Megaprompt  0.750 ± 0.000  0.750 ± 0.000  0.750 ± 0.000  3\n"
)


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONIOENCODING="utf-8")
    return subprocess.run(
        [sys.executable, str(REPO / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        encoding="utf-8",
        timeout=120,
    )


def test_ablation_demo_prints_the_table():
    run = run_script("run_ablation_demo.py", "--workers", "2")
    assert run.returncode == 0, run.stderr
    assert run.stdout == ABLATION_TABLE


@pytest.mark.parametrize(
    "args",
    [["--seeds", "0,,x"], ["--seeds", "0,0"], ["--workers", "0"], ["--workers", "-3"]],
)
def test_ablation_demo_rejects_what_ablate_rejects(args, capsys):
    # One error line, the one `selfverify ablate` prints, and exit 2.
    ablate = ["ablate", "--task", "medication_status", "--dataset",
              str(REPO / "fixtures" / "medication_status.jsonl"), "--script",
              str(REPO / "fixtures" / "medication_script.jsonl"), *args]
    assert main(ablate) == 2
    expected = capsys.readouterr().err
    assert expected.startswith("error: ") and expected.count("\n") == 1
    run = run_script("run_ablation_demo.py", *args)
    assert (run.returncode, run.stdout, run.stderr) == (2, "", expected)


def test_worked_demo_writes_a_report(tmp_path):
    out = tmp_path / "demo"
    run = run_script("run_demo.py", "--out", str(out))
    assert run.returncode == 0, run.stderr
    assert (out / "report.html").is_file()
