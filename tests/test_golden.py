"""The report battery of perfbench, run through cli.main, against the golden corpus.

The invocations, the in-process runner and the comparison are the
benchmark's own (perfbench/workloads.py and perfbench/golden.py), so this
test and the report-battery workload check the same reports the same way.
"""

import sys
from pathlib import Path

import pytest

import restrictlab.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from golden import compare  # noqa: E402
from workloads import EXPECTED_EXIT, battery_argv, run_cli  # noqa: E402

GOLDEN = PERFBENCH / "golden"
BATTERY = battery_argv(GOLDEN)
# reports whose floats drifted in their last bits from the corpus, within
# compare's relative 1e-9; every other report must match byte for byte
DRIFTED = ("03-decay.json", "05-dual-verify.json", "07-uncertainty.json")


@pytest.mark.parametrize("name,argv", BATTERY, ids=[name for name, _ in BATTERY])
def test_report_matches_golden(name, argv):
    code, text = run_cli(restrictlab, argv)
    assert code == EXPECTED_EXIT
    want = (GOLDEN / name).read_text(encoding="utf-8")
    assert compare(want, text, name.rsplit(".", 1)[1]) is None
    if name not in DRIFTED:
        assert text == want
