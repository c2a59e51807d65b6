"""Smoke tests: every example script must run end to end.

Examples are the first thing a new user executes; breaking one silently
is worse than a failing unit test.  Each example's ``main`` is invoked
in-process (fast paths where available) and must complete without
raising and print its headline output.
"""

import runpy
import sys

import pytest


@pytest.fixture()
def argv_guard():
    saved = sys.argv[:]
    yield
    sys.argv = saved


def run_example(path: str, capsys, extra_argv=()):
    sys.argv = [path, *extra_argv]
    runpy.run_path(path, run_name="__main__")
    return capsys.readouterr().out


class TestExamples:
    def test_quickstart(self, capsys, argv_guard):
        out = run_example("examples/quickstart.py", capsys)
        assert "software accuracy" in out
        assert "after online tuning" in out

    def test_device_playground(self, capsys, argv_guard):
        out = run_example("examples/device_playground.py", capsys)
        assert "cell died after" in out
        assert "quantization error" in out
        assert "aged window" in out

    def test_skewed_training_demo(self, capsys, argv_guard):
        out = run_example("examples/skewed_training_demo.py", capsys)
        assert "conventional training (T)" in out
        assert "skewed training (ST)" in out
        assert "median mapped resistance" in out

    @pytest.mark.slow
    def test_lifetime_comparison_fast(self, capsys, argv_guard):
        out = run_example("examples/lifetime_comparison.py", capsys, ("--fast",))
        assert "Table I (lifetime)" in out
        assert "T+T" in out and "ST+AT" in out
