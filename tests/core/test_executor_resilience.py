"""Executor hardening: crash isolation and bounded rebuilds.

Complements ``test_executor.py`` (which pins parallel == serial
equivalence and basic failure surfacing) with the resilience contract:
a hard-crashing worker fails its own chunk without hanging the pool or
taking the other chunks down, and pool rebuilds are bounded.
"""

import os

import pytest

from repro.core import ParallelExecutor, Task


# -- task bodies (module-level so the pool can ship them) ---------------------
def _square(x):
    return x * x


def _die(_x):
    os._exit(3)  # simulate a hard worker crash (segfault/OOM-kill)


class TestPermanentCrasher:
    def test_crasher_fails_its_chunk_siblings_survive(self):
        # Four tasks over two workers go out as four one-task chunks.
        # The pool cannot name the chunk whose worker died and charges
        # the first unfinished one, so the crasher goes first here.
        tasks = [Task(key="poison", fn=_die, args=(0,))] + [
            Task(key=f"good-{i}", fn=_square, args=(i,)) for i in (2, 3, 4)
        ]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        poison = outcomes[0]
        assert not poison.ok
        assert "Broken" in poison.error or "abruptly" in poison.error
        assert poison.perf is None  # the body never reported
        assert [o.value for o in outcomes[1:]] == [4, 9, 16]
        assert all(o.ok for o in outcomes[1:])

    def test_pool_rebuilds_are_bounded(self):
        # Every rebuilt pool dies again: each break charges one chunk,
        # and after three rebuilds the chunks still waiting fail too.
        tasks = [Task(key=f"poison-{i}", fn=_die, args=(i,)) for i in range(6)]
        outcomes = ParallelExecutor(workers=2).run(tasks)
        assert not any(o.ok for o in outcomes)
        for charged in outcomes[:4]:
            assert "Broken" in charged.error or "abruptly" in charged.error
        for given_up in outcomes[4:]:
            assert "after 3 rebuilds" in given_up.error

    def test_reraise_propagates_broken_pool(self):
        with pytest.raises(Exception, match="abruptly|Broken"):
            ParallelExecutor(workers=2).run(
                [Task(key="poison", fn=_die, args=(0,))], reraise=True
            )

