"""Layout contract: the layers of a training step hand on C-contiguous arrays.

``Conv2D.forward`` copies its channels-last GEMM result into a
C-contiguous NCHW array, so the activation, max-pool and flatten after
it, and the gradients that flow back into them, all share one memory
layout.  An elementwise pass over a transposed view and a contiguous
gradient costs about four times one over matching layouts, so a later
"free" view out of any of these layers must fail here rather than
quietly bring that cost back.  Checked on one ``compute_gradients``
step of each shipped network.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np
import pytest

from repro.nn import Activation, Conv2D, MaxPool2D
from repro.training import build_lenet, build_vggnet

#: name -> (seeded network, sample shape, classes).
NETWORKS = {
    "lenet": (lambda: build_lenet(seed=0), (1, 12, 12), 10),
    "vggnet": (lambda: build_vggnet(width=6, seed=0), (1, 16, 16), 20),
}


def _record(monkeypatch, seen: List[Tuple[str, np.ndarray]]) -> None:
    """Keep every forward output of the three layer kinds, and every
    input gradient an activation or a pool hands back."""
    methods = [(cls, "forward") for cls in (Conv2D, Activation, MaxPool2D)]
    methods += [(Activation, "backward"), (MaxPool2D, "backward")]
    for cls, name in methods:
        real = getattr(cls, name)

        def recorded(self, *args, _real=real, _name=f"{cls.__name__}.{name}", **kw):
            out = _real(self, *args, **kw)
            seen.append((_name, out))
            return out

        monkeypatch.setattr(cls, name, recorded)


@pytest.mark.parametrize("name", sorted(NETWORKS))
def test_training_step_outputs_are_c_contiguous(name, monkeypatch):
    build, shape, classes = NETWORKS[name]
    model = build()
    rng = np.random.default_rng(1)
    x = rng.normal(size=(8, *shape))
    y = np.eye(classes)[rng.integers(0, classes, size=8)]
    seen: List[Tuple[str, np.ndarray]] = []
    _record(monkeypatch, seen)
    model.compute_gradients(x, y)
    kinds = {kind for kind, _ in seen}
    assert {"Conv2D.forward", "Activation.forward", "MaxPool2D.forward"} <= kinds
    assert {"Activation.backward", "MaxPool2D.backward"} <= kinds
    for kind, out in seen:
        assert out.flags.c_contiguous, (name, kind, out.shape, out.strides)
