"""Weight initializers.

Each initializer is a small callable object: ``init(shape, rng)`` returns
a float64 array.  ``fan_in``/``fan_out`` follow the usual convention —
for a dense kernel of shape ``(in, out)`` they are ``in`` and ``out``;
for a conv kernel of shape ``(out_ch, in_ch, kh, kw)`` they are
``in_ch*kh*kw`` and ``out_ch*kh*kw``.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError
from repro.rng import SeedLike, ensure_rng


def compute_fans(shape: Sequence[int]) -> Tuple[int, int]:
    """Return ``(fan_in, fan_out)`` for a kernel of ``shape``."""
    shape = tuple(int(s) for s in shape)
    if len(shape) < 1:
        raise ConfigurationError("initializer shape must have at least 1 dim")
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    out_ch, in_ch = shape[0], shape[1]
    return in_ch * receptive, out_ch * receptive


class Initializer:
    """Base class: subclasses implement :meth:`__call__`."""

    def __call__(self, shape: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class ZerosInit(Initializer):
    """All-zero init (used for biases)."""

    def __call__(self, shape: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        return np.zeros(shape, dtype=np.float64)


class _VarianceScaling(Initializer):
    """Shared machinery for Glorot/He/LeCun families."""

    #: ("fan_in" | "fan_out" | "fan_avg", gain, "normal" | "uniform")
    mode = "fan_avg"
    gain = 1.0
    distribution = "normal"

    def __call__(self, shape: Sequence[int], rng: SeedLike = None) -> np.ndarray:
        rng = ensure_rng(rng)
        fan_in, fan_out = compute_fans(shape)
        if self.mode == "fan_in":
            scale_fan = fan_in
        elif self.mode == "fan_out":
            scale_fan = fan_out
        else:
            scale_fan = (fan_in + fan_out) / 2.0
        variance = self.gain / max(1.0, scale_fan)
        if self.distribution == "uniform":
            limit = math.sqrt(3.0 * variance)
            return rng.uniform(-limit, limit, size=shape)
        return rng.normal(0.0, math.sqrt(variance), size=shape)


class GlorotNormal(_VarianceScaling):
    """Glorot/Xavier normal: ``std = sqrt(2/(fan_in+fan_out))``."""

    mode, gain, distribution = "fan_avg", 1.0, "normal"


class GlorotUniform(_VarianceScaling):
    """Glorot/Xavier uniform: ``limit = sqrt(6/(fan_in+fan_out))``."""

    mode, gain, distribution = "fan_avg", 1.0, "uniform"


class HeNormal(_VarianceScaling):
    """He normal (for ReLU): ``std = sqrt(2/fan_in)``."""

    mode, gain, distribution = "fan_in", 2.0, "normal"


class HeUniform(_VarianceScaling):
    """He uniform: ``limit = sqrt(6/fan_in)``."""

    mode, gain, distribution = "fan_in", 2.0, "uniform"


class LeCunNormal(_VarianceScaling):
    """LeCun normal (for tanh/selu): ``std = sqrt(1/fan_in)``."""

    mode, gain, distribution = "fan_in", 1.0, "normal"


_REGISTRY = {
    "zeros": ZerosInit,
    "glorot_normal": GlorotNormal,
    "glorot_uniform": GlorotUniform,
    "he_normal": HeNormal,
    "he_uniform": HeUniform,
    "lecun_normal": LeCunNormal,
}


def get_initializer(name_or_init) -> Initializer:
    """Resolve a string name or pass through an :class:`Initializer`.

    >>> get_initializer("he_normal")
    HeNormal()
    """
    if isinstance(name_or_init, Initializer):
        return name_or_init
    try:
        return _REGISTRY[str(name_or_init).lower()]()
    except KeyError:
        raise ConfigurationError(
            f"unknown initializer {name_or_init!r}; choose from {sorted(_REGISTRY)}"
        ) from None
