"""Weight initializers: He-normal for conv kernels, Glorot-uniform for
dense kernels.  Biases start at zero.

``fan_in``/``fan_out`` follow the usual convention — for a dense kernel
of shape ``(in, out)`` they are ``in`` and ``out``; for a conv kernel of
shape ``(out_ch, in_ch, kh, kw)`` they are ``in_ch*kh*kw`` and
``out_ch*kh*kw``.
"""

from __future__ import annotations

import math
from typing import Sequence, Tuple

import numpy as np

from repro.exceptions import ConfigurationError


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


def he_normal(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """He normal (for ReLU): ``std = sqrt(2/fan_in)``."""
    variance = 2.0 / max(1.0, compute_fans(shape)[0])
    return rng.normal(0.0, math.sqrt(variance), size=shape)


def glorot_uniform(shape: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """Glorot/Xavier uniform: ``limit = sqrt(6/(fan_in+fan_out))``."""
    fan_in, fan_out = compute_fans(shape)
    variance = 1.0 / max(1.0, (fan_in + fan_out) / 2.0)
    limit = math.sqrt(3.0 * variance)
    return rng.uniform(-limit, limit, size=shape)
