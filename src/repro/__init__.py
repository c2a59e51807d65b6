"""repro — Aging-aware lifetime enhancement for memristor crossbars.

A from-scratch Python reproduction of *"Aging-aware Lifetime Enhancement
for Memristor-based Neuromorphic Computing"* (Zhang, Zhang, Li, Li,
Schlichtmann — DATE 2019).

Subpackages
-----------
``repro.nn``
    Numpy neural-network training substrate (layers, losses, optimizers,
    and the paper's two-segment skewed regularizer).
``repro.data``
    Procedural image/vector datasets (offline Cifar stand-ins).
``repro.device``
    Device config, Arrhenius aging (Eq. 6–7), quantized level grids.
``repro.crossbar``
    Array simulator: programming with per-pulse aging, noisy read-out,
    1-of-9 block tracing, tiling.
``repro.mapping``
    Eq. (4) weight↔conductance mapping, fresh and aging-aware policies,
    and :class:`~repro.mapping.network.MappedNetwork`.
``repro.tuning``
    Sign-based online tuning (Eq. 5) with iteration budgets.
``repro.training``
    Baseline and skewed software training, network factories.
``repro.core``
    The paper's contribution: scenarios T+T / ST+T / ST+AT, the
    lifetime simulator and the Fig. 5 framework.
``repro.analysis``
    Distribution/trajectory analyses and ASCII reporting.

Quickstart
----------
>>> from repro import (make_glyph_digits, build_lenet,
...                    AgingAwareFramework, FrameworkConfig)
>>> data = make_glyph_digits(n_train=400, n_test=100, seed=1)
>>> framework = AgingAwareFramework(
...     lambda seed: build_lenet(seed=seed), data, seed=7)
>>> # comparison = framework.compare()   # runs T+T / ST+T / ST+AT
"""

from repro.core import (
    SCENARIOS,
    AgingAwareFramework,
    FrameworkConfig,
    LifetimeConfig,
    LifetimeResult,
    LifetimeSimulator,
    Scenario,
    ScenarioComparison,
)
from repro.crossbar import BlockTracer, Crossbar, TiledMatrix
from repro.data import Dataset, make_blobs, make_glyph_digits, make_textured_shapes
from repro.device import AgingParams, ArrheniusAging, DeviceConfig, LevelGrid
from repro.exceptions import (
    ConfigurationError,
    ConvergenceError,
    ReproError,
    ShapeError,
)
from repro.mapping import (
    AgingAwareMapper,
    FreshMapper,
    LinearWeightMapping,
    MappedNetwork,
)
from repro.io import (
    load_comparison,
    load_result,
    load_weights,
    save_comparison,
    save_result,
    save_weights,
)
from repro.mitigation import PulseShaping, SeriesResistor
from repro.nn import Sequential, SkewedL2Regularizer
from repro.training import (
    SkewedTrainingConfig,
    TrainConfig,
    build_lenet,
    build_mlp,
    build_vggnet,
    skewed_train,
    train_baseline,
)
from repro.tuning import OnlineTuner, TuningConfig, TuningResult

__version__ = "1.0.0"

__all__ = [
    "AgingAwareFramework",
    "AgingAwareMapper",
    "AgingParams",
    "ArrheniusAging",
    "BlockTracer",
    "ConfigurationError",
    "ConvergenceError",
    "Crossbar",
    "Dataset",
    "DeviceConfig",
    "FrameworkConfig",
    "FreshMapper",
    "LevelGrid",
    "LifetimeConfig",
    "LifetimeResult",
    "LifetimeSimulator",
    "LinearWeightMapping",
    "MappedNetwork",
    "OnlineTuner",
    "PulseShaping",
    "ReproError",
    "SeriesResistor",
    "SCENARIOS",
    "Scenario",
    "ScenarioComparison",
    "Sequential",
    "ShapeError",
    "SkewedL2Regularizer",
    "SkewedTrainingConfig",
    "TiledMatrix",
    "TrainConfig",
    "TuningConfig",
    "TuningResult",
    "build_lenet",
    "build_mlp",
    "build_vggnet",
    "load_comparison",
    "load_result",
    "load_weights",
    "make_blobs",
    "make_glyph_digits",
    "make_textured_shapes",
    "save_comparison",
    "save_result",
    "save_weights",
    "skewed_train",
    "train_baseline",
    "__version__",
]
