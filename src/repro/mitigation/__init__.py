"""Counter-aging baselines from the paper's related work (Section I).

The paper positions its framework against prior mitigation families
and argues they act "with a gross granularity" or cost extra hardware.
To make that comparison runnable, this package implements behavioural
models of the two device-level ones:

* :class:`PulseShaping` — programming with triangular/sinusoidal
  voltage waveforms (paper ref [9]): the average applied voltage is
  lower, so each pulse stresses less, but reaching the target takes
  more pulses.
* :class:`SeriesResistor` — a resistor in series with each cell (paper
  ref [11]) suppresses irregular voltage overshoot: write noise and
  stress drop, at the cost of a compressed usable conductance range
  (part of the voltage headroom is lost across the resistor).
Both are pure ``DeviceConfig -> DeviceConfig`` transforms with no hook
into the lifetime engine, so
``benchmarks/test_ext_mitigation_comparison.py`` can put them on the
same axis as the paper's ST/AT techniques.
"""

from repro.mitigation.pulse_shaping import PULSE_SHAPES, PulseShaping
from repro.mitigation.series_resistor import SeriesResistor

__all__ = ["PULSE_SHAPES", "PulseShaping", "SeriesResistor"]
