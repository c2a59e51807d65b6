"""Dataset substrate.

The paper evaluates on Cifar10/Cifar100, which cannot be downloaded in
this offline environment.  This package provides procedurally generated
substitutes that preserve the properties the paper's method relies on:

* image classification workloads that train to a quasi-normal weight
  distribution (the starting point of the skewed-training argument);
* a *small/easy* task (:func:`make_glyph_digits`, 10 classes — the
  LeNet-5/Cifar10 role) and a *harder, more-classes* task
  (:func:`make_textured_shapes` — the VGG-16/Cifar100 role);
* laptop-scale sizes so the full lifetime simulations run in minutes on
  one CPU core.

Toy Gaussian blobs (:func:`make_blobs`) support the unit tests, the
``blobs-*`` presets and the quickstart example.
"""

from repro.data.dataset import Dataset, one_hot, train_test_split
from repro.data.glyphs import GLYPH_CLASS_NAMES, make_glyph_digits, render_glyph
from repro.data.shapes import SHAPE_CLASS_NAMES, make_textured_shapes, render_shape
from repro.data.synthetic import make_blobs

__all__ = [
    "Dataset",
    "GLYPH_CLASS_NAMES",
    "SHAPE_CLASS_NAMES",
    "make_blobs",
    "make_glyph_digits",
    "make_textured_shapes",
    "one_hot",
    "render_glyph",
    "render_shape",
    "train_test_split",
]
