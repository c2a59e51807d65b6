"""Layer implementations for the numpy NN substrate."""

from repro.nn.layers.activation import Activation
from repro.nn.layers.base import Layer, ParamLayer
from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.nn.layers.dense import Dense
from repro.nn.layers.pool import MaxPool2D
from repro.nn.layers.reshape import Flatten

__all__ = [
    "Activation",
    "Conv2D",
    "Dense",
    "Flatten",
    "Layer",
    "MaxPool2D",
    "ParamLayer",
    "col2im",
    "im2col",
]
