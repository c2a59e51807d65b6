"""Unit tests for the network factories."""

import pytest

from repro.exceptions import ConfigurationError
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.dense import Dense
from repro.training import build_lenet, build_mlp, build_vggnet


class TestMlp:
    def test_structure(self):
        model = build_mlp(10, 4, hidden=(8, 6), seed=1)
        assert model.built
        dense_layers = [l for l in model.layers if isinstance(l, Dense)]
        assert [l.units for l in dense_layers] == [8, 6, 4]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_mlp(0, 3)
        with pytest.raises(ConfigurationError):
            build_mlp(4, 1)


class TestLenet:
    def test_structure(self):
        model = build_lenet(seed=1)
        convs = [l for l in model.layers if isinstance(l, Conv2D)]
        denses = [l for l in model.layers if isinstance(l, Dense)]
        assert len(convs) == 2 and len(denses) == 2
        assert convs[0].kernel_size == 5  # LeNet-5 style first layer

    def test_output_matches_classes(self):
        model = build_lenet(n_classes=7, seed=2)
        assert model.layers[-1].output_shape() == (7,)

    def test_forward_shape(self, rng):
        model = build_lenet(seed=3)
        out = model.forward(rng.normal(size=(2, 1, 12, 12)))
        assert out.shape == (2, 10)

    def test_deterministic_init(self):
        import numpy as np

        a = build_lenet(seed=9).all_weight_values()
        b = build_lenet(seed=9).all_weight_values()
        np.testing.assert_array_equal(a, b)


class TestVggnet:
    def test_structure_conv_heavy(self):
        """The VGG role needs more conv than FC capacity (Fig. 11)."""
        model = build_vggnet(seed=1)
        convs = [l for l in model.layers if isinstance(l, Conv2D)]
        denses = [l for l in model.layers if isinstance(l, Dense)]
        assert len(convs) == 5 and len(denses) == 2
        conv_params = sum(p.size for l in convs for p in l.params.values())
        dense_params = sum(p.size for l in denses for p in l.params.values())
        assert conv_params > dense_params

    def test_width_doubling(self):
        model = build_vggnet(width=4, seed=2)
        convs = [l for l in model.layers if isinstance(l, Conv2D)]
        assert [c.filters for c in convs] == [4, 4, 8, 8, 16]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            build_vggnet(width=0)

    def test_forward_shape(self, rng):
        model = build_vggnet(width=4, n_classes=20, seed=3)
        out = model.forward(rng.normal(size=(2, 1, 16, 16)))
        assert out.shape == (2, 20)
