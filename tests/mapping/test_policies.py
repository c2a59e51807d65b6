"""Unit tests for the fresh-window map and the aging-aware mapping policy."""

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.mapping import AgingAwareMapper, MappedNetwork
from repro.mapping.aging_aware import RangeSelection


@pytest.fixture()
def mapped_layer(mapped_mlp):
    return mapped_mlp.layers[0]


class TestFreshMap:
    def test_sets_nominal_window_on_every_layer(self, mapped_mlp):
        cfg = mapped_mlp.device_config
        for mapped in mapped_mlp.layers:
            mapped.set_range(2.0 * cfg.r_min, 0.5 * cfg.r_max)
        mapped_mlp.map_network()
        assert len(mapped_mlp.layers) == 2
        for mapped in mapped_mlp.layers:
            assert mapped.mapping.g_min == 1.0 / cfg.r_max
            assert mapped.mapping.g_max == 1.0 / cfg.r_min


class TestAgingAwareMapper:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            AgingAwareMapper(max_candidates=0)
        with pytest.raises(ConfigurationError):
            AgingAwareMapper(selection_batch=0)
        with pytest.raises(ConfigurationError):
            AgingAwareMapper(tie_tolerance=-1.0)
        with pytest.raises(ConfigurationError):
            AgingAwareMapper(min_levels=1)

    def test_untraced_layer_offers_only_rmax(self, mapped_layer):
        """With no traced device there is no aging evidence, so the one
        candidate is the fresh ``R_max``."""

        class Untraced:
            device_config = mapped_layer.device_config

            @staticmethod
            def traced_upper_bounds():
                return np.empty(0)

        assert AgingAwareMapper().candidate_uppers(Untraced()) == [
            mapped_layer.device_config.r_max
        ]

    def test_fresh_array_has_single_rmax_candidate(self, trained_mlp, device_config):
        """Level-snapped candidates: while no level has been consumed,
        the only candidate is R_max and the policy equals fresh
        mapping.  (An unprogrammed network — any pulse at all costs the
        topmost level.)"""
        net = MappedNetwork(trained_mlp, device_config, seed=21)
        mapper = AgingAwareMapper()
        candidates = mapper.candidate_uppers(net.layers[0])
        assert candidates == [device_config.r_max]

    def test_aged_array_offers_lower_candidates(self, mapped_mlp):
        layer = mapped_mlp.layers[0]
        # Age the devices heavily with low-resistance programming.
        low = np.full(layer.matrix_shape, layer.device_config.r_min)
        for _ in range(60):
            layer.tiles.program_targets(low, only_changed=False)
            layer.tiles.program_targets(low * 2.0, only_changed=False)
        candidates = AgingAwareMapper().candidate_uppers(layer)
        assert min(candidates) < layer.device_config.r_max

    def test_candidates_capped(self, mapped_mlp, rng):
        layer = mapped_mlp.layers[0]
        for _ in range(40):
            directions = (rng.random(layer.matrix_shape) < 0.5).astype(int)
            layer.tiles.program_pulses(directions)
        mapper = AgingAwareMapper(max_candidates=3)
        assert len(mapper.candidate_uppers(layer)) <= 3

    def test_select_with_score_picks_best(self, mapped_mlp, rng):
        layer = mapped_mlp.layers[0]
        for _ in range(50):
            directions = (rng.random(layer.matrix_shape) < 0.5).astype(int)
            layer.tiles.program_pulses(directions)
        mapper = AgingAwareMapper(tie_tolerance=0.0)
        candidates = mapper.candidate_uppers(layer)
        target = candidates[len(candidates) // 2]

        def score(_lo, hi):
            return 1.0 if hi == target else 0.0

        lo, chosen = mapper.select_range(layer, score)
        assert lo == layer.device_config.r_min
        assert chosen == target
        assert isinstance(mapper.history[-1], RangeSelection)
        assert mapper.history[-1].best_score() == 1.0

    def test_tie_break_prefers_largest(self, mapped_mlp, rng):
        layer = mapped_mlp.layers[0]
        for _ in range(50):
            directions = (rng.random(layer.matrix_shape) < 0.5).astype(int)
            layer.tiles.program_pulses(directions)
        mapper = AgingAwareMapper()
        candidates = mapper.candidate_uppers(layer)
        _lo, chosen = mapper.select_range(layer, lambda _l, _h: 0.5)
        assert chosen == max(candidates)
