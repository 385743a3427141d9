"""Per-model scheme-cost tables against the per-layer walks they replaced.

PowerSGD, ATOMO and the hybrid policy price a model from one table of
its trainable layers (``repro.compression.kernel_cost``), folding the
per-layer terms with a sequential ``cumsum``.  ``tests/oracle.py``
keeps the walks they replaced; every :class:`SchemeCost` field must
equal the walk's bit for bit, for every model, every candidate scheme
and the default menu, at several world sizes, under the default, a
scaled and an array-valued (grid) profile — on a model's first call as
well as on a repeat.
"""

import pickle

import numpy as np
import pytest

from repro.analysis import candidate_grid
from repro.compression import ATOMOScheme, PowerSGDScheme
from repro.compression.hybrid import HybridPowerSGDScheme
from repro.compression.kernel_cost import (
    atomo_encode_decode_time,
    powersgd_encode_decode_time,
    v100_kernel_profile,
)
from repro.core.advisor import default_candidates
from repro.errors import ConfigurationError
from repro.models import available_models, get_model

from . import oracle

WORLD_SIZES = (1, 8, 16, 32, 64)
FIELDS = ("wire_bytes", "messages", "encode_decode_s", "all_reducible",
          "gather_stack_bytes")


def schemes():
    return candidate_grid() + default_candidates()


def profiles(rng):
    """The default profile, a scaled one, and the grid's array-valued
    profiles along a 1-D and a 2-D compute-factor axis."""
    base = v100_kernel_profile()
    factors = rng.uniform(0.25, 8.0, size=3)
    return {
        "default": base,
        "scaled": base.scaled(float(rng.uniform(0.5, 4.0))),
        "array": base.scaled(factors),
        "array-2d": base.scaled(factors.reshape(3, 1) * [1, 2]),
    }


def assert_same_bits(got, want, context):
    for field in FIELDS:
        g, w = getattr(got, field), getattr(want, field)
        assert type(g) is type(w), (context, field, type(g), type(w))
        g, w = np.asarray(g), np.asarray(w)
        assert g.shape == w.shape, (context, field)
        assert g.tobytes() == w.tobytes(), (context, field, g, w)


@pytest.mark.parametrize("model_name", available_models())
def test_scheme_costs_match_layer_walks_bit_for_bit(model_name):
    rng = np.random.default_rng([25, available_models().index(model_name)])
    # A pickled copy is a fresh spec object, so its tables are built by
    # the first call below: first calls and repeats are both checked.
    model = pickle.loads(pickle.dumps(get_model(model_name)))
    for label, profile in profiles(rng).items():
        for scheme in schemes():
            for p in WORLD_SIZES:
                context = (model_name, label, scheme.label, p)
                want = oracle.scheme_cost_oracle(scheme, model, p, profile)
                assert_same_bits(scheme.cost(model, p, profile), want,
                                 context)


@pytest.mark.parametrize("model_name", available_models())
def test_random_ranks_and_thresholds(model_name):
    """Ranks and hybrid thresholds off the candidate grid, including
    ranks above every layer's smaller side, ranks and thresholds beyond
    int64, and a threshold no layer meets (the hybrid sends everything
    dense in one message)."""
    rng = np.random.default_rng([2501, available_models().index(model_name)])
    model = get_model(model_name)
    profile = v100_kernel_profile()
    for _ in range(8):
        rank = [1, int(rng.integers(1, 64)), 4096, 10**30][
            int(rng.integers(0, 4))]
        p = int(rng.integers(1, 129))
        threshold = [0, int(rng.integers(1, 2_000_000)), 10**12, 10**30][
            int(rng.integers(0, 4))]
        for scheme in (PowerSGDScheme(rank=rank), ATOMOScheme(rank=rank),
                       HybridPowerSGDScheme(rank=rank,
                                            min_layer_params=threshold)):
            assert_same_bits(scheme.cost(model, p, profile),
                             oracle.scheme_cost_oracle(scheme, model, p,
                                                       profile),
                             (model_name, scheme.label, p))


def test_layer_cost_functions_match_and_validate():
    model = get_model("resnet50")
    profile = v100_kernel_profile()
    for rank in (1, 4, 16):
        assert powersgd_encode_decode_time(model, rank, profile) == \
            oracle.powersgd_encode_decode_oracle(model, rank, profile)
    with pytest.raises(ConfigurationError, match="rank"):
        powersgd_encode_decode_time(model, 0, profile)
    with pytest.raises(ConfigurationError, match="rank"):
        atomo_encode_decode_time(model, 0, profile, 4)
    with pytest.raises(ConfigurationError, match="world_size"):
        atomo_encode_decode_time(model, 4, profile, 0)
