"""Every scheme's price, pinned bit for bit.

``tests/data/scheme_costs.json`` holds one SHA-256 per candidate-grid
scheme over every :class:`SchemeCost` field (type, shape and bytes) on
every zoo model at four world sizes, under the default profile and an
array-valued (grid) ``scaled`` profile.  A change that moves any price
by one ulp, or turns an ``int`` field into a ``float``, changes a
digest.  Regenerate the file only for an intended price change:

    PYTHONPATH=src python -m tests.test_scheme_cost_pins > tests/data/scheme_costs.json
"""

import hashlib
import json
import pathlib

import numpy as np
import pytest

from repro.analysis import candidate_grid
from repro.compression import v100_kernel_profile
from repro.models import get_model

PINS = pathlib.Path(__file__).parent / "data" / "scheme_costs.json"
#: The built-in zoo, named: tests register more models as they run.
MODELS = ("bert-base", "bert-large", "gpt2-small", "resnet101", "resnet152",
          "resnet50", "vgg16")
WORLD_SIZES = (1, 2, 16, 96)
FIELDS = ("wire_bytes", "messages", "encode_decode_s", "all_reducible",
          "gather_stack_bytes")
GRID_FACTORS = np.array([0.5, 1.0, 3.0])


def scheme_key(scheme):
    """``name:param=value,...``: unique where labels are not (two DGC
    fractions both print as ``dgc(0.1%)``)."""
    params = ",".join(f"{k}={v!r}" for k, v in sorted(vars(scheme).items()))
    return f"{scheme.name}:{params}"


def cost_digest(scheme):
    base = v100_kernel_profile()
    digest = hashlib.sha256()
    for model_name in MODELS:
        model = get_model(model_name)
        for profile in (base, base.scaled(GRID_FACTORS)):
            for p in WORLD_SIZES:
                cost = scheme.cost(model, p, profile)
                for field in FIELDS:
                    value = getattr(cost, field)
                    array = np.asarray(value)
                    digest.update(f"{type(value).__name__}{array.dtype}"
                                  f"{array.shape};".encode())
                    digest.update(array.tobytes())
    return digest.hexdigest()


def current_digests():
    digests = {}
    for scheme in candidate_grid():
        digests.setdefault(scheme_key(scheme), cost_digest(scheme))
    return digests


@pytest.mark.parametrize("scheme", candidate_grid(), ids=scheme_key)
def test_scheme_cost_matches_pinned_bits(scheme):
    pins = json.loads(PINS.read_text())
    assert cost_digest(scheme) == pins[scheme_key(scheme)]


def test_every_candidate_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == sorted(current_digests())


if __name__ == "__main__":
    print(json.dumps(current_digests(), indent=1, sort_keys=True))
