import struct
from pathlib import Path

import numpy as np
import pytest

from crossadapt.model import ExtractorConfig, LdeConfig, Model, ModelConfig, SubnetConfig


def micro_config(input_dim=4, width=4, context=(0, 1, 0, 0), num_domains=2, num_speakers=3):
    """A tiny model configuration for gradient checks and unit tests."""
    return ModelConfig(
        extractor=ExtractorConfig(input_dim=input_dim, group_dims=(width,) * 4, context=context),
        lde=LdeConfig(num_components=2, component_dim=width),
        subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=num_domains),
        num_speakers=num_speakers,
    )


def set_arch_entry(path, slot, value):
    """Overwrite one float32 slot of a checkpoint's architecture record."""
    blob = bytearray(Path(path).read_bytes())
    at = blob.index(b"arch") + 4 + 1 + 4 + 4 * slot  # past the name, rank and one dim
    blob[at : at + 4] = struct.pack("<f", value)
    Path(path).write_bytes(bytes(blob))


def jitter_params(model, seed=999, scale=0.1):
    """Nudge every parameter off its init so fresh-model activations cannot
    collapse to exact zeros at unit-test widths."""
    stream = np.random.default_rng(seed)
    for name in sorted(model.params):
        model.params[name] += scale * stream.normal(size=model.params[name].shape)
    return model


@pytest.fixture
def micro_model():
    return Model.create(micro_config(), seed=123, with_subnets=True)


@pytest.fixture
def generic_model():
    return jitter_params(Model.create(micro_config(), seed=123, with_subnets=True))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
