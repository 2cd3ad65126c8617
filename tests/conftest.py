import ctypes
import dataclasses
import glob
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crossadapt.corpus import CorpusConfig, CorpusManifest, read_features, write_features
from crossadapt.model import ExtractorConfig, LdeConfig, Model, ModelConfig, SubnetConfig


def micro_config(input_dim=4, width=4, context=(0, 1, 0, 0), num_domains=2, num_speakers=3):
    """A tiny model configuration for gradient checks and unit tests."""
    return ModelConfig(
        extractor=ExtractorConfig(input_dim=input_dim, group_dims=(width,) * 4, context=context),
        lde=LdeConfig(num_components=2, component_dim=width),
        subnet=SubnetConfig(front_dims=(5, 4), back_dims=(4, 3), num_domains=num_domains),
        num_speakers=num_speakers,
    )


def recipe(num_speakers, utts_per_speaker, frames_per_utt, domains, input_dim=20, identity_dim=16,
           id_scale=1.0, sess_scale=0.2, frame_sd=0.5, ar_rho=0.7):
    """A corpus recipe for ``gen_corpus``.  The defaults are the constants
    the unit tests' small corpora have always been generated with; the CLI
    and the acceptance chains take theirs from ``config.SCHEMA``."""
    return CorpusConfig(num_speakers, utts_per_speaker, frames_per_utt, input_dim, identity_dim,
                        id_scale, sess_scale, frame_sd, ar_rho, tuple(domains))


def record_frames(root, manifest, record):
    """``record``'s frames, found by the layout rule alone: its rows follow
    those of the records before it in ``manifest`` that name its file."""
    start = 0
    for r in manifest.records:
        if r.utt_id == record.utt_id:
            return read_features(Path(root) / r.relpath)[start : start + r.frames]
        if r.relpath == record.relpath:
            start += r.frames
    raise KeyError(record.utt_id)


def unpack_corpus(root, manifest, out):
    """Rewrite the corpus at ``root`` under ``out`` with one feature file per
    record, ``d<N>/<utt_id>.xdaf`` (the layout of older corpora), from the
    same frames; returns the new manifest, which ``out`` also holds."""
    out = Path(out)
    records = []
    for r in manifest.records:
        relpath = f"d{r.domain_id}/{r.utt_id}.xdaf"
        (out / relpath).parent.mkdir(parents=True, exist_ok=True)
        write_features(out / relpath, record_frames(root, manifest, r))
        records.append(dataclasses.replace(r, relpath=relpath))
    unpacked = CorpusManifest(manifest.seed, manifest.num_speakers, manifest.fingerprint, records)
    unpacked.save(out / "manifest.tsv")
    return unpacked


def default_like_config():
    """The default trunk: 20 input dims, four 24-wide groups with context
    (2, 1, 1, 0), 8 components and 64/64/32/32 subnets over 3 domains."""
    return ModelConfig(
        extractor=ExtractorConfig(20, (24, 24, 24, 24), (2, 1, 1, 0)),
        lde=LdeConfig(num_components=8, component_dim=24),
        subnet=SubnetConfig(front_dims=(64, 64), back_dims=(32, 32), num_domains=3),
        num_speakers=3,
    )


def set_arch_entry(path, slot, value):
    """Overwrite one float32 slot of a checkpoint's architecture record."""
    blob = bytearray(Path(path).read_bytes())
    at = blob.index(b"arch") + 4 + 1 + 4 + 4 * slot  # past the name, rank and one dim
    blob[at : at + 4] = struct.pack("<f", value)
    Path(path).write_bytes(bytes(blob))


def duplicate_tensor(path, name):
    """List tensor ``name`` of a checkpoint twice: a copy with an all-zero
    payload follows the stored one, and the tensor count grows by one."""
    blob = bytearray(Path(path).read_bytes())
    key = struct.pack("<H", len(name)) + name.encode("utf-8")
    at = blob.index(key)
    rank = blob[at + len(key)]
    header = len(key) + 1 + 4 * rank
    size = 4 * int(np.prod(struct.unpack_from(f"<{rank}I", blob, at + len(key) + 1)))
    blob[at + header + size : at + header + size] = blob[at : at + header] + bytes(size)
    count_at = 4 + 4 + 1 + 8  # past the magic, version, stage and step
    struct.pack_into("<I", blob, count_at, struct.unpack_from("<I", blob, count_at)[0] + 1)
    Path(path).write_bytes(bytes(blob))


def jitter_params(model, seed=999, scale=0.1):
    """Nudge every parameter off its init so fresh-model activations cannot
    collapse to exact zeros at unit-test widths."""
    stream = np.random.default_rng(seed)
    for name in sorted(model.params):
        model.params[name] += scale * stream.normal(size=model.params[name].shape)
    return model


# OPENBLAS_CORETYPE values of x86-64 kernel sets a DYNAMIC_ARCH OpenBLAS may
# hold; a host runs those its CPU can
BLAS_KERNELS = ("Katmai", "Nehalem", "Sandybridge", "Haswell", "Zen", "SkylakeX", "CooperLake", "SapphireRapids")


def blas_corename():
    """The name of the OpenBLAS kernel set this process runs, or None where
    numpy's BLAS is not scipy-openblas."""
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*")):
        fn = getattr(ctypes.CDLL(lib), "scipy_openblas_get_corename64_", None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_char_p
            return fn().decode()
    return None


def run_under_kernel(kernel, code):
    """Run the Python ``code`` in a new process whose OpenBLAS takes the
    ``kernel`` kernels; returns its stdout, or None where the host does not
    run them (OpenBLAS then falls back to another kernel set).  The process
    imports ``crossadapt`` and these test modules; an assertion that fails
    in it fails here with its output."""
    tests = Path(__file__).resolve().parent
    env = dict(os.environ, OPENBLAS_CORETYPE=kernel,
               PYTHONPATH=os.pathsep.join([str(tests.parent / "src"), str(tests)]))
    check = f"import sys, conftest\nif conftest.blas_corename() != {kernel!r}: sys.exit(3)\n"
    done = subprocess.run([sys.executable, "-c", check + code], env=env, capture_output=True, text=True,
                          timeout=120)
    if done.returncode == 3:
        return None
    assert done.returncode == 0, f"under OPENBLAS_CORETYPE={kernel}:\n{done.stdout}{done.stderr}"
    return done.stdout


@pytest.fixture
def micro_model():
    return Model.create(micro_config(), seed=123, with_subnets=True)


@pytest.fixture
def generic_model():
    return jitter_params(Model.create(micro_config(), seed=123, with_subnets=True))


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
