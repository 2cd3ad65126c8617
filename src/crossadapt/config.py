"""Structured run configuration: one YAML file over the defaults in ``SCHEMA``.

Sections: ``corpus`` (generation recipe), ``model`` (architecture),
``pretrain``/``finetune``/``adapt`` (stage settings), plus a top-level
``seed``. ``SCHEMA`` declares every settable key once, with its default and
the check that coerces a given value; ``--set section.key=value`` overrides
any key. An unknown key or a rejected value raises ``ContractError`` (exit 2)
before anything runs, instead of training with defaults.
"""

from __future__ import annotations

import contextlib
import copy
import math
from dataclasses import dataclass

import numpy as np
import yaml

from .corpus import DOMAIN_KINDS, CorpusConfig, DomainSpec
from .errors import ContractError
from .fileio import read_text
from .model import STAGES, ExtractorConfig, LdeConfig, ModelConfig, SubnetConfig
from .numkit import ScheduleConfig

__all__ = ["SCHEMA", "StageConfig", "CorpusConfig", "AppConfig", "build_config",
           "load_config", "apply_overrides"]


# -- checks: each coerces one given value or raises ContractError ----------------


def _bad(key, want, value):
    return ContractError(f"config key {key} must be {want}, got {value!r}")


def _number(kind, lo=-math.inf, hi=math.inf, lo_open=False):
    """A finite ``kind`` (int or float) in [lo, hi), or (lo, hi) when
    ``lo_open``. Bools, and fractions where an int is wanted, are rejected;
    numeric strings are read as floats, since YAML leaves numbers such as
    ``1e-3`` unparsed."""
    want = f"{'an integer' if kind is int else 'a number'} in {'(' if lo_open else '['}{lo}, {hi})"

    def check(value, key):
        if isinstance(value, str):
            with contextlib.suppress(ValueError):
                value = float(value)
        try:
            coerced = kind(value)
        except (TypeError, ValueError, OverflowError):
            raise _bad(key, want, value) from None
        # NaN fails the equality, inf the magnitude test
        if (isinstance(value, bool) or coerced != value or not abs(coerced) < math.inf
                or not (lo < coerced if lo_open else lo <= coerced) or not coerced < hi):
            raise _bad(key, want, value)
        return coerced
    return check


def _sequence(item, n=None):
    """A list of ``n`` values (any nonempty length when None), each checked by ``item``."""
    def check(value, key):
        if not isinstance(value, (list, tuple)) or not value or (n is not None and len(value) != n):
            raise _bad(key, f"a list of {n or 'one or more'} values", value)
        return tuple(item(v, f"{key}[{i}]") for i, v in enumerate(value))
    return check


def _choice(*names):
    def check(value, key):
        if value not in names:
            raise _bad(key, f"one of {', '.join(names)}", value)
        return value
    return check


def _optional(check):
    """``check``, or None for "not given"."""
    return lambda value, key: None if value is None else check(value, key)


_positive = _number(float, 0.0, lo_open=True)
_DOMAIN_FIELDS = {
    "kind": _choice(*DOMAIN_KINDS),
    "channel_gain": _optional(_sequence(_positive)),  # None -> ramp over input dims
    "smear_width": _number(int, 1),
    "snr_db": _number(float),
    "atten": _positive,
}


def _domain_list(value, key):
    """Domain recipes, each a mapping with a ``kind`` (see ``DomainSpec``)."""
    if not isinstance(value, (list, tuple)) or not value:
        raise _bad(key, "a list of domain mappings", value)
    out = []
    for i, entry in enumerate(value):
        where = f"{key}[{i}]"
        if not isinstance(entry, dict) or "kind" not in entry:
            raise _bad(where, "a mapping with a kind", entry)
        for name in entry:
            if name not in _DOMAIN_FIELDS:
                raise ContractError(f"unknown config key {where}.{name}")
        out.append({name: _DOMAIN_FIELDS[name](v, f"{where}.{name}") for name, v in entry.items()})
    return tuple(out)


# dotted key -> (default, check). Only keys some stage reads are listed.
SCHEMA = {
    "seed": (1, _number(int, 0)),
    "corpus.num_speakers": (20, _number(int, 2)),
    "corpus.utts_per_speaker": (10, _number(int, 1)),
    "corpus.frames_per_utt": (100, _number(int, 1)),
    # bounded: loading builds the default channel gains, one per input dim
    "corpus.input_dim": (20, _number(int, 1, 2**16)),
    "corpus.identity_dim": (16, _number(int, 1)),
    "corpus.id_scale": (0.6, _positive),
    "corpus.sess_scale": (0.22, _number(float, 0.0)),
    "corpus.frame_sd": (0.5, _number(float, 0.0)),
    "corpus.ar_rho": (0.7, _number(float, 0.0, 1.0)),
    "corpus.domains": (({"kind": "clean"}, {"kind": "channel"},
                        {"kind": "farfield", "atten": 0.35, "smear_width": 7},
                        {"kind": "noisy", "snr_db": 2.0}), _domain_list),
    "model.group_dims": ((24, 24, 24, 24), _sequence(_number(int, 1), 4)),
    "model.context": ((2, 1, 1, 0), _sequence(_number(int, 0), 4)),
    "model.lde_components": (8, _number(int, 1)),
    "model.front_dims": ((64, 64), _sequence(_number(int, 1), 2)),
    "model.back_dims": ((32, 32), _sequence(_number(int, 1), 2)),
    "pretrain.steps": (120, _number(int, 1)),
    "pretrain.batch_size": (16, _number(int, 2)),
    "pretrain.crop_frames": (60, _number(int, 1)),
    "pretrain.seed": (None, _optional(_number(int, 0))),  # None -> the top-level seed
    "pretrain.schedule.noam_dim": (64, _number(int, 1)),
    "pretrain.schedule.noam_warmup": (150, _number(int, 1)),
    # finetune runs at a tenth of the pretrain schedule's peak: no schedule
    "finetune.steps": (600, _number(int, 1)),
    "finetune.batch_size": (16, _number(int, 2)),
    "finetune.crop_frames": (60, _number(int, 1)),
    "finetune.seed": (None, _optional(_number(int, 0))),
    "adapt.steps": (600, _number(int, 1)),
    "adapt.batch_size": (32, _number(int, 2)),
    "adapt.tgt_batch_size": (24, _number(int, 2)),
    "adapt.crop_frames": (60, _number(int, 1)),
    "adapt.kernel": ("linear", _choice("linear", "rbf")),
    "adapt.bandwidth": (None, _optional(_positive)),  # None -> median heuristic
    "adapt.seed": (None, _optional(_number(int, 0))),
    "adapt.schedule.lr0": (0.001, _positive),
    "adapt.schedule.alpha": (ScheduleConfig.alpha, _number(float, 0.0)),
    "adapt.schedule.beta": (ScheduleConfig.beta, _number(float, 0.0)),
    "adapt.schedule.steepness": (ScheduleConfig.steepness, _positive),
}
_SECTIONS = {".".join(key.split(".")[:n]) for key in SCHEMA for n in range(1, key.count(".") + 1)}


@dataclass(frozen=True)
class StageConfig:
    """Settings for one training stage; fields a stage has no key for are None."""

    stage: str
    steps: int
    batch_size: int
    crop_frames: int
    seed: int
    schedule: ScheduleConfig = None
    tgt_batch_size: int = None
    kernel: str = None
    bandwidth: float = None


@dataclass(frozen=True)
class AppConfig:
    seed: int
    corpus: CorpusConfig
    model: dict
    pretrain: StageConfig
    finetune: StageConfig
    adapt: StageConfig

    def model_config(self, num_speakers: int, num_target_domains: int) -> ModelConfig:
        """Concrete architecture for a corpus-derived speaker/domain count."""
        m = self.model
        return ModelConfig(
            extractor=ExtractorConfig(self.corpus.input_dim, m["group_dims"], m["context"]),
            lde=LdeConfig(num_components=m["lde_components"], component_dim=m["group_dims"][-1]),
            subnet=SubnetConfig(m["front_dims"], m["back_dims"], num_target_domains),
            num_speakers=num_speakers,
        )


def _leaves(node, section=""):
    """Yield ``(dotted key, value)`` for every value given in a raw mapping."""
    if node is None:
        return
    if not isinstance(node, dict):
        raise ContractError(f"config section {section or '<root>'} must be a mapping")
    for key, value in node.items():
        dotted = f"{section}.{key}" if section else str(key)
        if dotted in _SECTIONS:
            yield from _leaves(value, dotted)
        elif dotted in SCHEMA:
            yield dotted, value
        else:
            raise ContractError(f"unknown config key {dotted}")


def _domain_specs(domains, input_dim):
    specs = []
    for entry in domains:
        gain = entry.get("channel_gain")
        if entry["kind"] == "channel" and gain is None:
            # steep ramp: near-silent low dims up to 3x gain, rounded so the
            # same gains round-trip through YAML and the manifest exactly
            gain = np.linspace(0.15, 3.0, input_dim).round(4).tolist()
        if entry["kind"] == "channel" and len(gain) != input_dim:
            raise ContractError(f"channel_gain has {len(gain)} entries, corpus.input_dim is {input_dim}")
        specs.append(DomainSpec(**{**entry, "channel_gain": gain or ()}))
    return tuple(specs)


def build_config(raw) -> AppConfig:
    """Check ``raw`` (nested mappings, as read from YAML) against ``SCHEMA``."""
    given = dict(_leaves(raw))
    nested = {}
    for key, (default, check) in SCHEMA.items():
        *path, leaf = key.split(".")
        node = nested
        for name in path:
            node = node.setdefault(name, {})
        node[leaf] = check(given[key], key) if key in given else default
    seed = nested["seed"]
    corpus = nested["corpus"]
    corpus["domains"] = _domain_specs(corpus["domains"], corpus["input_dim"])
    stages = {}
    for name in STAGES:
        fields = nested[name]
        if "schedule" in fields:
            fields["schedule"] = ScheduleConfig(**fields["schedule"])
        if fields["seed"] is None:
            fields["seed"] = seed
        stages[name] = StageConfig(name, **fields)
    return AppConfig(seed, CorpusConfig(**corpus), nested["model"], **stages)


def apply_overrides(raw: dict, sets, seed=None) -> dict:
    """Apply ``--set a.b=value`` pairs (values parsed as YAML) and ``--seed``."""
    raw = copy.deepcopy(raw)
    for item in sets or ():
        if "=" not in item:
            raise ContractError(f"--set expects key=value, got {item!r}")
        dotted, _, value = item.partition("=")
        keys = dotted.strip().split(".")
        node = raw
        for key in keys[:-1]:
            node = node.setdefault(key, {})
            if not isinstance(node, dict):
                raise ContractError(f"--set path {dotted!r} crosses a non-mapping")
        node[keys[-1]] = yaml.safe_load(value)
    if seed is not None:
        raw["seed"] = seed
        for stage in STAGES:
            if isinstance(raw.get(stage), dict):
                raw[stage].pop("seed", None)
    return raw


def load_config(path=None, sets=None, seed=None) -> AppConfig:
    """Load the YAML config (all-defaults when ``path`` is None) and build it."""
    raw = {}
    try:
        if path is not None:
            raw = yaml.safe_load(read_text(path, "config")) or {}
            if not isinstance(raw, dict):
                raise ContractError(f"{path} does not hold a config mapping")
        raw = apply_overrides(raw, sets, seed)
    except yaml.YAMLError as exc:
        raise ContractError(f"cannot load config: {exc}") from exc
    return build_config(raw)
