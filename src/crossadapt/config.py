"""Structured run configuration: one YAML file with per-section defaults.

Sections: ``corpus`` (generation recipe), ``model`` (architecture),
``pretrain``/``finetune``/``adapt`` (stage settings), plus a top-level
``seed``. Any key can be overridden on the command line with
``--set section.key=value``; unknown keys are rejected so typos fail loudly
instead of silently training with defaults.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .corpus import DomainSpec
from .errors import ContractError
from .model import ExtractorConfig, LdeConfig, ModelConfig, SubnetConfig
from .numkit import ScheduleConfig

__all__ = ["StageConfig", "CorpusConfig", "AppConfig", "load_config", "apply_overrides"]

DEFAULTS = {
    "seed": 1,
    "corpus": {
        "num_speakers": 20,
        "utts_per_speaker": 10,
        "frames_per_utt": 100,
        "input_dim": 20,
        "identity_dim": 16,
        "id_scale": 0.6,
        "sess_scale": 0.22,
        "frame_sd": 0.5,
        "ar_rho": 0.7,
        "domains": None,  # None -> clean + channel + farfield + noisy defaults
    },
    "model": {
        "group_dims": [24, 24, 24, 24],
        "context": [2, 1, 1, 0],
        "lde_components": 8,
        "front_dims": [64, 64],
        "back_dims": [32, 32],
    },
    "pretrain": {
        "steps": 120,
        "batch_size": 16,
        "crop_frames": 60,
        "seed": None,
        "schedule": {"noam_dim": 64, "noam_warmup": 150},
    },
    "finetune": {
        "steps": 600,
        "batch_size": 16,
        "crop_frames": 60,
        "seed": None,
        "schedule": {"noam_dim": 64, "noam_warmup": 150},
    },
    "adapt": {
        "steps": 600,
        "batch_size": 32,
        "tgt_batch_size": 24,
        "crop_frames": 60,
        "kernel": "linear",
        "bandwidth": None,
        "seed": None,
        "schedule": {"lr0": 0.001},
    },
}

DEFAULT_TARGET_DOMAINS = (
    {"kind": "channel", "channel_gain": None},  # None -> linspace over dims
    {"kind": "farfield", "atten": 0.35, "smear_width": 7},
    {"kind": "noisy", "snr_db": 2.0},
)


@dataclass(frozen=True)
class StageConfig:
    """Settings for one training stage."""

    stage: str
    steps: int
    batch_size: int
    crop_frames: int
    schedule: ScheduleConfig
    seed: int
    tgt_batch_size: int = 0
    kernel: str = "linear"
    bandwidth: float = None

    def __post_init__(self):
        if self.steps < 1:
            raise ContractError(f"{self.stage}: steps must be positive")
        if self.crop_frames < 1:
            raise ContractError(f"{self.stage}: crop_frames must be positive")
        if self.batch_size < 2:
            raise ContractError(f"{self.stage}: batch size must be at least 2")
        if self.stage == "adapt" and self.tgt_batch_size < 2:
            raise ContractError("adapt: per-domain batch size must be at least 2")
        if self.kernel not in ("linear", "rbf"):
            raise ContractError(f"unknown MMD kernel {self.kernel!r}")
        if self.bandwidth is not None and self.bandwidth <= 0:
            raise ContractError("bandwidth must be positive when given")


@dataclass(frozen=True)
class CorpusConfig:
    num_speakers: int
    utts_per_speaker: int
    frames_per_utt: int
    input_dim: int
    identity_dim: int
    id_scale: float
    sess_scale: float
    frame_sd: float
    ar_rho: float
    domains: tuple


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
            extractor=ExtractorConfig(
                input_dim=self.corpus.input_dim,
                group_dims=tuple(m["group_dims"]),
                context=tuple(m["context"]),
            ),
            lde=LdeConfig(num_components=m["lde_components"], component_dim=m["group_dims"][-1]),
            subnet=SubnetConfig(
                front_dims=tuple(m["front_dims"]),
                back_dims=tuple(m["back_dims"]),
                num_domains=num_target_domains,
            ),
            num_speakers=num_speakers,
        )


def _merge(defaults, user, path=""):
    if user is None:
        return copy.deepcopy(defaults)
    if not isinstance(user, dict):
        raise ContractError(f"config section {path or '<root>'} must be a mapping")
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ContractError(f"unknown config key {path}{key}")
        if isinstance(defaults[key], dict) and key != "schedule":
            out[key] = _merge(defaults[key], value, f"{path}{key}.")
        else:
            out[key] = copy.deepcopy(value)
    return out


def _domain_specs(raw_domains, input_dim):
    if raw_domains is None:
        raw_domains = [{"kind": "clean"}] + [dict(d) for d in DEFAULT_TARGET_DOMAINS]
    specs = []
    for entry in raw_domains:
        entry = dict(entry)
        kind = entry.pop("kind", None)
        if kind is None:
            raise ContractError("every corpus domain needs a kind")
        if kind == "channel" and entry.get("channel_gain") is None:
            # steep ramp: near-silent low dims up to 3x gain, rounded so the
            # same gains round-trip through YAML and the manifest exactly
            entry["channel_gain"] = np.linspace(0.15, 3.0, input_dim).round(4).tolist()
        try:
            specs.append(DomainSpec(kind, **entry))
        except TypeError as exc:
            raise ContractError(f"bad field for domain kind {kind!r}: {exc}") from exc
    return tuple(specs)


# YAML leaves numbers like "1e60" as strings (its float form needs a signed
# exponent), so every numeric config field is coerced explicitly.
def _as_int(value, label) -> int:
    try:
        return int(value)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{label} must be an integer, got {value!r}") from exc


def _as_float(value, label) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ContractError(f"{label} must be a number, got {value!r}") from exc


_SCHEDULE_INT_FIELDS = {"noam_dim", "noam_warmup"}


def _schedule(raw) -> ScheduleConfig:
    if not raw:
        return ScheduleConfig()
    allowed = set(ScheduleConfig.__dataclass_fields__)
    extra = set(raw) - allowed
    if extra:
        raise ContractError(f"unknown schedule keys {sorted(extra)}")
    coerced = {
        key: (_as_int if key in _SCHEDULE_INT_FIELDS else _as_float)(value, f"schedule.{key}")
        for key, value in raw.items()
    }
    return ScheduleConfig(**coerced)


def _stage(name: str, section: dict, app_seed: int) -> StageConfig:
    seed = section["seed"] if section["seed"] is not None else app_seed
    kwargs = dict(
        stage=name,
        steps=_as_int(section["steps"], f"{name}.steps"),
        batch_size=_as_int(section["batch_size"], f"{name}.batch_size"),
        crop_frames=_as_int(section["crop_frames"], f"{name}.crop_frames"),
        schedule=_schedule(section["schedule"]),
        seed=_as_int(seed, f"{name}.seed"),
    )
    if name == "adapt":
        bw = section["bandwidth"]
        kwargs.update(
            tgt_batch_size=_as_int(section["tgt_batch_size"], "adapt.tgt_batch_size"),
            kernel=section["kernel"],
            bandwidth=None if bw is None else _as_float(bw, "adapt.bandwidth"),
        )
    return StageConfig(**kwargs)


def build_config(raw: dict) -> AppConfig:
    merged = _merge(DEFAULTS, raw)
    seed = _as_int(merged["seed"], "seed")
    c = merged["corpus"]
    input_dim = _as_int(c["input_dim"], "corpus.input_dim")
    corpus = CorpusConfig(
        num_speakers=_as_int(c["num_speakers"], "corpus.num_speakers"),
        utts_per_speaker=_as_int(c["utts_per_speaker"], "corpus.utts_per_speaker"),
        frames_per_utt=_as_int(c["frames_per_utt"], "corpus.frames_per_utt"),
        input_dim=input_dim,
        identity_dim=_as_int(c["identity_dim"], "corpus.identity_dim"),
        id_scale=_as_float(c["id_scale"], "corpus.id_scale"),
        sess_scale=_as_float(c["sess_scale"], "corpus.sess_scale"),
        frame_sd=_as_float(c["frame_sd"], "corpus.frame_sd"),
        ar_rho=_as_float(c["ar_rho"], "corpus.ar_rho"),
        domains=_domain_specs(c["domains"], input_dim),
    )
    return AppConfig(
        seed=seed,
        corpus=corpus,
        model=merged["model"],
        pretrain=_stage("pretrain", merged["pretrain"], seed),
        finetune=_stage("finetune", merged["finetune"], seed),
        adapt=_stage("adapt", merged["adapt"], seed),
    )


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
        for stage in ("pretrain", "finetune", "adapt"):
            if isinstance(raw.get(stage), dict):
                raw[stage].pop("seed", None)
    return raw


def load_config(path=None, sets=None, seed=None) -> AppConfig:
    """Load the YAML config (all-defaults when ``path`` is None) and build it."""
    raw = {}
    try:
        if path is not None:
            raw = yaml.safe_load(Path(path).read_text(encoding="utf-8")) or {}
            if not isinstance(raw, dict):
                raise ContractError(f"{path} does not hold a config mapping")
        raw = apply_overrides(raw, sets, seed)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ContractError(f"cannot load config: {exc}") from exc
    return build_config(raw)
