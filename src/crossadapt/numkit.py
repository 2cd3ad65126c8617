"""Dense numeric core: parameter groups, the AMSGrad optimizer and the three
learning-rate/progress schedules.

All arrays are float64 numpy tensors while in memory; file I/O elsewhere in
the package stores float32.  Gradients in this package are hand-derived;
the tests check every backward pass against central differences
(``tests/gradcheck.py``).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, NumericError, StructuralError

ADAM_BETAS = (0.9, 0.98)
ADAM_EPS = 1e-8
WEIGHT_DECAY = 1e-4


@dataclass
class ParamGroup:
    """A named set of parameters updated (or frozen) together.

    ``tensors`` maps parameter names to the arrays themselves; the optimizer
    mutates those arrays in place.  A frozen group is guaranteed to come out
    of ``adam_step`` bit-identical.
    """

    name: str
    tensors: dict
    lr_multiplier: float = 1.0
    frozen: bool = False

    def __post_init__(self):
        if self.lr_multiplier <= 0:
            raise ContractError(f"group {self.name}: lr_multiplier must be positive")


@dataclass
class OptimState:
    """Per-parameter AMSGrad accumulators plus the shared step counter."""

    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    vhat: dict = field(default_factory=dict)
    t: int = 0


@dataclass
class ScheduleConfig:
    """Constants for the three schedules used across training stages.

    ``lr0``/``alpha``/``beta`` drive the inverse-decay adaptation schedule,
    ``steepness`` drives the progressive loss weight, and the ``noam_*``
    fields drive the warmup schedule used for from-scratch training.
    """

    lr0: float = 0.01
    alpha: float = 10.0
    beta: float = 0.75
    steepness: float = 10.0
    noam_dim: int = 256
    noam_warmup: int = 4000

    def __post_init__(self):
        if self.lr0 <= 0:
            raise ContractError("lr0 must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ContractError("alpha and beta must be nonnegative")
        if self.steepness <= 0:
            raise ContractError("steepness must be positive")
        if self.noam_dim < 1 or self.noam_warmup < 1:
            raise ContractError("noam_dim and noam_warmup must be positive integers")


def adam_step(
    groups,
    grads,
    state: OptimState,
    base_lr: float,
    weight_decay: float = WEIGHT_DECAY,
) -> None:
    """Apply one AMSGrad update in place to every unfrozen group.

    The effective learning rate of a group is ``base_lr * lr_multiplier``.
    Weight decay is decoupled: applied directly to the parameters, never
    folded into the gradients.  ``grads`` must be keyed exactly by the
    trainable (unfrozen) parameter names.
    """
    if base_lr <= 0:
        raise ContractError("base_lr must be positive")
    trainable = {}
    for group in groups:
        if group.frozen:
            continue
        for name, param in group.tensors.items():
            trainable[name] = param
    if set(grads) != set(trainable):
        missing = sorted(set(trainable) - set(grads))
        extra = sorted(set(grads) - set(trainable))
        raise StructuralError(
            f"grads must cover exactly the trainable params; missing={missing} extra={extra}"
        )
    for name, param in trainable.items():
        g = grads[name]
        if g.shape != param.shape:
            raise StructuralError(
                f"gradient for {name} has shape {g.shape}, param has {param.shape}"
            )
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for tensor {name}")

    beta1, beta2 = ADAM_BETAS
    state.t += 1
    bc1 = 1.0 - beta1**state.t
    bc2 = 1.0 - beta2**state.t
    for group in groups:
        if group.frozen:
            continue
        lr = base_lr * group.lr_multiplier
        for name in sorted(group.tensors):
            param = group.tensors[name]
            g = grads[name]
            if name not in state.m:
                state.m[name] = np.zeros_like(param)
                state.v[name] = np.zeros_like(param)
                state.vhat[name] = np.zeros_like(param)
            if weight_decay:
                param -= lr * weight_decay * param
            m = state.m[name]
            v = state.v[name]
            m *= beta1
            m += (1.0 - beta1) * g
            v *= beta2
            v += (1.0 - beta2) * (g * g)
            np.maximum(state.vhat[name], v, out=state.vhat[name])
            denom = np.sqrt(state.vhat[name] / bc2) + ADAM_EPS
            param -= lr * (m / bc1) / denom


def inv_decay_lr(p: float, cfg: ScheduleConfig) -> float:
    """Inverse-decay learning rate ``lr0 / (1 + alpha*p)**beta`` at progress p."""
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"progress p must lie in [0, 1], got {p}")
    return cfg.lr0 / (1.0 + cfg.alpha * p) ** cfg.beta


def progressive_weight(p: float, steepness: float = 10.0) -> float:
    """Progress-dependent loss weight ``2 / (1 + exp(-steepness*p)) - 1``.

    Zero exactly at p=0, strictly increasing, and approaches 1 from below;
    used to phase the alignment losses in over the course of adaptation.
    """
    if not 0.0 <= p <= 1.0:
        raise ContractError(f"progress p must lie in [0, 1], got {p}")
    if steepness <= 0:
        raise ContractError("steepness must be positive")
    return 2.0 / (1.0 + math.exp(-steepness * p)) - 1.0


def noam_lr(step: int, cfg: ScheduleConfig) -> float:
    """Warmup-then-decay learning rate; peaks exactly at ``step == warmup``."""
    if step < 1:
        raise ContractError("noam_lr requires step >= 1")
    return cfg.noam_dim**-0.5 * min(step**-0.5, step * cfg.noam_warmup**-1.5)


def noam_peak(cfg: ScheduleConfig) -> float:
    """The maximum value of the warmup schedule (attained at step=warmup)."""
    return cfg.noam_dim**-0.5 * cfg.noam_warmup**-0.5
