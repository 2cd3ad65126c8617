"""Finite-difference gradient harness shared by the test modules."""

import math

import numpy as np

from crossadapt.errors import ContractError, NumericError, StructuralError


def grad_check(f, point, eps: float = 1e-5) -> float:
    """Compare analytic gradients of ``f`` against central differences.

    ``f`` maps a dict of named float64 arrays to ``(value, grads)`` where
    ``grads`` is keyed like ``point``.  Returns the maximum over all
    coordinates of ``|analytic - numeric| / max(1, |analytic|, |numeric|)``.
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ContractError("eps must lie in [1e-7, 1e-3]")
    work = {name: np.array(arr, dtype=np.float64, copy=True) for name, arr in point.items()}
    _, analytic = f(work)
    if set(analytic) != set(work):
        raise StructuralError("analytic grads must be keyed like the evaluation point")
    worst = 0.0
    for name, arr in work.items():
        grad = np.asarray(analytic[name], dtype=np.float64)
        if grad.shape != arr.shape:
            raise StructuralError(f"analytic grad for {name} has wrong shape")
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up, _ = f(work)
            flat[i] = orig - eps
            down, _ = f(work)
            flat[i] = orig
            if not (math.isfinite(up) and math.isfinite(down)):
                raise NumericError(f"non-finite value of f while perturbing {name}[{i}]")
            numeric = (up - down) / (2.0 * eps)
            err = abs(gflat[i] - numeric) / max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, err)
    return worst
