"""Finite-difference validation of reverse-mode gradients.

Central differences are hopeless in single precision, so the checker insists
on float64 parameters; build the network under test with ``dtype=np.float64``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from samarl.ndmath import Tensor, backward


class GradientCheckError(RuntimeError):
    """A non-finite value appeared while checking gradients."""


def gradient_check(f: Callable[[], Tensor], params: Sequence[Tensor],
                   h: float = 1e-5) -> float:
    """Compare analytic gradients of ``f()`` against central differences.

    ``f`` must be a deterministic closure over ``params`` returning a scalar
    tensor. Returns the maximum over all parameter elements of

        |analytic - numeric| / max(|analytic|, |numeric|, 1e-8)
    """
    params = list(params)
    for i, p in enumerate(params):
        if p.data.dtype != np.float64:
            raise GradientCheckError(
                f"gradient_check requires float64 parameters, parameter {i} "
                f"has dtype {p.data.dtype}")
        if not np.all(np.isfinite(p.data)):
            raise GradientCheckError(f"parameter {i} contains non-finite values")

    loss = f()
    if not np.all(np.isfinite(loss.data)):
        raise GradientCheckError("loss is non-finite at the expansion point")
    backward(loss, params=params)
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, ga in zip(params, analytic):
        flat = p.data.reshape(-1)
        gn = np.zeros_like(flat)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + h
            fp = f().item()
            flat[j] = orig - h
            fm = f().item()
            flat[j] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise GradientCheckError(
                    f"non-finite loss while perturbing element {j} of a "
                    f"{p.data.shape} parameter")
            gn[j] = (fp - fm) / (2.0 * h)
        gaf = ga.reshape(-1)
        denom = np.maximum(np.maximum(np.abs(gaf), np.abs(gn)), 1e-8)
        worst = max(worst, float(np.max(np.abs(gaf - gn) / denom)))
    return worst
