"""Adam optimizer and global-norm gradient clipping."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor


class NonFiniteGradError(RuntimeError):
    """A gradient contained NaN/inf; the optimizer step was aborted."""


# Elements per slice of an elementwise parameter pass: a slice's temporaries
# stay in cache and below the allocator's mmap threshold, so stepping a large
# stacked parameter faults no fresh pages.
CHUNK = 1 << 14

# Adam's moment decay rates and the denominator's epsilon.
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


def chunks(*arrays: np.ndarray):
    """Matching flat slices of same-shape ``arrays``, CHUNK elements at most;
    views, so in-place writes land in the arrays. Small arrays, and arrays
    that are not all C-contiguous, come back whole."""
    if arrays[0].size <= CHUNK or not all(a.flags.c_contiguous for a in arrays):
        yield arrays
        return
    flats = [a.reshape(-1) for a in arrays]
    for start in range(0, flats[0].size, CHUNK):
        yield tuple(f[start:start + CHUNK] for f in flats)


class Adam:
    """Standard Adam with bias correction over a fixed parameter list.

    Missing gradients (parameter untouched by the last backward pass) are
    treated as zeros, so a step with no gradient leaves the parameter value
    unchanged while still advancing the moment estimates. The step runs
    slice by slice (see ``chunks``).
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        if not lr > 0:   # NaN too
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        grads = []
        for i, p in enumerate(self.params):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            # a NaN or an infinity shows in the minimum or the maximum
            if g.size and not (np.isfinite(g.min()) and np.isfinite(g.max())):
                raise NonFiniteGradError(
                    f"non-finite gradient in parameter {i} (shape {p.data.shape}): "
                    f"nan={int(np.isnan(g).sum())}, inf={int(np.isinf(g).sum())}")
            grads.append(g)

        self.t += 1
        c1 = 1.0 - BETA1 ** self.t
        c2 = 1.0 - BETA2 ** self.t
        for p, m, v, g in zip(self.params, self.m, self.v, grads):
            for pc, mc, vc, gc in chunks(p.data, m, v, g):
                mc *= BETA1
                mc += (1.0 - BETA1) * gc
                vc *= BETA2
                vc += (1.0 - BETA2) * (gc * gc)
                pc -= self.lr * (mc / c1) / (np.sqrt(vc / c2) + EPS)


def clip_grad_norm(grads: Sequence[np.ndarray], max_norm: float,
                   grouped: bool = False) -> float | np.ndarray:
    """Scale ``grads`` in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clip global norm (useful as a training diagnostic). With
    ``grouped``, the leading axis of every gradient indexes the members of a
    bank: each member is clipped on its own slices, bit for bit as if alone,
    and the (g,) array of their norms is returned.
    """
    if not max_norm > 0:   # NaN too
        raise ValueError(f"max_norm must be positive, got {max_norm}")
    groups = len(grads[0]) if grouped and grads else 1
    total = np.zeros(groups)
    for g in grads:
        rows = g.reshape(groups, 1, -1)
        total += (rows @ rows.swapaxes(-1, -2)).reshape(groups)
    norms = np.sqrt(total)
    if np.any(norms > max_norm):
        # max_norm / norm above the bound and exactly 1 below it, in the
        # gradients' precision
        scale = max_norm / np.maximum(norms, max_norm)
        for g in grads:
            factor = scale.astype(g.dtype)
            g *= factor.reshape((groups,) + (1,) * (g.ndim - 1)) if grouped else factor[0]
    return norms if grouped else float(norms[0])
