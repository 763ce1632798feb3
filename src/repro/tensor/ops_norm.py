"""Group normalization as one autodiff node.

At batch size one the paper's GroupNorm runs on tiny tensors, where a
composite of eleven autodiff primitives spends more time building and
walking graph nodes than computing.  :func:`group_norm` records a single
node instead.  Its forward makes the composite's numpy calls in the same
order, and its backward replays the composite's reverse-topological
gradient arithmetic: every element goes through the same floating-point
operations, on the same operands, in the same order, so results are
bit-identical to the composite (pinned by ``tests/test_nn_layers.py``,
whose oracle *is* the composite, in float64 and float32).
"""

from __future__ import annotations

import numpy as np

from repro.tensor.tensor import (
    Tensor,
    _accumulate,
    _ensure_tensor,
    _result,
    _unbroadcast,
)


def group_norm(
    x,
    num_groups: int,
    weight: Tensor | None = None,
    bias: Tensor | None = None,
    eps: float = 1e-5,
) -> Tensor:
    """Normalize each sample's channel groups of an NCHW tensor to zero
    mean and unit variance, then apply the optional per-channel affine
    ``* weight + bias`` (``(1, C, 1, 1)`` tensors).

    The backward reads ``weight.data`` when it runs (lazy parent read,
    see :mod:`repro.tensor`) and captures the forward statistics.
    """
    x = _ensure_tensor(x)
    n, c, h, w = x.shape
    grouped = x.data.reshape((n, num_groups, -1))
    mu = grouped.mean(axis=2, keepdims=True)
    cen = grouped - mu
    var = (cen * cen).mean(axis=2, keepdims=True)
    # eps adopts x's dtype, as a python scalar does in ``Tensor + eps``
    s = np.sqrt(var + np.asarray(eps, dtype=x.data.dtype))
    normed = (cen / s).reshape((n, c, h, w))
    out = normed
    parents = [x]
    if weight is not None:
        out = out * weight.data
        parents.append(weight)
    if bias is not None:
        out = out + bias.data
        parents.append(bias)
    count = cen.size / max(mu.size, 1)

    def _bw(g: np.ndarray) -> None:
        # the composite's reverse-topological order: affine first, then
        # the division, the sqrt/variance branch, the two halves of
        # ``cen * cen`` (two separate adds) and the mean's centering
        if bias is not None:
            _accumulate(bias, _unbroadcast(g, bias.data.shape))
        if weight is not None:
            _accumulate(weight, _unbroadcast(g * normed, weight.data.shape))
            g = g * weight.data
        if not x.requires_grad:
            return
        gn = g.reshape(cen.shape)
        gc = gn / s
        gs = _unbroadcast(-gn * cen / (s * s), s.shape)
        # the composite divides the broadcast by ``count``; dividing the
        # (n, G, 1) array first is the same division per element
        gsq = gs * 0.5 / s / count
        gc = gc + gsq * cen
        gc = gc + gsq * cen
        gmu = _unbroadcast(-gc, mu.shape)
        _accumulate(x, (gc + gmu / count).reshape(x.shape))

    return _result(out, tuple(parents), _bw)
