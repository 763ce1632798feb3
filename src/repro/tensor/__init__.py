"""Reverse-mode autodiff on NumPy arrays.

Public surface:

* :class:`~repro.tensor.tensor.Tensor` — array with gradient tracking.
* :func:`~repro.tensor.tensor.no_grad` — context manager disabling graph
  construction.
* op functions (also exposed as :class:`Tensor` methods where natural):
  arithmetic, ``matmul``, reductions, shape ops, ``relu``, ``log_softmax``,
  ``cross_entropy``.
* :mod:`~repro.tensor.ops_conv` — ``conv2d``, ``max_pool2d``,
  ``avg_pool2d``.
* :mod:`~repro.tensor.ops_norm` — ``group_norm``, one autodiff node
  bit-identical to the composite of primitives it replaces.
* :mod:`~repro.tensor.grad_check` — central-difference gradient checking
  used throughout the test suite.

Design note (load-bearing for this reproduction): backward closures read the
*current* value of parent tensors wherever the math needs the parent's value
(e.g. the weight matrix in ``matmul``/``conv2d`` input-gradients), and
capture forward-time intermediates by value where the math needs
forward-time activations (e.g. ReLU masks, im2col buffers, normalization
statistics).  Mutating a parameter's ``.data`` between a forward and its
backward therefore reproduces exactly the weight-inconsistency semantics of
pipelined backpropagation without weight stashing (paper §2, Appendix G.2).
"""

from repro.tensor.tensor import (
    Tensor,
    no_grad,
    grad_enabled,
    add,
    sub,
    mul,
    div,
    matmul,
    relu,
    exp,
    log,
    sqrt,
    tanh,
    sigmoid,
    reshape,
    transpose,
    pad2d,
    log_softmax,
    cross_entropy,
    softmax,
)
from repro.tensor.ops_conv import (
    conv2d,
    max_pool2d,
    avg_pool2d,
    im2col,
    col2im,
)
from repro.tensor.ops_norm import group_norm
from repro.tensor.grad_check import numerical_grad, check_gradients

__all__ = [
    "Tensor",
    "no_grad",
    "grad_enabled",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "relu",
    "exp",
    "log",
    "sqrt",
    "tanh",
    "sigmoid",
    "reshape",
    "transpose",
    "pad2d",
    "log_softmax",
    "softmax",
    "cross_entropy",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "im2col",
    "col2im",
    "group_norm",
    "numerical_grad",
    "check_gradients",
]
