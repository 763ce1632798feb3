"""Graph-mechanics tests: accumulation, no_grad, lazy weight reads,
multi-root backward."""

import threading

import numpy as np
import pytest

from repro.tensor import Tensor, matmul, no_grad, relu
from repro.tensor.tensor import backward_multi, grad_enabled


class TestGraphMechanics:
    def test_grad_accumulates_across_backward_calls(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 3.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full(3, 5.0))

    def test_shared_node_accumulates_within_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = a * 2.0
        out = (b + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.full(3, 4.0))

    def test_diamond_graph(self, rng):
        a = Tensor(rng.normal(size=(4,)), requires_grad=True)
        left = a * 3.0
        right = relu(a)
        (left * right).sum().backward()
        expected = 3.0 * relu(Tensor(a.data)).data + 3.0 * a.data * (
            a.data > 0
        )
        np.testing.assert_allclose(a.grad, expected)

    def test_backward_requires_scalar_without_grad(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (a * 2.0).backward()

    def test_backward_on_non_grad_tensor_raises(self, rng):
        a = Tensor(rng.normal(size=(3,)))
        with pytest.raises(RuntimeError):
            a.backward()

    def test_no_grad_blocks_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        with no_grad():
            out = (a * 2.0).sum()
            assert not out.requires_grad
        assert grad_enabled()

    def test_no_grad_restores_on_exception(self):
        try:
            with no_grad():
                raise ValueError("boom")
        except ValueError:
            pass
        assert grad_enabled()

    def test_no_grad_is_thread_local_under_interleaving(self):
        """Two threads' no_grad blocks interleaved A-enter, B-enter,
        A-exit, B-exit leave grad mode on (a process-global flag ended
        up off for every thread, and for processes forked later)."""
        a_in, b_in, a_out = (threading.Event() for _ in range(3))

        def thread_a():
            with no_grad():
                a_in.set()
                b_in.wait(5.0)
            a_out.set()

        def thread_b():
            a_in.wait(5.0)
            with no_grad():
                b_in.set()
                a_out.wait(5.0)

        threads = [threading.Thread(target=f) for f in (thread_a, thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert not any(t.is_alive() for t in threads)
        assert a_out.is_set()
        assert grad_enabled()

    def test_deep_chain_no_recursion_error(self, rng):
        a = Tensor(rng.normal(size=(2,)), requires_grad=True)
        x = a
        for _ in range(3000):
            x = x * 1.0001
        x.sum().backward()
        assert a.grad is not None

    def test_detach_cuts_graph(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        b = (a * 2.0).detach()
        assert not b.requires_grad

    def test_dtype_preserved_float64(self, rng):
        a = Tensor(rng.normal(size=(3,)).astype(np.float32))
        assert a.dtype == np.float32
        b = Tensor([1, 2, 3])
        assert b.dtype == np.float64


class TestLazyWeightReads:
    """The property pipelined backprop inconsistency relies on."""

    def test_matmul_input_grad_uses_current_weight_value(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = matmul(x, w).sum()
        w_new = rng.normal(size=(3, 4))
        w.data = w_new  # mutate between forward and backward
        out.backward()
        np.testing.assert_allclose(x.grad, np.ones((2, 4)) @ w_new.T)

    def test_matmul_weight_grad_uses_forward_activations(self, rng):
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        out = matmul(x, w).sum()
        x_forward = x.data.copy()
        out.backward()
        np.testing.assert_allclose(w.grad, x_forward.T @ np.ones((2, 4)))

    def test_conv_input_grad_uses_current_weight_value(self, rng):
        from repro.tensor import conv2d

        x = Tensor(rng.normal(size=(1, 2, 5, 5)), requires_grad=True)
        w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
        out = conv2d(x, w, padding=1).sum()
        w.data = np.zeros_like(w.data)  # zero weights before backward
        out.backward()
        np.testing.assert_allclose(x.grad, np.zeros_like(x.data))

    def test_relu_mask_is_forward_captured(self, rng):
        x = Tensor(np.array([1.0, -1.0, 2.0]), requires_grad=True)
        out = relu(x).sum()
        x.data = np.array([-5.0, 5.0, 5.0])  # must not change the mask
        out.backward()
        np.testing.assert_allclose(x.grad, np.array([1.0, 0.0, 1.0]))


class TestBackwardMulti:
    def test_matches_combined_scalar(self, rng):
        def build(a_data):
            a = Tensor(a_data, requires_grad=True)
            shared = a * 2.0
            y1 = shared * 3.0
            y2 = relu(shared)
            return a, y1, y2

        g1 = rng.normal(size=(4,))
        g2 = rng.normal(size=(4,))
        a_data = rng.normal(size=(4,))

        a, y1, y2 = build(a_data)
        backward_multi([(y1, g1), (y2, g2)])
        multi_grad = a.grad.copy()

        a2, z1, z2 = build(a_data)
        total = (z1 * Tensor(g1)).sum() + (z2 * Tensor(g2)).sum()
        total.backward()
        np.testing.assert_allclose(multi_grad, a2.grad, atol=1e-12)

    def test_single_root_equals_backward(self, rng):
        a = Tensor(rng.normal(size=(3,)), requires_grad=True)
        y = a * 4.0
        backward_multi([(y, np.ones(3))])
        np.testing.assert_allclose(a.grad, np.full(3, 4.0))

    def test_skips_non_grad_roots(self, rng):
        a = Tensor(rng.normal(size=(3,)))
        backward_multi([(a, np.ones(3))])  # no error
        assert a.grad is None
