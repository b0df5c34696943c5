"""Mlp forward and backward: finite-difference checks, fixed nets, determinism."""

import numpy as np
import pytest

from gmvlab.errors import InputError
from gmvlab.ndmath import Mlp


def central_diff(f, x, h=1e-5):
    """Elementwise central finite differences of a scalar-valued f."""
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + h
        fp = f()
        x[idx] = orig - h
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def backward(net, acts, grad_out):
    """(dws, dbs, input gradient) of `net.backward` into freshly allocated arrays."""
    dws, dbs = [np.empty_like(w) for w in net.weights], [np.empty_like(b) for b in net.biases]
    return dws, dbs, net.backward(acts, grad_out, dws, dbs)


def rel_err(a, b):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-8)
    return np.max(np.abs(a - b) / denom)


def test_mlp_mse_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    net = Mlp.init([4, 6, 5, 3], rng)
    x = rng.standard_normal((8, 4))

    def loss():
        out = net.forward(x)[-1]
        return np.sum(out * out) / out.size

    acts = net.forward(x)
    dws, dbs, dx = backward(net, acts, 2.0 * acts[-1] / acts[-1].size)
    for i in range(net.n_layers):
        for name, g, arr in ((f"w{i}", dws[i], net.weights[i]), (f"b{i}", dbs[i], net.biases[i])):
            fd = central_diff(loss, arr)
            mask = np.abs(g) > 1e-8
            assert rel_err(g[mask], fd[mask]) < 1e-4, name
    assert rel_err(dx, central_diff(loss, x)) < 1e-4


def test_forward_is_deterministic():
    rng = np.random.default_rng(3)
    net = Mlp.init([5, 4, 2], rng)
    x = rng.standard_normal((6, 5))

    def run():
        acts = net.forward(x)
        return acts, backward(net, acts, acts[-1])

    (a1, (w1, b1, x1)), (a2, (w2, b2, x2)) = run(), run()
    for p, q in zip(a1 + w1 + b1 + [x1], a2 + w2 + b2 + [x2]):
        assert np.array_equal(p, q)


def test_backward_into_given_arrays_matches_fresh_ones():
    rng = np.random.default_rng(5)
    net = Mlp.init([5, 4, 3, 2], rng)
    acts = net.forward(rng.standard_normal((7, 5)))
    g = rng.standard_normal((7, 2))
    dws, dbs, dx = backward(net, acts, g)
    flat = np.full(sum(a.size for a in net.weights + net.biases), np.nan)
    out_w, out_b, start = [], [], 0
    for w, b in zip(net.weights, net.biases):
        out_w.append(flat[start:start + w.size].reshape(w.shape))
        out_b.append(flat[start + w.size:start + w.size + b.size])
        start += w.size + b.size
    assert net.backward(acts, g, out_w, out_b, input_grad=False) is None
    assert np.isfinite(flat).all()  # every entry written
    for p, q in zip(dws + dbs, out_w + out_b):
        assert p.tobytes() == q.tobytes()


def test_forward_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    net = Mlp.init([4, 3], rng)
    with pytest.raises(InputError):
        net.forward(np.ones((2, 5)))


def test_zero_net_maps_to_zero():
    net = Mlp([3, 2], [np.zeros((2, 3))], [np.zeros(2)])
    assert np.array_equal(net.forward(np.ones((4, 3)))[-1], np.zeros((4, 2)))


def test_identity_layer_is_identity():
    net = Mlp([3, 3], [np.eye(3)], [np.zeros(3)])
    x = np.random.default_rng(1).standard_normal((5, 3))
    assert np.array_equal(net.forward(x)[-1], x)


def test_two_layer_forward_matches_manual_composition():
    rng = np.random.default_rng(11)
    net = Mlp.init([3, 4, 2], rng)
    x = rng.standard_normal((6, 3))
    acts = net.forward(x)
    hidden = np.tanh(x @ net.weights[0].T + net.biases[0])
    manual = hidden @ net.weights[1].T + net.biases[1]
    assert np.array_equal(acts[1], hidden)
    assert np.array_equal(acts[2], manual)
