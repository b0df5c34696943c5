"""Small fully connected networks: tanh hidden layers, identity output. A
batch's output is the last of `Mlp.forward`'s activations; there is no other pass."""

from __future__ import annotations

import numpy as np

from ..errors import InputError


class Mlp:
    """Feed-forward net defined by layer widths, e.g. [50, 32, 16, 8, 4].

    Weights are (out, in) matrices; tanh is applied after every layer except
    the last. Parameters are float64 arrays; a trainer may replace them with
    views into one flat parameter vector.
    """

    def __init__(self, layer_dims, weights, biases):
        layer_dims = [int(d) for d in layer_dims]
        if len(weights) != len(layer_dims) - 1 or len(biases) != len(weights):
            raise InputError("Mlp: parameter count does not match layer_dims")
        for i, (w, b) in enumerate(zip(weights, biases)):
            want = (layer_dims[i + 1], layer_dims[i])
            if w.shape != want or b.shape != (layer_dims[i + 1],):
                raise InputError(f"Mlp: layer {i} shapes {w.shape}/{b.shape}, expected {want}")
        self.layer_dims = layer_dims
        self.weights = [np.asarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in biases]

    @classmethod
    def init(cls, layer_dims, rng: np.random.Generator) -> "Mlp":
        """Glorot-uniform weights, zero biases."""
        weights, biases = [], []
        for d_in, d_out in zip(layer_dims[:-1], layer_dims[1:]):
            bound = np.sqrt(6.0 / (d_in + d_out))
            weights.append(rng.uniform(-bound, bound, size=(d_out, d_in)))
            biases.append(np.zeros(d_out))
        return cls(layer_dims, weights, biases)

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray) -> list[np.ndarray]:
        """Activations [input, hidden tanh outputs..., output] of a batch.

        Each layer's output is a fresh (n, width) array; the bias add and the
        tanh run in place on it.
        """
        h = np.asarray(x, dtype=np.float64)
        if h.shape[-1] != self.layer_dims[0]:
            raise InputError(
                f"Mlp input width {h.shape[-1]} != layer 0 width {self.layer_dims[0]}"
            )
        acts = [h]
        last = self.n_layers - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w.T
            h += b
            if i < last:
                np.tanh(h, out=h)
            acts.append(h)
        return acts

    def backward(self, acts: list[np.ndarray], grad_out: np.ndarray, dws: list, dbs: list,
                 input_grad: bool = True):
        """Backpropagate a loss gradient at the output through the layers.

        `acts` are the activations `forward` returned for the batch and
        `grad_out` the loss gradient with respect to the output. dW and db
        are written into `dws` and `dbs`, one array per layer (e.g. views of
        a flat gradient vector). Returns the gradient with respect to the
        input, or None when `input_grad` is False.
        """
        last = self.n_layers - 1
        g = grad_out
        for i in range(last, -1, -1):
            if i < last:
                g = g * (1.0 - acts[i + 1] * acts[i + 1])  # tanh' at layer i's output
            np.matmul(g.T, acts[i], out=dws[i])
            np.add.reduce(g, axis=0, out=dbs[i])
            if i or input_grad:
                g = g @ self.weights[i]
        return g if input_grad else None
