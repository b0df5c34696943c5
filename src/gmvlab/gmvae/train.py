"""EM-alternating training loop with analytic backprop.

Each epoch runs Adam minibatch descent on the negative ELBO plus the
beta-KL regularizer, then re-embeds the full training set and applies the
scheduled number of EM updates to the mixture parameters. Within a batch
the responsibilities are held fixed, so the objective has a closed-form
gradient with respect to the decoded sample, the posterior mean and the
posterior log-variance (through the reparameterization z = mu + sigma *
eps); `backward` chains it through the decoder and encoder. All network
parameters live in one flat vector that Adam updates in place; the
gradient is written into one preallocated vector of the same layout.

A batch computes only what its gradient needs. The objective is evaluated
once per epoch, on the re-embed pass that feeds EM: the network after the
epoch's Adam pass, the re-embed noise, and responsibilities under the
mixture before the epoch's EM pass (the first EM update reuses them).
The history that `train` returns, and so the history CSV, holds that
objective as per-sample means over the training set.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from ..config import TrainConfig
from ..errors import InputError, NumericalError
from ..ndmath import AdamState, adam_step
from .model import (
    ElboTerms,
    GmVae,
    LatentEmbedding,
    MixtureConstants,
    _objective_terms,
    _responsibilities,
    elbo,
    em_step,
    encode,
    responsibilities,
)


@dataclass
class BatchCache:
    """Forward values of one batch that `backward` reuses."""

    x: np.ndarray
    gamma: np.ndarray     # (n, K) responsibilities, held fixed
    var: np.ndarray       # (n, d) posterior variance
    std_eps: np.ndarray   # (n, d) sigma * eps, so z = mu + std_eps
    enc_acts: list        # encoder activations; the last is [mu, log var]
    dec_acts: list        # decoder activations; the last is x_hat
    mix: MixtureConstants  # the mixture the batch was evaluated under


def batch_loss(model: GmVae, x: np.ndarray, eps: np.ndarray, mix: MixtureConstants,
               gamma: np.ndarray | None = None) -> BatchCache:
    """Forward pass of the training objective for one batch; returns its cache.

    Runs encoder -> reparameterized z -> decoder. `mix` is
    `MixtureConstants.of(model.gmm)`. Responsibilities are evaluated at the
    sampled z and held fixed (no gradient flows through them) unless a fixed
    `gamma` is supplied. The objective is `batch_terms(model, cache)` and its
    gradient `backward(model, cache, out)`; training needs only the gradient.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = model.latent_dim
    enc_acts = model.encoder.forward(x)
    mu = enc_acts[-1][:, :d]
    logvar = enc_acts[-1][:, d:]
    var = np.exp(logvar)
    std_eps = np.exp(0.5 * logvar) * eps
    z = mu + std_eps
    if not np.isfinite(z).all():
        raise NumericalError("encoder produced non-finite latent state")
    if gamma is None:
        gamma = _responsibilities(mix, z)
    return BatchCache(x=x, gamma=gamma, var=var, std_eps=std_eps, enc_acts=enc_acts,
                      dec_acts=model.decoder.forward(z), mix=mix)


def batch_terms(model: GmVae, cache: BatchCache) -> ElboTerms:
    """The batch's objective terms from its cached forward values; `backward`
    returns the gradient of their `total_loss`."""
    out = cache.enc_acts[-1]
    d = model.latent_dim
    return _objective_terms(model, cache.x, cache.dec_acts[-1], out[:, :d], cache.var,
                            out[:, d:], cache.gamma)


def _layer_views(model: GmVae, flat: np.ndarray) -> list[tuple[list, list]]:
    """Per net, encoder then decoder, the (weights, biases) lists of views into
    `flat` in `pack_params` order: each layer's weights before its biases."""
    views, start = [], 0
    for net in (model.encoder, model.decoder):
        ws, bs = [], []
        for w, b in zip(net.weights, net.biases):
            ws.append(flat[start:start + w.size].reshape(w.shape))
            start += w.size
            bs.append(flat[start:start + b.size])
            start += b.size
        views.append((ws, bs))
    return views


class FlatGradient:
    """A flat gradient vector in `pack_params` order and, per net, the per-layer
    dW and db views into it that `Mlp.backward` fills."""

    def __init__(self, model: GmVae):
        self.flat = np.empty(model.encoder.n_params() + model.decoder.n_params())
        self.nets = _layer_views(model, self.flat)


def backward(model: GmVae, cache: BatchCache, out: FlatGradient) -> np.ndarray:
    """Gradient of the batch objective, responsibilities held fixed, written into
    and returned as `out.flat` (`pack_params` order)."""
    (enc_dws, enc_dbs), (dec_dws, dec_dbs) = out.nets
    mix = cache.mix
    beta = model.beta
    d = model.latent_dim
    mu = cache.enc_acts[-1][:, :d]
    g_x_hat = (cache.dec_acts[-1] - cache.x) / model.decoder_var
    _, _, g_z = model.decoder.backward(cache.dec_acts, g_x_hat, dec_dws, dec_dbs)
    # with g_z the loss gradient at z and s_c, m_c the cluster variances and means:
    # dL/dmu = g_z + sum_c gamma_c (mu - m_c) / s_c + beta mu
    # dL/dlogvar = (g_z sigma eps + var (sum_c gamma_c / s_c + beta) - 1 - beta) / 2
    precision = cache.gamma @ mix.inv_var
    g_enc = np.empty((mu.shape[0], 2 * d))  # [dL/dmu, dL/dlogvar], the encoder's output
    np.add(g_z + mu * precision - cache.gamma @ mix.mean_over_var, beta * mu, out=g_enc[:, :d])
    np.multiply(0.5, g_z * cache.std_eps + cache.var * (precision + beta) - 1.0 - beta,
                out=g_enc[:, d:])
    model.encoder.backward(cache.enc_acts, g_enc, enc_dws, enc_dbs, input_grad=False)
    return out.flat


def pack_params(model: GmVae) -> tuple[np.ndarray, tuple]:
    """Move the encoder and decoder arrays into one flat float64 vector.

    The nets' weights and biases become views into the returned vector, so
    updating it in place updates the model. The order is the encoder, then
    the decoder, each layer's weights before its biases. Returns the vector
    and its (name, size) layout, e.g. ("enc.w0", 1600).
    """
    nets = (("enc.", model.encoder), ("dec.", model.decoder))
    theta = np.concatenate([a.ravel() for _, net in nets
                            for pair in zip(net.weights, net.biases) for a in pair])
    layout = []
    for (prefix, net), (ws, bs) in zip(nets, _layer_views(model, theta)):
        net.weights[:], net.biases[:] = ws, bs
        layout += [(f"{prefix}{kind}{i}", arrays[i].size)
                   for i in range(net.n_layers) for kind, arrays in (("w", ws), ("b", bs))]
    return theta, tuple(layout)


def _last_good(epoch: int) -> str:
    return f"last good epoch {epoch - 1}" if epoch else "no completed epoch"


def train(model: GmVae, x_train: np.ndarray, cfg: TrainConfig,
          progress=None) -> dict[str, np.ndarray]:
    """Train `model` in place on the (n, data_dim) matrix; returns the history.

    The history maps each `history.csv` column group to one array with a
    row per epoch: the objective terms named in `ElboTerms.COLUMNS`, each
    (epochs,), then the mixture after the epoch's EM pass as `pi` (epochs,
    K), `mean` and `var` (epochs, K, d).

    Deterministic for a fixed seed: the same permutations, noise draws and
    update order replay exactly. Each epoch draws its permutation, then one
    (n, latent_dim) noise block sliced per batch, then the re-embed noise.
    `progress`, if given, is called as progress(epoch, terms) after each
    epoch, with the epoch's objective (see the module docstring).
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
    n = x_train.shape[0]
    if n == 0:
        raise InputError("train needs a non-empty training set")
    if cfg.batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {cfg.batch_size}")
    if cfg.epochs < 0:
        raise InputError(f"epochs must be >= 0, got {cfg.epochs}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta, layout = pack_params(model)
    grad = FlatGradient(model)
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay, layout=layout)
    shape = (cfg.epochs, *model.gmm.means.shape)
    history = {name: np.empty(cfg.epochs) for name in ElboTerms.COLUMNS}
    history |= {"pi": np.empty(shape[:2]), "mean": np.empty(shape), "var": np.empty(shape)}

    for epoch in range(cfg.epochs):
        mix = MixtureConstants.of(model.gmm)  # the mixture changes only in em_step
        perm = rng.permutation(n)
        noise = rng.standard_normal((n, model.latent_dim))
        for batch, start in enumerate(range(0, n, cfg.batch_size)):
            stop = start + cfg.batch_size
            try:
                cache = batch_loss(model, x_train[perm[start:stop]], noise[start:stop], mix)
                adam_step(theta, backward(model, cache, grad), adam)
            except NumericalError as e:
                raise NumericalError(f"epoch {epoch}, batch {batch}: {e} ({_last_good(epoch)})")

        try:
            emb = encode(model, x_train, rng=rng)
            gamma = _responsibilities(mix, emb.z)
            terms = elbo(model, x_train, emb, gamma)
        except NumericalError as e:
            raise NumericalError(f"epoch {epoch}, re-embed pass: {e} ({_last_good(epoch)})")
        if not np.isfinite(terms.total_loss):
            raise NumericalError(f"non-finite objective at epoch {epoch} ({_last_good(epoch)})")
        for i in range(cfg.n_em):
            model.gmm = em_step(model.gmm, emb, variance_floor=cfg.variance_floor,
                                gamma=None if i else gamma)

        epoch_terms = ElboTerms(*(v / n for v in astuple(terms)))
        for name in ElboTerms.COLUMNS:
            history[name][epoch] = getattr(epoch_terms, name)
        gmm = model.gmm
        history["pi"][epoch], history["mean"][epoch], history["var"][epoch] = \
            gmm.pi, gmm.means, gmm.variances
        if progress is not None:
            progress(epoch, epoch_terms)
    return history


def embed_dataset(model: GmVae, x: np.ndarray) -> tuple[LatentEmbedding, np.ndarray]:
    """Deterministic posterior-mean embeddings plus their responsibilities."""
    emb = encode(model, x, eps=np.zeros(1))
    gamma = responsibilities(model.gmm, emb.mu)
    return emb, gamma
