"""EM-alternating training loop with analytic backprop.

Each epoch runs Adam minibatch descent on the negative ELBO plus the
beta-KL regularizer, then re-embeds the full training set and applies the
scheduled number of EM updates to the mixture parameters. Within a batch
the responsibilities are held fixed, so the objective has a closed-form
gradient with respect to the decoded sample, the posterior mean and the
posterior log-variance (through the reparameterization z = mu + sigma *
eps); `backward` chains it through the decoder and encoder. All network
parameters live in one flat vector that Adam updates in place.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..config import TrainConfig
from ..errors import InputError, NumericalError
from ..ndmath import AdamState, adam_step
from .model import (
    ElboTerms,
    GmVae,
    LatentEmbedding,
    _objective_terms,
    encode,
    em_step,
    responsibilities,
)


@dataclass
class TrainHistory:
    """Per-epoch objective terms (per-sample means) and mixture snapshots."""

    terms: list = field(default_factory=list)      # list of ElboTerms
    pi: list = field(default_factory=list)         # list of (K,) arrays
    means: list = field(default_factory=list)      # list of (K, d) arrays
    variances: list = field(default_factory=list)  # list of (K, d) arrays

    def __len__(self):
        return len(self.terms)

    def append(self, terms: ElboTerms, gmm) -> None:
        self.terms.append(terms)
        self.pi.append(gmm.pi.copy())
        self.means.append(gmm.means.copy())
        self.variances.append(gmm.variances.copy())


@dataclass
class BatchCache:
    """Forward values of one batch that `backward` reuses."""

    x: np.ndarray
    gamma: np.ndarray     # (n, K) responsibilities, held fixed
    var: np.ndarray       # (n, d) posterior variance
    std_eps: np.ndarray   # (n, d) sigma * eps, so z = mu + std_eps
    enc_acts: list        # encoder activations; the last is [mu, log var]
    dec_acts: list        # decoder activations; the last is x_hat


def batch_loss(model: GmVae, x: np.ndarray, eps: np.ndarray,
               gamma: np.ndarray | None = None):
    """Training objective for one batch; returns (loss, ElboTerms, BatchCache).

    Runs encoder -> reparameterized z -> decoder. Responsibilities are
    evaluated at the sampled z from the current mixture and held fixed (no
    gradient flows through them) unless a fixed `gamma` is supplied.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    d = model.latent_dim
    enc_acts = model.encoder.forward(x)
    mu = enc_acts[-1][:, :d]
    logvar = enc_acts[-1][:, d:]
    var = np.exp(logvar)
    std_eps = np.exp(0.5 * logvar) * eps
    z = mu + std_eps
    if not np.all(np.isfinite(z)):
        raise NumericalError("encoder produced non-finite latent state")
    if gamma is None:
        gamma = responsibilities(model.gmm, z)
    dec_acts = model.decoder.forward(z)
    terms = _objective_terms(model, x, dec_acts[-1], mu, var, logvar, gamma)
    cache = BatchCache(x=x, gamma=gamma, var=var, std_eps=std_eps,
                       enc_acts=enc_acts, dec_acts=dec_acts)
    return terms.total_loss, terms, cache


def backward(model: GmVae, cache: BatchCache) -> np.ndarray:
    """Gradient of `batch_loss`'s loss, responsibilities held fixed, as one flat
    vector in `pack_params` order."""
    gmm = model.gmm
    beta = model.beta
    mu = cache.enc_acts[-1][:, :model.latent_dim]
    x_hat = cache.dec_acts[-1]
    dec_dw, dec_db, g_z = model.decoder.backward(cache.dec_acts,
                                                 (x_hat - cache.x) / model.decoder_var)
    # with g_z the loss gradient at z and s_c, m_c the cluster variances and means:
    # dL/dmu = g_z + sum_c gamma_c (mu - m_c) / s_c + beta mu
    # dL/dlogvar = (g_z sigma eps + var (sum_c gamma_c / s_c + beta) - 1 - beta) / 2
    precision = cache.gamma @ (1.0 / gmm.variances)
    g_mu = g_z + mu * precision - cache.gamma @ (gmm.means / gmm.variances) + beta * mu
    g_logvar = 0.5 * (g_z * cache.std_eps + cache.var * (precision + beta) - 1.0 - beta)
    enc_dw, enc_db, _ = model.encoder.backward(cache.enc_acts, np.hstack([g_mu, g_logvar]))
    return np.concatenate([g.ravel() for dws, dbs in ((enc_dw, enc_db), (dec_dw, dec_db))
                           for pair in zip(dws, dbs) for g in pair])


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
    layout, start = [], 0
    for prefix, net in nets:
        for i in range(net.n_layers):
            for kind, arrays in (("w", net.weights), ("b", net.biases)):
                size = arrays[i].size
                arrays[i] = theta[start:start + size].reshape(arrays[i].shape)
                layout.append((f"{prefix}{kind}{i}", size))
                start += size
    return theta, tuple(layout)


def _last_good(epoch: int) -> str:
    return f"last good epoch {epoch - 1}" if epoch else "no completed epoch"


def train(model: GmVae, x_train: np.ndarray, cfg: TrainConfig,
          progress=None) -> TrainHistory:
    """Train `model` in place on the (n, data_dim) matrix; returns the history.

    Deterministic for a fixed seed: the same permutations, noise draws and
    update order replay exactly. `progress`, if given, is called as
    progress(epoch, terms) after each epoch.
    """
    x_train = np.atleast_2d(np.asarray(x_train, dtype=np.float64))
    n = x_train.shape[0]
    if n == 0:
        raise InputError("train needs a non-empty training set")
    if cfg.batch_size < 1:
        raise InputError(f"batch_size must be >= 1, got {cfg.batch_size}")
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta, layout = pack_params(model)
    adam = AdamState(lr=cfg.lr, weight_decay=cfg.weight_decay, layout=layout)
    history = TrainHistory()

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        sums = np.zeros(5)
        for start in range(0, n, cfg.batch_size):
            batch = start // cfg.batch_size
            rows = perm[start:start + cfg.batch_size]
            eps = rng.standard_normal((len(rows), model.latent_dim))
            try:
                loss, terms, cache = batch_loss(model, x_train[rows], eps)
            except NumericalError as e:
                raise NumericalError(f"epoch {epoch}, batch {batch}: {e} ({_last_good(epoch)})")
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {batch} ({_last_good(epoch)})")
            grad = backward(model, cache)
            adam_step(theta, grad, adam)
            sums += np.array([terms.recon, terms.cluster_kl, terms.posterior_entropy,
                              terms.categorical_term, terms.reg])

        emb = encode(model, x_train, rng=rng)
        for _ in range(cfg.n_em):
            model.gmm = em_step(model.gmm, emb, variance_floor=cfg.variance_floor)

        epoch_terms = ElboTerms(*(sums / n))
        history.append(epoch_terms, model.gmm)
        if progress is not None:
            progress(epoch, epoch_terms)
    return history


def embed_dataset(model: GmVae, x: np.ndarray) -> tuple[LatentEmbedding, np.ndarray]:
    """Deterministic posterior-mean embeddings plus their responsibilities."""
    emb = encode(model, x, eps=np.zeros(1))
    gamma = responsibilities(model.gmm, emb.mu)
    return emb, gamma
