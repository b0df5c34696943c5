"""Mixture-prior VAE: model types, ELBO terms, responsibilities, EM update.

The generative model is c ~ Cat(pi), z | c ~ N(mean_c, diag var_c),
x | z ~ N(decoder(z), decoder_var * I). The encoder emits [mu, log var]
and sampling uses the reparameterization z = mu + sqrt(var) * eps.

The per-sample objective has four ELBO terms (reconstruction log-density,
responsibility-weighted cluster term, posterior entropy, categorical term)
plus a beta-weighted KL pull toward the standard normal; training minimizes
-(ELBO) + regularizer summed over the batch.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ..config import TrainConfig
from ..errors import ContractError, InputError, NumericalError
from ..ndmath import Mlp

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass
class GmmParams:
    """Mixture weights plus per-cluster diagonal Gaussians."""

    pi: np.ndarray        # (K,)
    means: np.ndarray     # (K, d)
    variances: np.ndarray  # (K, d)

    @property
    def n_clusters(self) -> int:
        return self.pi.shape[0]

    def validate(self) -> None:
        for name in ("pi", "means", "variances"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ContractError(f"mixture {name} must be finite, got {getattr(self, name)}")
        if abs(self.pi.sum() - 1.0) > 1e-12 or np.any(self.pi < 0):
            raise ContractError(f"mixture weights must form a simplex, got {self.pi}")
        if np.any(self.variances <= 0):
            raise ContractError("cluster variances below the variance floor")

    def copy(self) -> "GmmParams":
        return GmmParams(self.pi.copy(), self.means.copy(), self.variances.copy())


@dataclass
class LatentEmbedding:
    """Batch of posterior Gaussians and their samples (all (n, d))."""

    mu: np.ndarray
    var: np.ndarray
    z: np.ndarray


@dataclass
class ElboTerms:
    """Batch-summed objective pieces.

    total_loss = -(recon + cluster_kl + posterior_entropy + categorical_term) + reg
    """

    recon: float
    cluster_kl: float
    posterior_entropy: float
    categorical_term: float
    reg: float

    # the objective's history.csv columns: the fields, then total_loss
    COLUMNS = ("recon", "cluster_kl", "posterior_entropy", "categorical_term", "reg", "total_loss")

    @property
    def elbo(self) -> float:
        return self.recon + self.cluster_kl + self.posterior_entropy + self.categorical_term

    @property
    def total_loss(self) -> float:
        return -self.elbo + self.reg


@dataclass
class GmVae:
    encoder: Mlp
    decoder: Mlp
    latent_dim: int
    decoder_var: float
    beta: float
    gmm: GmmParams

    @classmethod
    def init(cls, data_dim: int, latent_dim: int, n_clusters: int, hidden_dims,
             decoder_var: float, beta: float, rng: np.random.Generator) -> "GmVae":
        """Fresh model: Glorot nets, cluster means uniform in [-1, 1], unit variances."""
        if decoder_var <= 0:
            raise InputError(f"decoder_var must be > 0, got {decoder_var}")
        if beta < 0:
            raise InputError(f"beta must be >= 0, got {beta}")
        hidden = list(hidden_dims)
        encoder = Mlp.init([data_dim] + hidden + [2 * latent_dim], rng)
        decoder = Mlp.init([latent_dim] + hidden[::-1] + [data_dim], rng)
        gmm = GmmParams(
            pi=np.full(n_clusters, 1.0 / n_clusters),
            means=rng.uniform(-1.0, 1.0, size=(n_clusters, latent_dim)),
            variances=np.ones((n_clusters, latent_dim)),
        )
        return cls(encoder=encoder, decoder=decoder, latent_dim=latent_dim,
                   decoder_var=float(decoder_var), beta=float(beta), gmm=gmm)

    @property
    def data_dim(self) -> int:
        return self.encoder.layer_dims[0]


def _posterior(model: GmVae, out: np.ndarray, eps) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, var, sqrt(var) * eps) from the encoder output [mu, log var]; mu is a view."""
    d = model.latent_dim
    var = np.exp(out[:, d:])
    return out[:, :d], var, np.sqrt(var) * eps


def encode(model: GmVae, x: np.ndarray, eps: np.ndarray | float) -> LatentEmbedding:
    """Posterior parameters and the reparameterized sample z = mu + sqrt(var) * eps.

    `eps` broadcasts against (n, latent_dim): the caller's standard-normal
    draw, or 0.0 for z = mu.
    """
    out = model.encoder.infer(np.atleast_2d(np.asarray(x, dtype=np.float64)))
    if not np.all(np.isfinite(out)):
        raise NumericalError("encoder produced non-finite output")
    mu, var, std_eps = _posterior(model, out, np.asarray(eps, dtype=np.float64))
    return LatentEmbedding(mu=mu, var=var, z=mu + std_eps)


def decode(model: GmVae, z: np.ndarray) -> np.ndarray:
    """Decoded reconstruction means for a batch of latent points."""
    out = model.decoder.infer(np.atleast_2d(np.asarray(z, dtype=np.float64)))
    if not np.all(np.isfinite(out)):
        raise NumericalError("decoder produced non-finite output")
    return out


@dataclass
class MixtureConstants:
    """Quantities of one fixed mixture that responsibilities and gradients read.

    The mixture changes only in `em_step`, so the training loop computes
    these once per epoch instead of once per batch.
    """

    means: np.ndarray          # (K, d)
    variances: np.ndarray      # (K, d)
    log_pi: np.ndarray         # (K,), -inf where pi is 0
    logdet: np.ndarray         # (K,) sum_j log(2 pi var_cj)
    inv_var: np.ndarray        # (K, d) 1 / var
    mean_over_var: np.ndarray  # (K, d) mean / var

    @classmethod
    def of(cls, gmm: GmmParams) -> "MixtureConstants":
        with np.errstate(divide="ignore"):  # pi entries may be exactly 0
            log_pi = np.log(gmm.pi)
        return cls(means=gmm.means, variances=gmm.variances, log_pi=log_pi,
                   logdet=np.sum(np.log(gmm.variances) + LOG_2PI, axis=1),
                   inv_var=1.0 / gmm.variances, mean_over_var=gmm.means / gmm.variances)


def _as_rows(z) -> np.ndarray:
    return np.atleast_2d(np.asarray(z, dtype=np.float64))


def _log_joint(mix: MixtureConstants, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log pi_c + log N(z_n | mean_c, diag var_c) as (n, K), and its log-sum-exp
    over c as (n, 1)."""
    diff = z[:, None, :] - mix.means  # (n, K, d)
    log_joint = mix.log_pi + -0.5 * (mix.logdet + (diff * diff / mix.variances).sum(axis=2))
    top = log_joint.max(axis=1, keepdims=True)
    return log_joint, top + np.log(np.exp(log_joint - top).sum(axis=1, keepdims=True))


def _responsibilities(mix: MixtureConstants, z: np.ndarray) -> np.ndarray:
    """`responsibilities` under precomputed mixture constants; z is (n, d) float64."""
    log_joint, log_norm = _log_joint(mix, z)
    return np.exp(log_joint - log_norm)


def responsibilities(gmm: GmmParams, z: np.ndarray) -> np.ndarray:
    """Posterior cluster probabilities (n, K) of latent points, computed in log space.
    The mixture is validated where it changes (`em_step`, `load_checkpoint`), not here."""
    return _responsibilities(MixtureConstants.of(gmm), _as_rows(z))


def gmm_log_likelihood(gmm: GmmParams, z: np.ndarray) -> float:
    """Total marginal log-likelihood sum_n log sum_c pi_c N(z_n | c)."""
    return float(np.sum(_log_joint(MixtureConstants.of(gmm), _as_rows(z))[1]))


def _check_gamma(gamma: np.ndarray, n: int, k: int) -> None:
    if gamma.shape != (n, k):
        raise ContractError(f"gamma shape {gamma.shape}, expected {(n, k)}")
    if np.max(np.abs(gamma.sum(axis=1) - 1.0)) > 1e-9:
        raise ContractError("gamma rows must sum to 1")


def elbo(model: GmVae, x: np.ndarray, emb: LatentEmbedding, gamma: np.ndarray) -> ElboTerms:
    """Batch-summed ELBO terms for given embeddings and fixed responsibilities."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    _check_gamma(gamma, x.shape[0], model.gmm.n_clusters)
    return _objective_terms(model, x, decode(model, emb.z), emb.mu, emb.var,
                            np.log(emb.var), gamma)


def _objective_terms(model: GmVae, x: np.ndarray, x_hat: np.ndarray, mu: np.ndarray,
                     var: np.ndarray, logvar: np.ndarray, gamma: np.ndarray) -> ElboTerms:
    """Batch-summed objective terms from one forward pass.

    `x_hat` is the decoded sample, `mu`/`var`/`logvar` the posterior
    parameters and `gamma` the responsibilities, all for the batch `x`.
    Both `elbo` and the training step evaluate the objective here.
    """
    n, data_dim = x.shape
    gmm = model.gmm
    err = x - x_hat
    err *= err
    sq_err = err.sum()
    recon = -0.5 * (n * data_dim * (LOG_2PI + np.log(model.decoder_var))
                    + sq_err / model.decoder_var)

    # responsibility-weighted expected log-density under each cluster
    mu_diff = mu[:, None, :] - gmm.means[None, :, :]
    inner = (np.log(gmm.variances)[None, :, :] + LOG_2PI
             + (var[:, None, :] + mu_diff**2) / gmm.variances[None, :, :])
    cluster_kl = -0.5 * float(np.sum(gamma * inner.sum(axis=2)))

    posterior_entropy = 0.5 * float(np.sum(logvar + LOG_2PI + 1.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        cat = gamma * (np.log(gmm.pi)[None, :] - np.log(gamma))
    categorical_term = float(np.sum(np.where(gamma > 0.0, cat, 0.0)))

    reg = 0.5 * model.beta * float(np.sum(mu**2 + var - 1.0 - logvar))
    return ElboTerms(recon=float(recon), cluster_kl=cluster_kl,
                     posterior_entropy=posterior_entropy,
                     categorical_term=categorical_term, reg=reg)


def em_step(gmm: GmmParams, emb: LatentEmbedding,
            variance_floor: float = TrainConfig.variance_floor,
            gamma: np.ndarray | None = None) -> GmmParams:
    """One EM pass: responsibilities at the sampled z, then moment updates.

    Cluster means average the posterior means; variances add the posterior
    variances to the spread around the new mean, clamped at the floor.
    A cluster whose responsibility mass underflows keeps its parameters.
    `gamma`, if given, must be `responsibilities(gmm, emb.z)`, which a
    caller that already has them passes instead of recomputing them.
    """
    n = emb.mu.shape[0]
    if n < 1:
        raise ContractError("em_step needs at least one sample")
    gmm.validate()
    if gamma is None:
        gamma = responsibilities(gmm, emb.z)  # (n, K)
    else:
        _check_gamma(gamma, n, gmm.n_clusters)
    mass = gamma.sum(axis=0)  # (K,)
    new = gmm.copy()
    for c in range(gmm.n_clusters):
        if mass[c] < 1e-12:
            warnings.warn(f"cluster {c} received ~zero responsibility mass; keeping its parameters")
            continue
        w = gamma[:, c : c + 1]
        mean_c = (w * emb.mu).sum(axis=0) / mass[c]
        var_c = (w * ((emb.mu - mean_c) ** 2 + emb.var)).sum(axis=0) / mass[c]
        new.means[c] = mean_c
        new.variances[c] = np.maximum(var_c, variance_floor)
    new.pi = mass / n
    new.pi = new.pi / new.pi.sum()  # guard the simplex against roundoff
    new.validate()
    return new


def sample(model: GmVae, count: int, rng: np.random.Generator,
           cluster: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Draw latent points from the mixture and decode them.

    Conditional when `cluster` is given, otherwise the cluster is drawn from
    pi per sample. Returns (decoded curves (count, data_dim), cluster ids).
    """
    k = model.gmm.n_clusters
    if cluster is not None and not (0 <= cluster < k):
        raise InputError(f"cluster index {cluster} out of range for K={k}")
    if count < 0:
        raise InputError(f"count must be >= 0, got {count}")
    if cluster is None:
        ids = rng.choice(k, size=count, p=model.gmm.pi)
    else:
        ids = np.full(count, cluster, dtype=int)
    if count == 0:
        return np.zeros((0, model.data_dim)), ids
    eps = rng.standard_normal((count, model.latent_dim))
    z = model.gmm.means[ids] + np.sqrt(model.gmm.variances[ids]) * eps
    return decode(model, z), ids


def permutation_accuracy(pred_clusters: np.ndarray, true_labels) -> tuple[float, dict]:
    """Best accuracy over injective cluster -> label assignments.

    Mixture components carry no intrinsic label order, so agreement is scored
    after choosing the best mapping; returns (accuracy, mapping).
    """
    from itertools import permutations

    pred_clusters = np.asarray(pred_clusters)
    true_labels = np.asarray(true_labels)
    clusters = sorted(set(int(c) for c in pred_clusters))
    labels = sorted(set(true_labels.tolist()))
    n = len(true_labels)
    if n == 0:
        raise InputError("permutation_accuracy needs at least one sample")
    if len(pred_clusters) != n:
        raise InputError(f"permutation_accuracy: {len(pred_clusters)} predictions "
                         f"for {n} labels")
    best_acc, best_map = -1.0, {}
    for perm in permutations(labels, min(len(clusters), len(labels))):
        mapping = dict(zip(clusters, perm))
        acc = sum(1 for c, t in zip(pred_clusters, true_labels) if mapping.get(int(c)) == t) / n
        if acc > best_acc:
            best_acc, best_map = acc, mapping
    return best_acc, best_map
