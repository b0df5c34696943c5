"""Mixture-prior VAE: model types, responsibilities, EM update, sampling.

The generative model is c ~ Cat(pi), z | c ~ N(mean_c, diag var_c),
x | z ~ N(decoder(z), decoder_var * I). The encoder emits [mu, log var]
and sampling uses the reparameterization z = mu + sqrt(var) * eps.

The per-sample objective has four ELBO terms (reconstruction log-density,
responsibility-weighted cluster term, posterior entropy, categorical term)
plus a beta-weighted KL pull toward the standard normal; training minimizes
-(ELBO) + regularizer summed over the batch. `train.batch_terms` evaluates
it from a training forward pass (`train.batch_loss`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..config import ModelConfig, TrainConfig
from ..errors import ContractError, InputError, NumericalError
from ..ndmath import Mlp

LOG_2PI = float(np.log(2.0 * np.pi))


@dataclass(frozen=True)
class GmmParams:
    """Mixture weights plus per-cluster diagonal Gaussians.

    Frozen: only `em_step` makes a new mixture, so the constants that
    responsibilities and gradients read are computed once per mixture, on
    first use. The mixture is validated where it is made from data (`em_step`,
    `load_checkpoint`), not here: `sample` decodes degenerate mixtures too.
    """

    pi: np.ndarray        # (K,)
    means: np.ndarray     # (K, d)
    variances: np.ndarray  # (K, d)

    @property
    def n_clusters(self) -> int:
        return self.pi.shape[0]

    @cached_property
    def log_pi(self) -> np.ndarray:  # (K,) log pi, -inf where pi is 0
        with np.errstate(divide="ignore"):  # pi entries may be exactly 0
            return np.log(self.pi)

    @cached_property
    def logdet(self) -> np.ndarray:  # (K,) sum_j log(2 pi var_cj)
        return np.sum(np.log(self.variances) + LOG_2PI, axis=1)

    @cached_property
    def inv_var(self) -> np.ndarray:  # (K, d) 1 / var
        return 1.0 / self.variances

    @cached_property
    def mean_over_var(self) -> np.ndarray:  # (K, d) mean / var
        return self.means / self.variances

    def validate(self) -> None:
        for name in ("pi", "means", "variances"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ContractError(f"mixture {name} must be finite, got {getattr(self, name)}")
        if abs(self.pi.sum() - 1.0) > 1e-12 or np.any(self.pi < 0):
            raise ContractError(f"mixture weights must form a simplex, got {self.pi}")
        if np.any(self.variances <= 0):
            raise ContractError("cluster variances below the variance floor")


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
    def init(cls, data_dim: int, cfg: ModelConfig, rng: np.random.Generator) -> "GmVae":
        """Fresh model: Glorot nets, cluster means uniform in [-1, 1], unit variances."""
        hidden, d, k = list(cfg.hidden_dims), cfg.latent_dim, cfg.n_clusters
        encoder = Mlp.init([data_dim] + hidden + [2 * d], rng)
        decoder = Mlp.init([d] + hidden[::-1] + [data_dim], rng)
        gmm = GmmParams(pi=np.full(k, 1.0 / k), means=rng.uniform(-1.0, 1.0, size=(k, d)),
                        variances=np.ones((k, d)))
        return cls(encoder=encoder, decoder=decoder, latent_dim=d,
                   decoder_var=float(cfg.decoder_var), beta=float(cfg.beta), gmm=gmm)

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


def _log_joint(gmm: GmmParams, z) -> tuple[np.ndarray, np.ndarray]:
    """log pi_c + log N(z_n | mean_c, diag var_c) as (n, K), and its log-sum-exp
    over c as (n, 1)."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    diff = z[:, None, :] - gmm.means  # (n, K, d)
    log_joint = gmm.log_pi + -0.5 * (gmm.logdet + (diff * diff / gmm.variances).sum(axis=2))
    top = log_joint.max(axis=1, keepdims=True)
    return log_joint, top + np.log(np.exp(log_joint - top).sum(axis=1, keepdims=True))


def responsibilities(gmm: GmmParams, z: np.ndarray) -> np.ndarray:
    """Posterior cluster probabilities (n, K) of latent points, computed in log space."""
    log_joint, log_norm = _log_joint(gmm, z)
    return np.exp(log_joint - log_norm)


def gmm_log_likelihood(gmm: GmmParams, z: np.ndarray) -> float:
    """Total marginal log-likelihood sum_n log sum_c pi_c N(z_n | c)."""
    return float(np.sum(_log_joint(gmm, z)[1]))


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
    elif gamma.shape != (n, gmm.n_clusters):
        raise ContractError(f"gamma shape {gamma.shape}, expected {(n, gmm.n_clusters)}")
    elif np.max(np.abs(gamma.sum(axis=1) - 1.0)) > 1e-9:
        raise ContractError("gamma rows must sum to 1")
    mass = gamma.sum(axis=0)  # (K,)
    means, variances = gmm.means.copy(), gmm.variances.copy()
    for c in range(gmm.n_clusters):
        if mass[c] < 1e-12:
            warnings.warn(f"cluster {c} received ~zero responsibility mass; keeping its parameters")
            continue
        w = gamma[:, c : c + 1]
        mean_c = (w * emb.mu).sum(axis=0) / mass[c]
        var_c = (w * ((emb.mu - mean_c) ** 2 + emb.var)).sum(axis=0) / mass[c]
        means[c] = mean_c
        variances[c] = np.maximum(var_c, variance_floor)
    pi = mass / n  # divided by its sum below to guard the simplex against roundoff
    new = GmmParams(pi=pi / pi.sum(), means=means, variances=variances)
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
