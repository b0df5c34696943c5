"""Mixture-prior VAE: model types, the E-step and M-step of EM, sampling.

The generative model is c ~ Cat(pi), z | c ~ N(mean_c, diag var_c),
x | z ~ N(decoder(z), decoder_var * I). The encoder emits [mu, log var];
`_posterior` is the one place that splits it, exponentiates the log-variance
and rejects a non-finite or overflowing output, for `encode` (the posterior
(mu, var)) and for training, which samples it with the reparameterization
z = mu + sqrt(var) * eps (`train.batch_loss`).

EM on the mixture is `responsibilities` (the E-step: gamma at latent points)
then `em_step` (the M-step: moment updates from gamma and the posterior).

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
from itertools import permutations

import numpy as np

from ..config import ModelConfig, TrainConfig
from ..errors import InputError, NumericalError, numerical_failures
from ..ndmath import Mlp

LOG_2PI = float(np.log(2.0 * np.pi))
MAX_LOG = float(np.log(np.finfo(np.float64).max))  # the largest x whose exp is finite


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
                raise InputError(f"mixture {name} must be finite, got {getattr(self, name)}")
        # the range is checked first, so that the sum cannot overflow
        if np.any((self.pi < 0) | (self.pi > 1)) or abs(self.pi.sum() - 1.0) > 1e-12:
            raise InputError(f"mixture weights must form a simplex, got {self.pi}")
        if np.any(self.variances <= 0):
            raise InputError("cluster variances below the variance floor")
        with np.errstate(over="ignore"):  # an overflowing reciprocal is rejected here
            if not np.isfinite(self.inv_var).all():
                raise InputError("cluster variances too small: 1 / variance overflows")


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


def _posterior(model: GmVae, out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(mu, log var, var) from the encoder output [mu, log var]; mu and log var
    are views. The one split of that output, for training and `encode` alike."""
    if not np.isfinite(out).all():
        raise NumericalError("encoder produced non-finite output")
    d = model.latent_dim
    mu, logvar = out[:, :d], out[:, d:]
    if (logvar > MAX_LOG).any():  # raised here, before exp can overflow
        raise NumericalError("encoder log-variance overflows: non-finite posterior variance")
    return mu, logvar, np.exp(logvar)


def encode(model: GmVae, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The posterior (mu, var) of a batch, each (n, latent_dim)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    with numerical_failures("encoder"):
        out = model.encoder.forward(x)[-1]
    mu, _, var = _posterior(model, out)
    return mu, var


def decode(model: GmVae, z: np.ndarray) -> np.ndarray:
    """Decoded reconstruction means for a batch of latent points."""
    with numerical_failures("decoder"):
        out = model.decoder.forward(np.atleast_2d(np.asarray(z, dtype=np.float64)))[-1]
    if not np.all(np.isfinite(out)):  # from a non-finite z, which raises no flag
        raise NumericalError("decoder produced non-finite output")
    return out


def _log_joint(gmm: GmmParams, z) -> tuple[np.ndarray, np.ndarray]:
    """log pi_c + log N(z_n | mean_c, diag var_c) as (K, n), and its log-sum-exp
    over c as (n,).

    Cluster-major, so every inner loop runs over the n points. numpy sums an
    axis shorter than 8 left to right whether or not it is contiguous, so for
    K and d below 8 this gives the bytes of the (n, K, d) broadcast form.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    if z.shape[1:] != gmm.means.shape[1:]:
        raise InputError(f"latent points have shape {z.shape}, expected (n, {gmm.means.shape[1]})")
    with numerical_failures("E-step"):
        diff = z.T - gmm.means[:, :, None]  # (K, d, n)
        diff *= diff
        diff /= gmm.variances[:, :, None]
        log_joint = gmm.log_pi[:, None] + -0.5 * (gmm.logdet[:, None] + diff.sum(axis=1))
        top = log_joint.max(axis=0)
        return log_joint, top + np.log(np.exp(log_joint - top).sum(axis=0))


def responsibilities(gmm: GmmParams, z: np.ndarray) -> np.ndarray:
    """The E-step: cluster probabilities of latent points, in log space, as a
    C-contiguous (n, K) array."""
    log_joint, log_norm = _log_joint(gmm, z)
    gamma = np.subtract(log_joint.T, log_norm[:, None], order="C")
    return np.exp(gamma, out=gamma)


def gmm_log_likelihood(gmm: GmmParams, z: np.ndarray) -> float:
    """Total marginal log-likelihood sum_n log sum_c pi_c N(z_n | c)."""
    return float(np.sum(_log_joint(gmm, z)[1]))


def em_step(gmm: GmmParams, gamma: np.ndarray, mu: np.ndarray, var: np.ndarray,
            variance_floor: float = TrainConfig.variance_floor) -> GmmParams:
    """The M-step: the mixture that the responsibilities `gamma` (n, K) and the
    posterior `mu`, `var` (n, d) give.

    Cluster means average the posterior means; variances add the posterior
    variances to the spread around the new mean, clamped at the floor.
    Each is one product of the cluster's responsibilities with the rows, and
    the spread is taken around the new mean (two passes), not expanded.
    A cluster whose responsibility mass underflows keeps its parameters.
    """
    if mu.shape[1:] != gmm.means.shape[1:]:
        raise InputError(f"em_step: mu has shape {mu.shape}, expected (n, {gmm.means.shape[1]})")
    n = mu.shape[0]
    if n < 1:
        raise InputError("em_step needs at least one sample")
    if var.shape != mu.shape:
        raise InputError(f"em_step: var has shape {var.shape}, expected mu's {mu.shape}")
    if gamma.shape != (n, gmm.n_clusters):
        raise InputError(f"em_step: gamma has shape {gamma.shape}, expected {(n, gmm.n_clusters)}")
    gmm.validate()
    mass = gamma.sum(axis=0)  # (K,)
    means, variances = gmm.means.copy(), gmm.variances.copy()
    for c in range(gmm.n_clusters):
        if mass[c] < 1e-12:
            warnings.warn(f"cluster {c} received ~zero responsibility mass; keeping its parameters")
            continue
        w = gamma[:, c]
        mean_c = (w @ mu) / mass[c]
        var_c = (w @ ((mu - mean_c) ** 2 + var)) / mass[c]
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
    eps = rng.standard_normal((count, model.latent_dim))
    z = model.gmm.means[ids] + np.sqrt(model.gmm.variances[ids]) * eps
    return decode(model, z), ids


def permutation_accuracy(pred_clusters: np.ndarray, true_labels) -> tuple[float, dict]:
    """Best accuracy over one-to-one cluster -> label assignments.

    Mixture components carry no intrinsic label order, so agreement is scored
    after choosing the best mapping; returns (accuracy, mapping). With more
    clusters than labels, the clusters left out of the mapping score nothing.
    """
    pred_clusters, true_labels = np.asarray(pred_clusters), np.asarray(true_labels)
    n = len(true_labels)
    if n == 0:
        raise InputError("permutation_accuracy needs at least one sample")
    if len(pred_clusters) != n:
        raise InputError(f"permutation_accuracy: {len(pred_clusters)} predictions "
                         f"for {n} labels")
    clusters, c = np.unique(pred_clusters.astype(int), return_inverse=True)
    labels, t = np.unique(true_labels, return_inverse=True)
    nc, nl = len(clusters), len(labels)
    counts = np.bincount(c * nl + t, minlength=nc * nl).reshape(nc, nl)
    if nc <= nl:  # every label order for the clusters in turn
        assignments = ((range(nc), p) for p in permutations(range(nl), nc))
    else:
        assignments = ((p, range(nl)) for p in permutations(range(nc), nl))
    # each assignment is (cluster positions, label positions); max keeps the first best
    rows, cols = max(assignments, key=lambda a: counts[list(a[0]), list(a[1])].sum())
    clusters, labels = clusters.tolist(), labels.tolist()
    return (counts[list(rows), list(cols)].sum().item() / n,
            {clusters[i]: labels[j] for i, j in sorted(zip(rows, cols))})
