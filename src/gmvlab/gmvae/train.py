"""EM-alternating training loop with analytic backprop.

Each epoch runs Adam minibatch descent on the negative ELBO plus the
beta-KL regularizer, then re-embeds the full training set and runs one EM
update of the mixture parameters: one E-step and one M-step. Within a batch
the responsibilities are held fixed, so the objective has a closed-form
gradient with respect to the decoded sample, the posterior mean and the
posterior log-variance (through the reparameterization z = mu + sqrt(var)
* eps); `backward` chains it through the decoder and encoder. All network
parameters live in one flat vector that Adam updates in place; the
gradient is written into one preallocated vector of the same layout.
`_layer_views` is that layout, written once: the parameters, the gradient
and the names in a gradient error are all views through it. Before each Adam
step `train` squares the gradient once; an entry that is not finite, or whose
square overflows, stops training before any parameter or Adam moment moves.
Each epoch (its batch loop, re-embed pass and EM pass) runs with numpy's
overflow and invalid-operation errors raised, so a blow-up is raised before numpy
can warn. One handler reports it, in one format: `NumericalError("epoch E,
<stage>: <cause> (last good epoch E-1)")`, which ends in `(no completed epoch)`
in epoch 0. `<stage>` is the step that raised: `batch B, forward pass`, `batch B,
gradient` (`backward` and the scan), `batch B, Adam step`, `re-embed pass` (its
forward pass and objective) or `EM pass`.

`train` allocates its workspace once per run, and the epoch loop allocates no
array of n rows by a data or layer width: each epoch refills the shuffled copy of
the training rows (every batch is a row slice of it), the noise, the re-embed
pass's activations and its squared error. What an epoch still allocates is
either batch-sized or n rows by the latent dimension or cluster count.

`batch_loss` is the only forward pass, and the one place the sample
z = mu + sqrt(var) * eps is formed. Its posterior comes from `_posterior`, the
split that `encode` uses too, and its `BatchCache` carries mu and log var to
`batch_terms`, `backward` and the EM pass. Each batch runs it for its gradient, and
the re-embed pass that feeds EM makes the same call once per epoch on the
whole training set. Only that pass evaluates the objective (`batch_terms`): the network after
the epoch's Adam pass, the re-embed noise, responsibilities under the mixture
before the epoch's EM pass and the encoder's raw log-variance output. The
history that `train` returns, and so the history CSV, holds it as per-sample
means.

The EM update's E-step is the re-embed pass's own responsibilities at its z,
and its M-step is `em_step` on them and the pass's posterior mean and variance.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from ..config import TrainConfig
from ..errors import InputError, NumericalError
from ..ndmath import AdamState, adam_step
from .model import (
    LOG_2PI,
    ElboTerms,
    GmVae,
    _posterior,
    em_step,
    encode,
    responsibilities,
)


@dataclass
class BatchCache:
    """Forward values of one batch that `backward` reuses."""

    x: np.ndarray
    gamma: np.ndarray     # (n, K) responsibilities, held fixed
    mu: np.ndarray        # (n, d) posterior mean, a view of enc_acts[-1]
    logvar: np.ndarray    # (n, d) posterior log-variance, a view of enc_acts[-1]
    var: np.ndarray       # (n, d) posterior variance
    std_eps: np.ndarray   # (n, d) sigma * eps, so z = mu + std_eps
    enc_acts: list        # encoder activations; the last is [mu, log var]
    dec_acts: list        # decoder activations; the last is x_hat


def batch_loss(model: GmVae, x: np.ndarray, eps: np.ndarray,
               out: tuple[list, list] | None = None) -> BatchCache:
    """The training forward pass for one batch; returns its cache.

    Runs encoder -> z = mu + sqrt(var) * eps -> decoder (z is `dec_acts[0]`)
    under `model.gmm`, with responsibilities at z held fixed (no gradient
    flows through them). The re-embed pass over the whole training set is the
    same call. `out`, if given, is the (encoder, decoder) pair of activation
    lists that `Mlp.forward` writes into. The objective is
    `batch_terms(model, cache)`, its gradient `backward`; both read
    `model.gmm`, so they follow this pass before the mixture changes.
    """
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    enc_out, dec_out = out or (None, None)
    enc_acts = model.encoder.forward(x, enc_out)
    mu, logvar, var = _posterior(model, enc_acts[-1])
    std_eps = np.sqrt(var) * eps
    z = mu + std_eps
    return BatchCache(x=x, gamma=responsibilities(model.gmm, z), mu=mu, logvar=logvar, var=var,
                      std_eps=std_eps, enc_acts=enc_acts,
                      dec_acts=model.decoder.forward(z, dec_out))


def batch_terms(model: GmVae, cache: BatchCache, out: np.ndarray | None = None) -> ElboTerms:
    """The batch's objective terms from its cached forward values; `backward`
    returns the gradient of their `total_loss`. `out`, if given, is an array of
    `cache.x`'s shape that the squared error is formed in. The cluster term is
    formed one cluster at a time, as a product of that cluster's responsibilities
    with its per-row expected log-density, whose squared deviation from the
    cluster mean is formed before it is scaled by the inverse variance."""
    mu, var, logvar, gamma = cache.mu, cache.var, cache.logvar, cache.gamma
    n, data_dim = cache.x.shape
    gmm = model.gmm
    err = np.subtract(cache.x, cache.dec_acts[-1], out=out)
    err *= err
    sq_err = err.sum()
    recon = -0.5 * (n * data_dim * (LOG_2PI + np.log(model.decoder_var))
                    + sq_err / model.decoder_var)

    # responsibility-weighted expected log-density under each cluster
    cluster_kl = -0.5 * sum(
        float(gamma[:, c] @ (((mu - gmm.means[c]) ** 2 + var) @ gmm.inv_var[c] + gmm.logdet[c]))
        for c in range(gmm.n_clusters))

    posterior_entropy = 0.5 * float(np.sum(logvar + LOG_2PI + 1.0))

    with np.errstate(divide="ignore", invalid="ignore"):
        cat = gamma * (gmm.log_pi[None, :] - np.log(gamma))
    categorical_term = float(np.sum(np.where(gamma > 0.0, cat, 0.0)))

    reg = 0.5 * model.beta * float(np.sum(mu**2 + var - 1.0 - logvar))
    return ElboTerms(recon=float(recon), cluster_kl=cluster_kl,
                     posterior_entropy=posterior_entropy,
                     categorical_term=categorical_term, reg=reg)


def _layer_views(model: GmVae, flat: np.ndarray) -> list[tuple[list, list]]:
    """Per net, encoder then decoder, the (weights, biases) lists of views into
    `flat`: each layer's weights before its biases. This is the one statement
    of the flat vector's layout, shared by the parameters, their gradient and
    their names."""
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


def _param_names(model: GmVae, size: int) -> np.ndarray:
    """The name of each entry of a flat vector in `_layer_views` layout, e.g.
    'enc.w0' or 'dec.b3', as an object array."""
    names = np.empty(size, dtype=object)
    for prefix, (ws, bs) in zip(("enc", "dec"), _layer_views(model, names)):
        for i, (w, b) in enumerate(zip(ws, bs)):
            w[...], b[...] = f"{prefix}.w{i}", f"{prefix}.b{i}"
    return names


def backward(model: GmVae, cache: BatchCache, views: list) -> None:
    """Gradient of the batch objective, responsibilities held fixed, written into
    `views`, the `_layer_views` of a flat gradient vector."""
    (enc_dws, enc_dbs), (dec_dws, dec_dbs) = views
    gmm = model.gmm
    beta = model.beta
    d = model.latent_dim
    mu = cache.mu
    g_x_hat = (cache.dec_acts[-1] - cache.x) / model.decoder_var
    g_z = model.decoder.backward(cache.dec_acts, g_x_hat, dec_dws, dec_dbs)
    # with g_z the loss gradient at z and s_c, m_c the cluster variances and means:
    # dL/dmu = g_z + sum_c gamma_c (mu - m_c) / s_c + beta mu
    # dL/dlogvar = (g_z sigma eps + var (sum_c gamma_c / s_c + beta) - 1 - beta) / 2
    precision = cache.gamma @ gmm.inv_var
    g_enc = np.empty((mu.shape[0], 2 * d))  # [dL/dmu, dL/dlogvar], the encoder's output
    np.add(g_z + mu * precision - cache.gamma @ gmm.mean_over_var, beta * mu, out=g_enc[:, :d])
    np.multiply(0.5, g_z * cache.std_eps + cache.var * (precision + beta) - 1.0 - beta,
                out=g_enc[:, d:])
    model.encoder.backward(cache.enc_acts, g_enc, enc_dws, enc_dbs, input_grad=False)


def pack_params(model: GmVae) -> np.ndarray:
    """Move the encoder and decoder arrays into one flat float64 vector, laid
    out by `_layer_views`, and return it.

    The nets' weights and biases become views into the returned vector, so
    updating it in place updates the model.
    """
    nets = (model.encoder, model.decoder)
    theta = np.empty(sum(a.size for net in nets for a in (*net.weights, *net.biases)))
    for net, (ws, bs) in zip(nets, _layer_views(model, theta)):
        for view, a in zip(ws + bs, net.weights + net.biases):
            view[...] = a
        net.weights[:], net.biases[:] = ws, bs
    return theta


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
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta = pack_params(model)
    grad = np.empty_like(theta)
    grad_views = _layer_views(model, grad)
    adam = AdamState(lr=cfg.lr)
    shape = (cfg.epochs, *model.gmm.means.shape)
    history = {name: np.empty(cfg.epochs) for name in ElboTerms.COLUMNS}
    history |= {"pi": np.empty(shape[:2]), "mean": np.empty(shape), "var": np.empty(shape)}
    # the run's workspace (see the module docstring); the noise holds the batch noise,
    # then the re-embed noise. Fresh arrays each epoch would be trimmed by the allocator
    # and faulted back in, about 250 minor page faults per epoch at 1024 rows
    shuffled, noise = np.empty(x_train.shape), np.empty((n, model.latent_dim))
    acts = tuple([np.empty((n, width)) for width in net.layer_dims[1:]]
                 for net in (model.encoder, model.decoder))
    sq_err = np.empty(x_train.shape)

    for epoch in range(cfg.epochs):
        perm = rng.permutation(n)
        # perm is in range, and unlike "raise", "clip" writes into `out` without a copy
        np.take(x_train, perm, axis=0, out=shuffled, mode="clip")
        rng.standard_normal(out=noise)
        try:  # `stage` names the step that is running when one raises
            with np.errstate(over="raise", invalid="raise"):
                for batch, start in enumerate(range(0, n, cfg.batch_size)):
                    stop = start + cfg.batch_size
                    stage = f"batch {batch}, forward pass"
                    cache = batch_loss(model, shuffled[start:stop], noise[start:stop])
                    stage = f"batch {batch}, gradient"
                    backward(model, cache, grad_views)
                    with np.errstate(over="ignore"):  # an overflowing square is raised below
                        grad_sq = grad * grad  # as Adam's second moment will
                    if not np.isfinite(grad_sq).all():
                        bad = int(np.flatnonzero(~np.isfinite(grad_sq))[0])
                        name = _param_names(model, grad.size)[bad]
                        raise NumericalError(
                            f"non-finite gradient for parameter {name!r}"
                            if not np.isfinite(grad[bad])
                            else f"gradient too large for parameter {name!r}: its square overflows")
                    stage = f"batch {batch}, Adam step"
                    adam_step(theta, grad, adam)

                rng.standard_normal(out=noise)
                stage = "re-embed pass"
                cache = batch_loss(model, x_train, noise, acts)
                terms = batch_terms(model, cache, sq_err)
                if not np.isfinite(terms.total_loss):
                    raise NumericalError("non-finite objective")
                stage = "EM pass"
                model.gmm = em_step(model.gmm, cache.gamma, cache.mu, cache.var,
                                    variance_floor=cfg.variance_floor)
        except (NumericalError, FloatingPointError) as e:
            last_good = f"last good epoch {epoch - 1}" if epoch else "no completed epoch"
            raise NumericalError(f"epoch {epoch}, {stage}: {e} ({last_good})") from e

        epoch_terms = ElboTerms(*(v / n for v in astuple(terms)))
        for name in ElboTerms.COLUMNS:
            history[name][epoch] = getattr(epoch_terms, name)
        gmm = model.gmm
        history["pi"][epoch], history["mean"][epoch], history["var"][epoch] = \
            gmm.pi, gmm.means, gmm.variances
        if progress is not None:
            progress(epoch, epoch_terms)
    return history


def embed_dataset(model: GmVae, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The posterior (mu, var) of each row and the responsibilities at mu, the
    deterministic embedding."""
    mu, var = encode(model, x)
    return mu, var, responsibilities(model.gmm, mu)
