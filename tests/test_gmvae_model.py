"""Model-side contracts: encoding, responsibilities, ELBO oracle, EM, sampling."""

import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gmvlab.config import ModelConfig
from gmvlab.errors import InputError
from gmvlab.gmvae import (
    GmmParams,
    GmVae,
    batch_loss,
    decode,
    em_step,
    encode,
    gmm_log_likelihood,
    permutation_accuracy,
    responsibilities,
    sample,
)
from gmvlab.gmvae.train import batch_terms


def make_model(seed=0, data_dim=6, latent_dim=2, k=2, hidden=(5, 4),
               decoder_var=1e-5, beta=0.1):
    rng = np.random.default_rng(seed)
    return GmVae.init(data_dim, ModelConfig(latent_dim, k, hidden, decoder_var, beta), rng)


def forward(model, x, eps):
    """`batch_loss`'s cache of x under the model's mixture, then its posterior
    mu and var and its sample z."""
    cache = batch_loss(model, x, eps)
    return cache, cache.mu, cache.var, cache.dec_acts[0]


@pytest.mark.parametrize("key, value", [("decoder_var", math.inf), ("beta", math.inf),
                                        ("hidden_dims", ()), ("latent_dim", 0),
                                        ("n_clusters", 0)])
def test_init_applies_the_model_section_rules(key, value):
    # the section checks itself when built, so an out-of-range one never reaches init
    with pytest.raises(InputError, match=f"model.{key} must be"):
        GmVae.init(6, dataclasses.replace(ModelConfig(), **{key: value}),
                   np.random.default_rng(0))


# ---------------------------------------------------------------- encode

def test_encode_returns_the_posterior_mean_and_variance():
    # the encoder's output is [mu, log var]
    model = make_model()
    x = np.random.default_rng(1).standard_normal((4, 6))
    mu, var = encode(model, x)
    out = model.encoder.forward(x)[-1]
    assert mu.tobytes() == out[:, :2].tobytes()
    assert var.tobytes() == np.exp(out[:, 2:]).tobytes()


def test_zero_weight_encoder_gives_standard_posterior():
    model = make_model()
    model.encoder.weights = [np.zeros_like(w) for w in model.encoder.weights]
    model.encoder.biases = [np.zeros_like(b) for b in model.encoder.biases]
    mu, var = encode(model, np.ones((3, 6)))
    assert np.array_equal(mu, np.zeros((3, 2)))
    assert np.array_equal(var, np.ones((3, 2)))


def test_encode_of_an_empty_batch_is_two_empty_arrays():
    # the log-variance overflow check must hold on zero rows too, where a
    # reduction such as max() would raise
    mu, var = encode(make_model(), np.empty((0, 6)))
    for a in (mu, var):
        assert a.shape == (0, 2)
        assert a.dtype == np.float64


def test_encode_deterministic_for_fixed_seed():
    model = make_model()
    x = np.random.default_rng(2).standard_normal((5, 6))
    (mu_a, var_a), (mu_b, var_b) = encode(model, x), encode(model, x.copy())
    assert mu_a.tobytes() == mu_b.tobytes()
    assert var_a.tobytes() == var_b.tobytes()


# ---------------------------------------------------- responsibilities

def test_symmetric_clusters_split_even():
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[-3.0], [3.0]]),
                    variances=np.ones((2, 1)))
    gamma = responsibilities(gmm, np.zeros((1, 1)))
    assert np.allclose(gamma, [[0.5, 0.5]], atol=1e-15)


def test_responsibility_ratio_matches_gaussian_ratio():
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[0.0], [10.0]]),
                    variances=np.ones((2, 1)))
    gamma = responsibilities(gmm, np.zeros((1, 1)))
    assert gamma[0, 0] == pytest.approx(1.0 / (1.0 + math.exp(-50.0)), rel=1e-12)


def test_single_cluster_gets_everything():
    gmm = GmmParams(pi=np.array([1.0]), means=np.zeros((1, 3)), variances=np.ones((1, 3)))
    gamma = responsibilities(gmm, np.random.default_rng(0).standard_normal((7, 3)))
    assert np.array_equal(gamma, np.ones((7, 1)))


def test_rows_sum_to_one_under_extreme_underflow():
    # densities span far below 1e-30; log-space normalization must hold anyway
    gmm = GmmParams(pi=np.array([0.25, 0.25, 0.5]),
                    means=np.array([[0.0, 0.0], [300.0, 0.0], [0.0, 500.0]]),
                    variances=np.full((3, 2), 0.5))
    z = np.random.default_rng(3).standard_normal((50, 2)) * 5
    gamma = responsibilities(gmm, z)
    assert np.max(np.abs(gamma.sum(axis=1) - 1.0)) < 1e-12
    assert gamma.min() >= 0.0 and gamma.max() <= 1.0


def test_zero_pi_cluster_gets_zero_responsibility():
    gmm = GmmParams(pi=np.array([1.0, 0.0]), means=np.zeros((2, 1)), variances=np.ones((2, 1)))
    gamma = responsibilities(gmm, np.zeros((3, 1)))
    assert np.array_equal(gamma[:, 1], np.zeros(3))


# ------------------------------------------------------------- objective

def scalar_elbo_reference(model, x, mu, var, z, gamma):
    """Independent transcription of the closed-form objective, all scalar loops."""
    n, data_dim = x.shape
    k = model.gmm.n_clusters
    d = model.latent_dim
    recon = clus = ent = cat = reg = 0.0
    x_hat = decode(model, z)
    for i in range(n):
        for j in range(data_dim):
            recon += -0.5 * (math.log(2 * math.pi * model.decoder_var)
                             + (x[i, j] - x_hat[i, j]) ** 2 / model.decoder_var)
        for c in range(k):
            inner = 0.0
            for j in range(d):
                sc = model.gmm.variances[c, j]
                inner += (math.log(2 * math.pi * sc) + var[i, j] / sc
                          + (mu[i, j] - model.gmm.means[c, j]) ** 2 / sc)
            clus += -0.5 * gamma[i, c] * inner
        for j in range(d):
            ent += 0.5 * (math.log(2 * math.pi * var[i, j]) + 1.0)
        for c in range(k):
            if gamma[i, c] > 0.0:
                cat += gamma[i, c] * (math.log(model.gmm.pi[c]) - math.log(gamma[i, c]))
        for j in range(d):
            reg += 0.5 * model.beta * (mu[i, j] ** 2 + var[i, j] - 1.0
                                       - math.log(var[i, j]))
    return recon, clus, ent, cat, reg


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("k", [1, 2, 3])
def test_elbo_matches_scalar_reference(seed, k):
    rng = np.random.default_rng(seed * 10 + k)
    model = make_model(seed=seed, k=k)
    x = rng.standard_normal((3, 6))
    cache, mu, var, z = forward(model, x, rng.standard_normal((3, 2)))
    terms = batch_terms(model, cache)
    recon, clus, ent, cat, reg = scalar_elbo_reference(model, x, mu, var, z, cache.gamma)
    scale = max(1.0, abs(terms.total_loss))
    assert abs(terms.recon - recon) / scale < 1e-10
    assert abs(terms.cluster_kl - clus) / scale < 1e-10
    assert abs(terms.posterior_entropy - ent) / scale < 1e-10
    assert abs(terms.categorical_term - cat) / scale < 1e-10
    assert abs(terms.reg - reg) / scale < 1e-10


def test_unit_posterior_has_zero_regularizer():
    model = make_model()
    # a zero last encoder layer gives mu = 0 and log var = 0 for every row
    model.encoder.weights[-1] = np.zeros_like(model.encoder.weights[-1])
    model.encoder.biases[-1] = np.zeros_like(model.encoder.biases[-1])
    cache, *_ = forward(model, np.zeros((3, 6)), 0.0)
    assert batch_terms(model, cache).reg == 0.0


def test_k1_unit_prior_reduces_to_standard_vae_kl():
    # with pi=1, mean 0, variance 1 the cluster + entropy terms collapse to
    # minus the standard normal KL of the posterior
    model = make_model(k=1)
    model.gmm = GmmParams(pi=np.array([1.0]), means=np.zeros((1, 2)),
                          variances=np.ones((1, 2)))
    rng = np.random.default_rng(5)
    x = rng.standard_normal((4, 6))
    cache, mu, var, _ = forward(model, x, rng.standard_normal((4, 2)))
    terms = batch_terms(model, dataclasses.replace(cache, gamma=np.ones((4, 1))))
    kl = 0.5 * np.sum(mu**2 + var - 1.0 - np.log(var))
    assert abs((terms.cluster_kl + terms.posterior_entropy) - (-kl)) < 1e-10
    assert terms.categorical_term == 0.0


# --------------------------------------------------------------- mixture

def test_mixture_is_frozen_and_computes_its_constants_once():
    gmm = GmmParams(pi=np.array([0.25, 0.75, 0.0]), means=np.array([[0.0, 1.0], [2.0, -1.0],
                                                                     [0.5, 0.5]]),
                    variances=np.array([[1.0, 0.5], [2.0, 4.0], [0.1, 0.2]]))
    for name in ("pi", "means", "variances"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(gmm, name, getattr(gmm, name))
    with np.errstate(divide="ignore"):
        log_pi = np.log(gmm.pi)
    want = {"log_pi": log_pi,
            "logdet": np.sum(np.log(gmm.variances) + np.log(2.0 * np.pi), axis=1),
            "inv_var": 1.0 / gmm.variances, "mean_over_var": gmm.means / gmm.variances}
    for name, value in want.items():
        got = getattr(gmm, name)
        assert got.tobytes() == value.tobytes(), name
        assert getattr(gmm, name) is got, name  # cached, not recomputed
    # a changed copy is a new mixture with its own constants
    other = dataclasses.replace(gmm, variances=2.0 * gmm.variances)
    assert np.array_equal(other.inv_var, 0.5 * gmm.inv_var)


def test_em_step_returns_a_new_mixture_and_leaves_its_input():
    rng = np.random.default_rng(11)
    gmm = GmmParams(pi=np.array([0.4, 0.6]), means=rng.uniform(-1, 1, size=(2, 2)),
                    variances=np.ones((2, 2)))
    before = [a.copy() for a in (gmm.pi, gmm.means, gmm.variances)]
    inv_var = gmm.inv_var
    new = em_update(gmm, rng.standard_normal((20, 2)), var=0.05)
    assert new is not gmm
    for a, b in zip(before, (gmm.pi, gmm.means, gmm.variances)):
        assert np.array_equal(a, b)
    assert gmm.inv_var is inv_var
    assert np.array_equal(new.inv_var, 1.0 / new.variances)


# --------------------------------------------------------------- em_step

def em_update(gmm, mu, var=None, **kwargs):
    """One EM update with the E-step at z = mu: `responsibilities`, then
    `em_step`; the posterior variance defaults to a tight 1e-10."""
    mu = np.atleast_2d(mu)
    var = np.full_like(mu, 1e-10) if var is None else np.broadcast_to(var, mu.shape).copy()
    return em_step(gmm, responsibilities(gmm, mu), mu, var, **kwargs)


def test_em_step_with_one_hot_responsibilities_matches_a_transcription():
    # each cluster's mean is the mean of its assigned mu, its variance the spread
    # around that mean plus the mean posterior variance, floored; pi is count / n
    rng = np.random.default_rng(12)
    mu, var = rng.standard_normal((12, 3)), rng.uniform(1e-3, 0.1, size=(12, 3))
    mu[9:] = 4.0  # cluster 2 has no spread, so its variance is its mean var or the floor
    var[9:, 0] = 1e-6
    assigned = np.array([0, 1, 0, 0, 1, 1, 1, 0, 1, 2, 2, 2])
    gmm = GmmParams(pi=np.full(3, 1 / 3), means=np.zeros((3, 3)), variances=np.ones((3, 3)))
    floor = 1e-4
    new = em_step(gmm, np.eye(3)[assigned], mu, var, variance_floor=floor)
    for c in range(3):
        rows = assigned == c
        mean = mu[rows].mean(axis=0)
        want = np.maximum(((mu[rows] - mean) ** 2).mean(axis=0) + var[rows].mean(axis=0), floor)
        assert np.allclose(new.means[c], mean, rtol=1e-14, atol=0)
        assert np.allclose(new.variances[c], want, rtol=1e-14, atol=0)
        assert new.pi[c] == pytest.approx(rows.sum() / 12, rel=1e-15)
    assert new.variances[2, 0] == floor


def test_hard_responsibilities_average_assigned_means():
    mu = np.array([[0.0, 0.0], [0.2, 0.0], [5.0, 5.0], [5.2, 5.0]])
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[0.0, 0.0], [5.0, 5.0]]),
                    variances=np.full((2, 2), 0.01))
    new = em_update(gmm, mu)
    assert np.allclose(new.means[0], [0.1, 0.0], atol=1e-6)
    assert np.allclose(new.means[1], [5.1, 5.0], atol=1e-6)
    assert np.allclose(new.pi, [0.5, 0.5], atol=1e-9)


def test_collapsed_cluster_hits_variance_floor():
    mu = np.tile([[1.0, -1.0]], (6, 1))
    gmm = GmmParams(pi=np.array([1.0]), means=np.array([[1.0, -1.0]]),
                    variances=np.ones((1, 2)))
    new = em_update(gmm, mu, var=0.0 + 1e-300, variance_floor=1e-6)
    assert np.array_equal(new.variances, np.full((1, 2), 1e-6))


def test_em_step_rejects_weights_off_the_simplex():
    # responsibilities no longer validate per call, so em_step must keep doing it
    gmm = GmmParams(pi=np.array([0.7, 0.7]), means=np.array([[0.0, 0.0], [5.0, 5.0]]),
                    variances=np.ones((2, 2)))
    with pytest.raises(InputError, match="simplex"):
        em_update(gmm, np.zeros((3, 2)))


@pytest.mark.parametrize("name", ["pi", "means", "variances"])
def test_non_finite_mixture_fails_validation(name):
    # NaN slips through every comparison, so the simplex and floor checks alone miss it
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[0.0, 0.0], [5.0, 5.0]]),
                    variances=np.ones((2, 2)))
    getattr(gmm, name)[0] = np.nan
    with pytest.raises(InputError, match=f"{name} must be finite"):
        gmm.validate()
    with pytest.raises(InputError, match=f"{name} must be finite"):
        em_update(gmm, np.zeros((3, 2)))


def test_em_step_rejects_an_empty_embedding():
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[0.0, 0.0], [5.0, 5.0]]),
                    variances=np.ones((2, 2)))
    with pytest.raises(InputError, match="em_step needs at least one sample"):
        em_update(gmm, np.zeros((0, 2)))


MU = np.arange(10.0).reshape(5, 2)
GAMMA = np.full((5, 2), 0.5)


@pytest.mark.parametrize("call, match", [
    # one gamma row would broadcast over the 5 posterior rows
    (lambda gmm: em_step(gmm, np.array([[0.3, 0.7]]), MU, np.ones((5, 2))),
     r"gamma has shape \(1, 2\), expected \(5, 2\)"),
    (lambda gmm: em_step(gmm, GAMMA[:, :1], MU, np.ones((5, 2))),
     r"gamma has shape \(5, 1\), expected \(5, 2\)"),
    (lambda gmm: em_step(gmm, GAMMA, MU, np.ones(2)),
     r"var has shape \(2,\), expected mu's \(5, 2\)"),
    (lambda gmm: em_step(gmm, GAMMA, MU, np.ones((5, 3))),
     r"var has shape \(5, 3\), expected mu's \(5, 2\)"),
    (lambda gmm: em_step(gmm, GAMMA, MU[:, :1], np.ones((5, 1))),
     r"mu has shape \(5, 1\), expected \(n, 2\)"),
    (lambda gmm: em_step(gmm, GAMMA, MU.ravel(), np.ones(10)),
     r"mu has shape \(10,\), expected \(n, 2\)"),
    (lambda gmm: responsibilities(gmm, np.zeros((4, 1))),
     r"latent points have shape \(4, 1\), expected \(n, 2\)"),
    (lambda gmm: gmm_log_likelihood(gmm, np.zeros((4, 3))),
     r"latent points have shape \(4, 3\), expected \(n, 2\)"),
], ids=["gamma-one-row", "gamma-one-column", "var-one-row", "var-wide", "mu-narrow",
        "mu-flat", "responsibilities-narrow", "log-likelihood-wide"])
def test_em_rejects_arrays_of_the_wrong_shape(call, match):
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[0.0, 0.0], [5.0, 5.0]]),
                    variances=np.ones((2, 2)))
    with pytest.raises(InputError, match=match):
        call(gmm)


def test_em_step_rejects_a_non_finite_result():
    gmm = GmmParams(pi=np.array([0.5, 0.5]), means=np.array([[0.0, 0.0], [5.0, 5.0]]),
                    variances=np.ones((2, 2)))
    with pytest.raises(InputError, match="must be finite"):
        em_update(gmm, np.full((3, 2), np.nan))


def test_em_log_likelihood_nondecreasing_on_z():
    # the expectation step scores sampled z while the maximization step
    # averages posterior means, so exact monotonicity needs z ~ mu; tight
    # posterior variances put the instance in that regime
    rng = np.random.default_rng(8)
    mu = np.vstack([rng.normal(-2, 0.3, size=(25, 2)), rng.normal(2, 0.3, size=(25, 2))])
    var = np.full_like(mu, 1e-12)
    z = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
    gmm = GmmParams(pi=np.array([0.5, 0.5]),
                    means=rng.uniform(-1, 1, size=(2, 2)), variances=np.ones((2, 2)))
    ll = gmm_log_likelihood(gmm, z)
    for _ in range(5):
        gmm = em_step(gmm, responsibilities(gmm, z), mu, var)
        nxt = gmm_log_likelihood(gmm, z)
        assert nxt >= ll - 1e-9
        ll = nxt


def test_em_preserves_simplex():
    rng = np.random.default_rng(9)
    mu = rng.standard_normal((40, 2))
    gmm = GmmParams(pi=np.array([0.2, 0.3, 0.5]),
                    means=rng.uniform(-1, 1, size=(3, 2)), variances=np.ones((3, 2)))
    for _ in range(10):
        gmm = em_update(gmm, mu, var=0.05)
        assert abs(gmm.pi.sum() - 1.0) < 1e-12
        assert np.all(gmm.pi >= 0)


def test_empty_cluster_keeps_parameters_and_warns():
    mu = np.zeros((5, 1))
    gmm = GmmParams(pi=np.array([1.0 - 1e-16, 1e-16]),
                    means=np.array([[0.0], [1000.0]]), variances=np.ones((2, 1)))
    with pytest.warns(UserWarning, match="responsibility mass"):
        new = em_update(gmm, mu)
    assert np.array_equal(new.means[1], [1000.0])
    assert np.array_equal(new.variances[1], [1.0])
    assert not np.any(np.isnan(new.pi))


# ---------------------------------------------------------------- sample

def test_sample_with_zero_cluster_variance_decodes_cluster_mean():
    model = make_model()
    model.gmm = GmmParams(pi=np.array([0.5, 0.5]),
                          means=np.array([[1.0, 2.0], [-1.0, 0.5]]),
                          variances=np.zeros((2, 2)))
    rng = np.random.default_rng(0)
    curves, ids = sample(model, 5, rng, cluster=1)
    expected = decode(model, model.gmm.means[1][None, :])
    assert np.allclose(curves, np.tile(expected, (5, 1)), atol=0)
    assert np.array_equal(ids, np.ones(5, dtype=int))


def test_unconditional_with_degenerate_pi_matches_conditional():
    model = make_model()
    model.gmm = dataclasses.replace(model.gmm, pi=np.array([1.0, 0.0]))
    rng = np.random.default_rng(1)
    _, ids = sample(model, 20, rng)
    assert np.array_equal(ids, np.zeros(20, dtype=int))


def test_sample_rejects_bad_cluster():
    model = make_model()
    with pytest.raises(InputError):
        sample(model, 3, np.random.default_rng(0), cluster=2)


# -------------------------------------------------------- permutation_accuracy

def test_permutation_accuracy_one_hot_match():
    pred = np.array([0, 0, 1, 1])
    true = ["stable", "stable", "reactive", "reactive"]
    acc, mapping = permutation_accuracy(pred, true)
    assert acc == 1.0
    assert mapping == {0: "stable", 1: "reactive"}


def test_permutation_accuracy_swapped_labels_still_perfect():
    pred = np.array([1, 1, 0, 0])
    true = ["stable", "stable", "reactive", "reactive"]
    acc, _ = permutation_accuracy(pred, true)
    assert acc == 1.0


def test_single_cluster_accuracy_is_majority_fraction():
    pred = np.zeros(10, dtype=int)
    true = ["a"] * 7 + ["b"] * 3
    acc, _ = permutation_accuracy(pred, true)
    assert acc == pytest.approx(0.7)


def test_permutation_accuracy_maps_any_clusters_when_they_outnumber_the_labels():
    # scoring only clusters 0 and 1 gives 1/6 via {0: "a", 1: "b"}
    acc, mapping = permutation_accuracy(np.array([2, 2, 2, 2, 0, 1]), np.array(list("aaaabb")))
    assert acc == 5 / 6
    assert mapping == {0: "b", 2: "a"}


def _first_best_assignment(pred, true):
    """Brute force by passes over the rows: the best hit count over every
    one-to-one cluster -> label map, some clusters possibly unmapped, and,
    with no more clusters than labels, the first full map that reaches it
    when label orders are tried in turn."""
    clusters, labels = sorted(set(pred)), sorted(set(true))

    def hits(mapping):
        return sum(mapping.get(c) == t for c, t in zip(pred, true))

    best = max(hits({c: t for c, t in zip(clusters, choice) if t is not None})
               for choice in itertools.product(labels + [None], repeat=len(clusters))
               if len({t for t in choice if t is not None}) == sum(t is not None for t in choice))
    if len(clusters) > len(labels):
        return best, None
    first = next(dict(zip(clusters, perm)) for perm in itertools.permutations(labels, len(clusters))
                 if hits(dict(zip(clusters, perm))) == best)
    return best, first


@settings(max_examples=200, deadline=None, database=None)
@given(rows=st.lists(st.tuples(st.integers(0, 3), st.sampled_from("abc")), min_size=1,
                     max_size=12))
def test_permutation_accuracy_matches_a_brute_force_oracle(rows):
    pred, true = zip(*rows)
    acc, mapping = permutation_accuracy(np.array(pred), np.array(true))
    best, first = _first_best_assignment(list(pred), list(true))
    assert acc == best / len(rows)
    assert len(set(mapping.values())) == len(mapping)  # one-to-one
    assert sum(mapping.get(c) == t for c, t in rows) == best
    if first is not None:  # the enumeration order and tie rule of a full map
        assert mapping == first
        assert list(mapping) == sorted(set(pred))


def test_permutation_accuracy_rejects_empty_input():
    with pytest.raises(InputError, match="at least one sample"):
        permutation_accuracy(np.zeros(0, dtype=int), np.array([], dtype=str))


@pytest.mark.parametrize("pred, true", [
    ([0, 1, 0, 1, 1, 1], ["a", "b"]),  # zip would score 2 pairs out of 2: 1.0
    ([0, 1], ["a", "b", "a", "b"]),     # zip would score 2 pairs out of 4: 0.5
], ids=["more-predictions", "more-labels"])
def test_permutation_accuracy_rejects_different_lengths(pred, true):
    with pytest.raises(InputError, match=f"{len(pred)} predictions for {len(true)} labels"):
        permutation_accuracy(np.array(pred), np.array(true))
