"""Acceptance suite: one test per headline criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines.

The clustering runs use 2000 epochs by default (a CI-scale budget with a
95% accuracy gate). Set GMVLAB_FULL_ACCEPTANCE=1 for the full 20000-epoch
configuration, gated at 100% accuracy on at least 2 of 3 seeds and >= 99%
on all of them (about 14 minutes on a 2-core machine).
"""

import dataclasses
import math
import os
import warnings

import numpy as np
import pytest

from gmvlab import datagen
from gmvlab.align import fit_affine
from gmvlab.baselines import classical_mds, coordinate_mds, euclidean_distances, isomap
from gmvlab.config import DatasetConfig, MetricConfig, ModelConfig, TrainConfig
from gmvlab.gmvae import (
    GmmParams,
    GmVae,
    batch_loss,
    em_step,
    embed_dataset,
    gmm_log_likelihood,
    permutation_accuracy,
    responsibilities,
    sample,
    train,
)
from gmvlab.gmvae.train import _layer_views, backward, batch_terms, pack_params
from gmvlab.spectral import build_knn, eta, interpretability_report, laplacian, project, spectrum

FULL = os.environ.get("GMVLAB_FULL_ACCEPTANCE", "") == "1"
EPOCHS = 20000 if FULL else 2000
SEEDS = (0, 1, 2)
DATA_SEED = 1


def report(name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def dataset():
    return datagen.generate(DatasetConfig(seed=DATA_SEED, n_samples=1280))


@pytest.fixture(scope="module")
def trained_runs(dataset):
    """Three seeded training runs on the shared dataset."""
    x_train = dataset.rho[dataset.split == "train"]
    runs = []
    for seed in SEEDS:
        rng = np.random.Generator(np.random.PCG64(seed))
        model = GmVae.init(50, ModelConfig(2, 2, (32, 16, 8), 1e-5, 0.1), rng)
        cfg = TrainConfig(epochs=EPOCHS, batch_size=64, lr=1e-3, n_em=1,
                          variance_floor=1e-6, seed=seed)
        history = train(model, x_train, cfg)
        runs.append((seed, model, history))
    return runs


def test_bifurcation_clustering(dataset, trained_runs):
    test_rows = dataset.split == "test"
    x_test, y_test = dataset.rho[test_rows], dataset.label[test_rows]
    accs = []
    for seed, model, _ in trained_runs:
        acc, _ = permutation_accuracy(embed_dataset(model, x_test)[2].argmax(axis=1), y_test)
        accs.append(acc)
    detail = f"epochs={EPOCHS}, test accuracies={[round(a, 4) for a in accs]}"
    if FULL:
        ok = sum(a == 1.0 for a in accs) >= 2 and all(a >= 0.99 for a in accs)
    else:
        ok = all(a >= 0.95 for a in accs)
    report("bifurcation-clustering", ok, detail)


def test_elbo_oracle_equivalence():
    from test_gmvae_model import forward, scalar_elbo_reference

    worst = 0.0
    count = 0
    rng_top = np.random.default_rng(2024)
    while count < 20:
        k = int(rng_top.integers(1, 4))
        seed = int(rng_top.integers(0, 10_000))
        rng = np.random.default_rng(seed)
        model = GmVae.init(6, ModelConfig(2, k, (5, 4), 10 ** rng.uniform(-5, 0), 0.1), rng)
        x = rng.standard_normal((3, 6))
        cache, mu, var, z = forward(model, x, rng.standard_normal((3, 2)))
        terms = batch_terms(model, cache)
        ref = scalar_elbo_reference(model, x, mu, var, z, cache.gamma)
        scale = max(1.0, abs(terms.total_loss))
        for got, want in zip([terms.recon, terms.cluster_kl, terms.posterior_entropy,
                              terms.categorical_term, terms.reg], ref):
            worst = max(worst, abs(got - want) / scale)
        count += 1
    report("elbo-oracle-equivalence", worst < 1e-10,
           f"20 configs (d=2, K in 1..3), worst relative term error {worst:.2e}")


def test_gradient_correctness():
    h = 1e-5
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = GmVae.init(6, ModelConfig(2, 2, (5, 4), 1e-2, 0.1), np.random.default_rng(seed))
        x = rng.standard_normal((4, 6))
        eps = rng.standard_normal((4, 2))  # fixed noise for the whole check
        gamma = batch_loss(model, x, eps).gamma
        theta = pack_params(model)

        def loss_value():
            return batch_terms(model, dataclasses.replace(batch_loss(model, x, eps),
                                                          gamma=gamma)).total_loss

        grad = np.empty_like(theta)
        backward(model, dataclasses.replace(batch_loss(model, x, eps), gamma=gamma),
                 _layer_views(model, grad))
        for i, g in enumerate(grad):
            orig = theta[i]
            theta[i] = orig + h
            fp = loss_value()
            theta[i] = orig - h
            fm = loss_value()
            theta[i] = orig
            fd = (fp - fm) / (2 * h)
            if max(abs(fd), abs(g)) <= 1e-8:
                continue
            worst = max(worst, abs(fd - g) / max(abs(fd), abs(g)))
    report("gradient-correctness", worst < 1e-4,
           f"5 seeded instances, h=1e-5, worst relative error {worst:.2e}")


def scalar_gmm_loglik(gmm, points):
    """Independent scalar transcription of the mixture marginal log-likelihood."""
    total = 0.0
    for row in points:
        acc = 0.0
        for c in range(gmm.n_clusters):
            quad = 0.0
            norm = 1.0
            for j in range(points.shape[1]):
                s = gmm.variances[c, j]
                quad += (row[j] - gmm.means[c, j]) ** 2 / s
                norm *= 2.0 * math.pi * s
            acc += gmm.pi[c] * math.exp(-0.5 * quad) / math.sqrt(norm)
        total += math.log(acc)
    return total


def test_em_monotonicity():
    worst = 0.0
    agree = 0.0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        n = 60
        centers = rng.uniform(-3, 3, size=(2, 2))
        mu = np.vstack([rng.normal(centers[0], 0.4, size=(n // 2, 2)),
                        rng.normal(centers[1], 0.4, size=(n - n // 2, 2))])
        var = rng.uniform(1e-4, 1e-2, size=mu.shape)
        z = mu + np.sqrt(var) * rng.standard_normal(mu.shape)
        pi = rng.dirichlet(np.ones(2))
        gmm = GmmParams(pi=pi, means=rng.uniform(-1, 1, size=(2, 2)),
                        variances=np.ones((2, 2)))
        ll = scalar_gmm_loglik(gmm, mu)
        agree = max(agree, abs(ll - gmm_log_likelihood(gmm, mu)) / max(1.0, abs(ll)))
        for _ in range(10):
            gmm = em_step(gmm, responsibilities(gmm, z), mu, var)
            nxt = scalar_gmm_loglik(gmm, mu)
            worst = min(worst, nxt - ll)
            ll = nxt
    assert agree < 1e-12  # scalar oracle agrees with the library evaluation
    report("em-monotonicity", worst >= -1e-9,
           f"10 instances x 10 steps, worst log-likelihood drop {worst:.2e}")


def test_k1_reduces_to_standard_vae():
    from test_gmvae_model import forward

    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        model = GmVae.init(6, ModelConfig(2, 1, (5, 4), 1e-3, 0.1), rng)
        model.gmm = GmmParams(pi=np.array([1.0]), means=np.zeros((1, 2)),
                              variances=np.ones((1, 2)))
        x = rng.standard_normal((4, 6))
        cache, mu, var, _ = forward(model, x, rng.standard_normal((4, 2)))
        terms = batch_terms(model, dataclasses.replace(cache, gamma=np.ones((4, 1))))
        kl = 0.5 * np.sum(mu**2 + var - 1.0 - np.log(var))
        standard_vae_elbo = terms.recon - kl
        worst = max(worst, abs(terms.elbo - standard_vae_elbo))
    report("k1-standard-vae-degeneration", worst < 1e-10,
           f"frozen unit prior, worst |ELBO - (recon - KL)| = {worst:.2e}")


def test_spectral_metric_properties():
    rng = np.random.default_rng(7)
    checks = []

    points = rng.standard_normal((150, 2))
    w, v = spectrum(laplacian(build_knn(points, 8)))
    checks.append(("eigenvalues >= -1e-10", w.min() >= -1e-10))

    const_alpha = project(v, np.full(150, 3.0))
    checks.append(("constant eta = 1",
                   abs(eta(const_alpha, 20.0) - 1.0) < 1e-12))

    p = rng.standard_normal(150)
    alpha = project(v, p)
    checks.append(("Parseval 1e-8", abs(np.sum(alpha**2) - np.sum(p**2)) < 1e-8))
    etas = [eta(alpha, r) for r in np.linspace(1, 100, 34)]
    checks.append(("eta monotone in r", all(b >= a - 1e-15 for a, b in zip(etas, etas[1:]))))

    from test_spectral import brute_force_eta

    bf_ok = True
    for n in (8, 10, 12):
        pts = rng.standard_normal((n, 2))
        q = rng.standard_normal(n)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = interpretability_report(pts, {"q": q}, MetricConfig(3, 25.0)).eta["q"]
        bf_ok &= abs(got - brute_force_eta(pts, q, 3, 25.0)) < 1e-10
    checks.append(("brute-force equivalence N<=12", bf_ok))

    big = rng.standard_normal((500, 2))
    _, v500 = spectrum(laplacian(build_knn(big, 10)))
    noise_etas = [eta(project(v500, rng.standard_normal(500)), 20.0)
                  for _ in range(20)]
    mean_eta = float(np.mean(noise_etas))
    checks.append(("iid-noise eta ~ 0.2 +/- 0.05", abs(mean_eta - 0.2) < 0.05))

    ok = all(flag for _, flag in checks)
    detail = "; ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks)
    report("spectral-metric-properties", ok, detail + f"; noise mean eta={mean_eta:.3f}")


def test_pi_convergence(dataset, trained_runs):
    y_train = dataset.label[dataset.split == "train"]
    freq = np.array([np.mean([v == datagen.LABEL_STABLE for v in y_train]),
                     np.mean([v == datagen.LABEL_REACTIVE for v in y_train])])
    worst = 0.0
    for seed, model, _ in trained_runs:
        gap = np.abs(np.sort(model.gmm.pi) - np.sort(freq)).max()
        worst = max(worst, gap)
    report("pi-convergence", worst < 0.05,
           f"class frequencies {np.round(np.sort(freq), 4)}, worst |pi - freq| = {worst:.4f}")


def test_interpretability_ranking(dataset, trained_runs):
    test_rows = dataset.split == "test"
    x_test = dataset.rho[test_rows]
    alpha_q = dataset.params["alpha"][test_rows]
    margins = []
    ok = True
    for seed, model, _ in trained_runs:
        mu, _, _ = embed_dataset(model, x_test)
        rand = np.random.Generator(np.random.PCG64(9000 + seed)).standard_normal(mu.shape)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cfg = MetricConfig(k=10, r_percent=20.0)
            e_model = interpretability_report(mu, {"alpha": alpha_q}, cfg).eta["alpha"]
            e_rand = interpretability_report(rand, {"alpha": alpha_q}, cfg).eta["alpha"]
        margins.append(e_model - e_rand)
        ok &= e_model > e_rand
    report("interpretability-ranking", ok,
           f"k=10, r=20, eta margins over random embedding {[f'{m:.2e}' for m in margins]}")


def test_affine_alignment(dataset, trained_runs):
    rng = np.random.default_rng(42)
    worst_rec = 0.0
    for _ in range(5):
        z = rng.standard_normal((200, 2))
        w = rng.standard_normal((2, 2))
        t = rng.standard_normal(2)
        rep = fit_affine(z, z @ w.T + t)
        worst_rec = max(worst_rec, np.abs(rep.a - w).max(), np.abs(rep.c - t).max())

    _, model, _ = trained_runs[0]
    test_rows = dataset.split == "test"
    mu, _, _ = embed_dataset(model, dataset.rho[test_rows])
    xi = np.column_stack([dataset.params["xi1"][test_rows], dataset.params["xi2"][test_rows]])
    rep = fit_affine(mu, xi)
    z_aug = np.hstack([mu, np.ones((len(xi), 1))])
    ortho = np.abs(z_aug.T @ (xi - (mu @ rep.a.T + rep.c))).max()
    ok = worst_rec < 1e-8 and ortho < 1e-8
    report("affine-alignment", ok,
           f"construct-recover error {worst_rec:.2e}; normal-equation residual {ortho:.2e} "
           f"(fit r2={np.round(rep.r_squared, 3)})")


def test_baselines():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((60, 2))
    d = euclidean_distances(x)
    # both MDS routes: from the distances (Isomap's) and from the coordinates (the CLI's)
    mds_err = max(np.abs(euclidean_distances(emb.points).d - d.d).max()
                  for emb in (classical_mds(d, 2), coordinate_mds(x, 2)))

    t = np.linspace(0.0, np.pi / 2, 100)
    arc = np.column_stack([np.cos(t), np.sin(t)])
    coord = isomap(arc, k=5, dim=2).points[:, 0]
    diffs = np.diff(coord)
    monotone = bool(np.all(diffs > 0) or np.all(diffs < 0))
    ok = mds_err < 1e-8 and monotone
    report("baselines", ok, f"MDS distance reconstruction {mds_err:.2e} (worse route); "
           f"Isomap arc coordinate monotone={monotone}")


def test_data_generator(dataset):
    fine = datagen.generate(DatasetConfig(seed=DATA_SEED, n_samples=1280, substeps=100))
    flips = sum(1 for a, b in zip(dataset.label, fine.label) if a != b)
    stable_rate = 1.0 - flips / 1280

    oracle = datagen.generate(DatasetConfig(seed=777, n_samples=10000))
    frac = np.mean([v == datagen.LABEL_REACTIVE for v in dataset.label])
    frac_oracle = np.mean([v == datagen.LABEL_REACTIVE for v in oracle.label])
    ok = stable_rate >= 0.995 and abs(frac - frac_oracle) <= 0.03
    report("data-generator", ok,
           f"label stability under 10x refinement {stable_rate:.4f}; "
           f"reactive fraction {frac:.4f} vs 10k oracle {frac_oracle:.4f}")


@pytest.mark.xfail(reason="the sketched oracle rejects the data distribution itself: "
                          "held-out validation curves exceed the train-train NN 95th "
                          "percentile at their upper tail, so requiring every generated "
                          "draw below it is unattainable even for a perfect sampler",
                   strict=False)
def test_generated_sample_every_draw_below_train_nn_p95(dataset, trained_runs):
    _, model, _ = trained_runs[0]
    x_train = dataset.rho[dataset.split == "train"]
    d_tt = euclidean_distances(x_train).d
    np.fill_diagonal(d_tt, np.inf)
    threshold = np.percentile(d_tt.min(axis=1), 95)
    rng = np.random.Generator(np.random.PCG64(5))
    worst = 0.0
    for c in range(2):
        curves, _ = sample(model, 25, rng, cluster=c)
        for g in curves:
            worst = max(worst, float(np.sqrt(((x_train - g) ** 2).sum(axis=1)).min()))
    report("generated-every-draw-below-p95", worst <= threshold,
           f"worst generated-to-train NN distance {worst:.4f} vs 95th pct {threshold:.4f}")


def test_generated_sample_plausibility(dataset, trained_runs):
    # supporting check: conditional samples look like reaction trajectories.
    # each cluster's decodes must start near the shared initial coverage,
    # stay inside the physical range, and end in the matching equilibrium band
    _, model, _ = trained_runs[0]
    test_rows = dataset.split == "test"
    acc, mapping = permutation_accuracy(
        embed_dataset(model, dataset.rho[test_rows])[2].argmax(axis=1), dataset.label[test_rows])
    rng = np.random.Generator(np.random.PCG64(5))
    checks = []
    for c in range(2):
        curves, _ = sample(model, 25, rng, cluster=c)
        checks.append(("rho0 near 0.89", np.abs(curves[:, 0] - datagen.RHO0).max() < 0.05))
        checks.append(("range", curves.min() > -0.05 and curves.max() < 1.05))
        terminal = curves[:, -1]
        if mapping.get(c) == datagen.LABEL_REACTIVE:
            checks.append(("reactive terminal band", bool(np.all(terminal > 0.9))))
        else:
            checks.append(("stable terminal band", bool(np.all(terminal < 0.3))))
    ok = all(flag for _, flag in checks)
    report("generated-sample-plausibility", ok,
           "; ".join(f"{name}={'ok' if flag else 'FAIL'}" for name, flag in checks))


def test_unconditional_sampling_tracks_pi(trained_runs):
    # supporting check: empirical cluster usage within +/-0.10 of learned pi
    _, model, _ = trained_runs[0]
    rng = np.random.Generator(np.random.PCG64(6))
    _, ids = sample(model, 100, rng)
    usage = np.bincount(ids, minlength=2) / 100.0
    gap = np.abs(usage - model.gmm.pi).max()
    report("unconditional-sampling-pi", gap <= 0.10,
           f"usage {usage} vs pi {np.round(model.gmm.pi, 4)}, gap {gap:.3f}")
