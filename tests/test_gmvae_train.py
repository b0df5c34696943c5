"""Training loop: full-loss gradient checks, degenerate configs, determinism,
checkpoint round-trips."""

import copy

import numpy as np
import pytest

from gmvlab.gmvae import (
    GmVae,
    TrainConfig,
    batch_loss,
    load_checkpoint,
    save_checkpoint,
    train,
)
from gmvlab.gmvae.train import backward, pack_params


def make_model(seed=0, data_dim=6, latent_dim=2, k=2, hidden=(5, 4),
               decoder_var=1e-2, beta=0.1):
    rng = np.random.default_rng(seed)
    return GmVae.init(data_dim, latent_dim, k, hidden, decoder_var, beta, rng)


def model_arrays(model):
    return [w.copy() for w in model.encoder.weights + model.decoder.weights] + \
           [b.copy() for b in model.encoder.biases + model.decoder.biases]


FD_CASES = [pytest.param(seed, 2, 0.1, id=str(seed)) for seed in range(5)] + [
    pytest.param(5, 1, 0.1, id="k1"),
    pytest.param(6, 3, 0.1, id="k3"),
    pytest.param(7, 2, 0.0, id="beta0"),
]


@pytest.mark.parametrize("seed,k,beta", FD_CASES)
def test_total_loss_gradients_match_finite_differences(seed, k, beta):
    rng = np.random.default_rng(seed)
    model = make_model(seed=seed, k=k, beta=beta)
    x = rng.standard_normal((4, 6))
    eps = rng.standard_normal((4, 2))
    # freeze responsibilities so the objective is a fixed function of the nets
    _, _, cache = batch_loss(model, x, eps)
    gamma = cache.gamma
    theta, layout = pack_params(model)
    names = [name for name, size in layout for _ in range(size)]

    def loss_value():
        return batch_loss(model, x, eps, gamma=gamma)[0]

    loss, _, cache = batch_loss(model, x, eps, gamma=gamma)
    grad = backward(model, cache)
    assert grad.shape == theta.shape

    h = 1e-5
    for i, g in enumerate(grad):
        orig = theta[i]
        theta[i] = orig + h
        fp = loss_value()
        theta[i] = orig - h
        fm = loss_value()
        theta[i] = orig
        fd = (fp - fm) / (2 * h)
        denom = max(abs(fd), abs(g), 1e-8)
        assert abs(fd - g) / denom < 1e-4, f"{names[i]} entry {i}: analytic={g} fd={fd}"


def test_pack_params_points_the_nets_at_one_vector():
    model = make_model()
    before = model_arrays(model)
    theta, layout = pack_params(model)
    assert theta.size == model.encoder.n_params() + model.decoder.n_params()
    assert sum(size for _, size in layout) == theta.size
    assert layout[0] == ("enc.w0", model.encoder.weights[0].size)
    for a, b in zip(before, model_arrays(model)):
        assert np.array_equal(a, b)
    theta[0] += 1.0
    assert model.encoder.weights[0][0, 0] == before[0][0, 0] + 1.0


def test_zero_epochs_leaves_model_untouched():
    model = make_model()
    before = model_arrays(model)
    gmm_before = copy.deepcopy(model.gmm)
    history = train(model, np.random.default_rng(0).standard_normal((10, 6)),
                    TrainConfig(epochs=0, batch_size=4, seed=1))
    assert len(history) == 0
    for a, b in zip(before, model_arrays(model)):
        assert np.array_equal(a, b)
    assert np.array_equal(gmm_before.pi, model.gmm.pi)


def test_zero_lr_moves_only_gmm():
    model = make_model()
    before = model_arrays(model)
    gmm_before = copy.deepcopy(model.gmm)
    train(model, np.random.default_rng(0).standard_normal((16, 6)),
          TrainConfig(epochs=3, batch_size=8, lr=0.0, seed=1))
    for a, b in zip(before, model_arrays(model)):
        assert np.array_equal(a, b)
    assert not np.array_equal(gmm_before.means, model.gmm.means)


def test_training_is_deterministic_for_fixed_seed():
    x = np.random.default_rng(3).standard_normal((20, 6))
    runs = []
    for _ in range(2):
        model = make_model(seed=4)
        history = train(model, x, TrainConfig(epochs=4, batch_size=8, seed=9))
        runs.append((model, history))
    m1, h1 = runs[0]
    m2, h2 = runs[1]
    for a, b in zip(model_arrays(m1), model_arrays(m2)):
        assert np.array_equal(a, b)
    assert np.array_equal(m1.gmm.pi, m2.gmm.pi)
    for t1, t2 in zip(h1.terms, h2.terms):
        assert t1.total_loss == t2.total_loss


def test_history_length_and_recorded_snapshots():
    model = make_model()
    x = np.random.default_rng(1).standard_normal((12, 6))
    history = train(model, x, TrainConfig(epochs=5, batch_size=4, seed=2))
    assert len(history) == 5
    assert history.pi[-1].shape == (2,)
    assert history.means[-1].shape == (2, 2)
    assert np.array_equal(history.pi[-1], model.gmm.pi)


def test_loss_decreases_on_easy_reconstruction_task():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(-1, 0.05, size=(20, 6)), rng.normal(1, 0.05, size=(20, 6))])
    model = make_model(seed=6, decoder_var=1e-2)
    history = train(model, x, TrainConfig(epochs=60, batch_size=10, lr=3e-3, seed=3))
    first = np.mean([t.total_loss for t in history.terms[:5]])
    last = np.mean([t.total_loss for t in history.terms[-5:]])
    assert last < first


def test_checkpoint_roundtrip(tmp_path):
    model = make_model(seed=7)
    path = tmp_path / "ckpt.json"
    digest = save_checkpoint(model, path, config={"note": "test"})
    loaded, cfg, digest2 = load_checkpoint(path)
    assert digest == digest2
    assert cfg == {"note": "test"}
    assert loaded.latent_dim == model.latent_dim
    assert loaded.decoder_var == model.decoder_var
    assert loaded.beta == model.beta
    for a, b in zip(model_arrays(model), model_arrays(loaded)):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.gmm.pi, model.gmm.pi)
    assert np.array_equal(loaded.gmm.means, model.gmm.means)
    x = np.random.default_rng(0).standard_normal((3, 6))
    assert np.array_equal(model.decoder.infer(model.encoder.infer(x)[:, :2]),
                          loaded.decoder.infer(loaded.encoder.infer(x)[:, :2]))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    from gmvlab.errors import InputError

    with pytest.raises(InputError):
        load_checkpoint(path)
