"""Training loop: full-loss gradient checks, bit-identity with the per-batch
reference loop, failure messages, degenerate configs, determinism, checkpoint
round-trips."""

import copy
import dataclasses
import json
import sys
import warnings

import numpy as np
import pytest

from gmvlab.config import ModelConfig, TrainConfig
from gmvlab.errors import InputError, NumericalError
from gmvlab.gmvae import (
    ElboTerms,
    GmVae,
    batch_loss,
    decode,
    em_step,
    embed_dataset,
    encode,
    load_checkpoint,
    save_checkpoint,
    train,
)
from gmvlab.gmvae.train import (
    _layer_views,
    _param_names,
    backward,
    batch_terms,
    pack_params,
)
from gmvlab.ndmath import AdamState, adam_step

TRAIN_MODULE = sys.modules["gmvlab.gmvae.train"]
MODEL_MODULE = sys.modules["gmvlab.gmvae.model"]


def make_model(seed=0, data_dim=6, latent_dim=2, k=2, hidden=(5, 4),
               decoder_var=1e-2, beta=0.1):
    rng = np.random.default_rng(seed)
    return GmVae.init(data_dim, ModelConfig(latent_dim, k, hidden, decoder_var, beta), rng)


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
    gamma = batch_loss(model, x, eps).gamma
    theta = pack_params(model)
    names = _param_names(model, theta.size)

    def loss_value():
        return batch_terms(model, dataclasses.replace(batch_loss(model, x, eps),
                                                      gamma=gamma)).total_loss

    grad = np.full_like(theta, np.nan)
    backward(model, dataclasses.replace(batch_loss(model, x, eps), gamma=gamma),
             _layer_views(model, grad))

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
    theta = pack_params(model)
    assert theta.size == sum(a.size for a in before)
    names, w0 = _param_names(model, theta.size), model.encoder.weights[0].size
    assert list(names[:w0 + 1]) == ["enc.w0"] * w0 + ["enc.b0"]
    assert names[-1] == f"dec.b{model.decoder.n_layers - 1}"
    for a, b in zip(before, model_arrays(model)):
        assert np.array_equal(a, b)
    theta[0] += 1.0
    assert model.encoder.weights[0][0, 0] == before[0][0, 0] + 1.0


def test_pack_params_again_moves_the_nets_to_the_new_vector():
    # train packs a model whose nets may already be views of an earlier vector
    model = make_model()
    theta1 = pack_params(model)
    theta1[0] += 1.0
    theta2 = pack_params(model)
    assert theta2.tobytes() == theta1.tobytes()
    theta2[0] += 1.0
    assert model.encoder.weights[0][0, 0] == theta2[0]
    theta1[:] = np.nan
    assert all(np.isfinite(a).all() for a in model_arrays(model))
    assert model.encoder.weights[0][0, 0] == theta2[0]


# A plain per-batch training loop that `train` must match bit for bit: a noise
# draw, the forward pass, the responsibilities and a freshly concatenated
# gradient per batch, and responsibilities recomputed by every EM pass. It logs
# what `train`'s history holds: per epoch, the re-embed pass's objective per
# sample before EM, then the mixture after EM.

def _ref_forward(net, h):
    acts = [h]
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w.T + b
        if i < net.n_layers - 1:
            h = np.tanh(h)
        acts.append(h)
    return acts


def _ref_backward(net, acts, g):
    dws, dbs = [None] * net.n_layers, [None] * net.n_layers
    for i in range(net.n_layers - 1, -1, -1):
        if i < net.n_layers - 1:
            g = g * (1.0 - acts[i + 1] * acts[i + 1])
        dws[i] = g.T @ acts[i]
        dbs[i] = g.sum(axis=0)
        g = g @ net.weights[i]
    return dws, dbs, g


def _ref_responsibilities(gmm, z):
    diff = z[:, None, :] - gmm.means[None, :, :]
    quad = np.sum(diff * diff / gmm.variances[None, :, :], axis=2)
    logdet = np.sum(np.log(gmm.variances) + np.log(2.0 * np.pi), axis=1)
    with np.errstate(divide="ignore"):
        log_joint = np.log(gmm.pi)[None, :] + -0.5 * (logdet[None, :] + quad)
    top = log_joint.max(axis=1, keepdims=True)
    return np.exp(log_joint - (top + np.log(np.sum(np.exp(log_joint - top), axis=1,
                                                          keepdims=True))))


def _ref_gradient(model, x, eps):
    d, gmm, beta = model.latent_dim, model.gmm, model.beta
    enc_acts = _ref_forward(model.encoder, x)
    mu, logvar = enc_acts[-1][:, :d], enc_acts[-1][:, d:]
    var = np.exp(logvar)
    std_eps = np.sqrt(var) * eps
    z = mu + std_eps
    gamma = _ref_responsibilities(gmm, z)
    dec_acts = _ref_forward(model.decoder, z)
    dec_dw, dec_db, g_z = _ref_backward(model.decoder, dec_acts,
                                        (dec_acts[-1] - x) / model.decoder_var)
    precision = gamma @ (1.0 / gmm.variances)
    g_mu = g_z + mu * precision - gamma @ (gmm.means / gmm.variances) + beta * mu
    g_logvar = 0.5 * (g_z * std_eps + var * (precision + beta) - 1.0 - beta)
    enc_dw, enc_db, _ = _ref_backward(model.encoder, enc_acts, np.hstack([g_mu, g_logvar]))
    return np.concatenate([g.ravel() for dws, dbs in ((enc_dw, enc_db), (dec_dw, dec_db))
                           for pair in zip(dws, dbs) for g in pair])


def _ref_train(model, x, cfg):
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    theta = pack_params(model)
    adam = AdamState(lr=cfg.lr)
    n, d = x.shape[0], model.latent_dim
    history = {name: [] for name in (*ElboTerms.COLUMNS, "pi", "mean", "var")}
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            rows = perm[start:start + cfg.batch_size]
            eps = rng.standard_normal((len(rows), d))
            adam_step(theta, _ref_gradient(model, x[rows], eps), adam)
        out = _ref_forward(model.encoder, x)[-1]
        mu, var = out[:, :d], np.exp(out[:, d:])
        eps = rng.standard_normal(mu.shape)
        z = mu + np.sqrt(var) * eps
        terms = batch_terms(model, batch_loss(model, x, eps))
        terms = ElboTerms(*(v / n for v in dataclasses.astuple(terms)))
        for name in ElboTerms.COLUMNS:
            history[name].append(getattr(terms, name))
        for _ in range(cfg.n_em):
            model.gmm = em_step(model.gmm, _ref_responsibilities(model.gmm, z), mu, var,
                                variance_floor=cfg.variance_floor)
        for name, value in zip(("pi", "mean", "var"),
                               (model.gmm.pi, model.gmm.means, model.gmm.variances)):
            history[name].append(value)
    return {name: np.array(values) for name, values in history.items()}


@pytest.mark.parametrize("n,batch_size,k,beta", [(50, 16, 3, 0.1), (30, 7, 2, 0.0)])
def test_fused_loop_matches_the_per_batch_reference_bit_for_bit(n, batch_size, k, beta):
    x = np.random.default_rng(11).standard_normal((n, 10))
    cfg = TrainConfig(epochs=4, batch_size=batch_size, n_em=2, lr=3e-3, seed=12)
    assert n % batch_size  # a short last batch
    fused = make_model(seed=13, data_dim=10, k=k, hidden=(8, 5), beta=beta)
    reference = copy.deepcopy(fused)
    history = train(fused, x, cfg)
    want = _ref_train(reference, x, cfg)
    assert pack_params(fused).tobytes() == pack_params(reference).tobytes()
    assert list(history) == list(want)
    for name in want:  # every epoch's objective terms and mixture after EM
        assert history[name].tobytes() == want[name].tobytes(), name


def test_history_holds_the_objective_of_the_re_embed_pass():
    # n_em = 0 leaves the mixture as it was, so the logged objective is the
    # ELBO of the trained nets on the re-embed noise, which follows the
    # epoch's permutation and its one batch-noise block in the stream
    x = np.random.default_rng(14).standard_normal((20, 6))
    model = make_model(seed=15)
    history = train(model, x, TrainConfig(epochs=1, batch_size=8, n_em=0, seed=16))
    rng = np.random.Generator(np.random.PCG64(16))
    rng.permutation(20)
    rng.standard_normal((20, 2))
    eps = rng.standard_normal((20, 2))
    want = batch_terms(model, batch_loss(model, x, eps))
    want = ElboTerms(*(v / 20 for v in dataclasses.astuple(want)))
    assert [history[name][0] for name in ElboTerms.COLUMNS] == [getattr(want, name)
                                                                for name in ElboTerms.COLUMNS]


def test_encode_samples_the_z_that_batch_loss_decodes():
    rng = np.random.default_rng(20)
    model = make_model(seed=21)
    x = rng.standard_normal((9, 6))
    eps = rng.standard_normal((9, 2))
    cache = batch_loss(model, x, eps)
    mu, var = encode(model, x)
    assert cache.dec_acts[0].tobytes() == (mu + np.sqrt(var) * eps).tobytes()
    assert cache.var.tobytes() == var.tobytes()


def test_embed_dataset_is_the_posterior_mean_and_its_responsibilities():
    # a plain transcription of the posterior-mean embedding: mu, exp(log var)
    # and the responsibilities at mu
    x = np.random.default_rng(22).standard_normal((30, 6))
    model = make_model(seed=23)
    train(model, x, TrainConfig(epochs=3, batch_size=8, seed=24))
    returned = embed_dataset(model, x)
    out = _ref_forward(model.encoder, x)[-1]
    mu, var = out[:, :2], np.exp(out[:, 2:])
    assert len(returned) == 3
    for got, want in zip(returned, (mu, var, _ref_responsibilities(model.gmm, mu))):
        assert got.tobytes() == want.tobytes()


def test_train_runs_only_batch_loss_forward(monkeypatch):
    # 1024 rows in batches of 64: 16 Adam batches and the re-embed pass per epoch
    sizes = []
    real = TRAIN_MODULE.batch_loss

    def counted(model, x, *args, **kwargs):
        sizes.append(x.shape[0])
        return real(model, x, *args, **kwargs)

    def never(*args, **kwargs):
        raise AssertionError("train ran an evaluation-API forward pass")

    monkeypatch.setattr(TRAIN_MODULE, "batch_loss", counted)
    for module in (TRAIN_MODULE, MODEL_MODULE):
        for name in ("encode", "decode"):
            monkeypatch.setattr(module, name, never, raising=False)
    x = np.random.default_rng(25).standard_normal((1024, 6))
    train(make_model(seed=26), x, TrainConfig(epochs=2, batch_size=64, seed=27))
    assert sizes == ([64] * 16 + [1024]) * 2


def test_train_refills_one_workspace_every_epoch(monkeypatch):
    # the re-embed pass writes its activations into the same arrays every epoch,
    # and every batch is a row slice of one shuffled copy of the training rows
    rows, acts = [], []
    real = TRAIN_MODULE.batch_loss

    def recorded(model, x, *args, **kwargs):
        cache = real(model, x, *args, **kwargs)
        if x.shape[0] == 40:
            acts.append([a.ctypes.data for a in cache.enc_acts[1:] + cache.dec_acts[1:]])
        else:
            rows.append(x.base)
        return cache

    monkeypatch.setattr(TRAIN_MODULE, "batch_loss", recorded)
    x = np.random.default_rng(28).standard_normal((40, 6))
    train(make_model(seed=29), x, TrainConfig(epochs=3, batch_size=16, seed=30))
    assert len(acts) == 3 and acts[0] == acts[1] == acts[2]
    assert len(rows) == 9 and rows[0].shape == x.shape
    assert all(base is rows[0] for base in rows)


def _break_after_step(monkeypatch, step, corrupt):
    """Run `corrupt()` right after the training loop's Adam update number `step`."""
    real = TRAIN_MODULE.adam_step

    def adam_then_corrupt(theta, grad, state):
        real(theta, grad, state)
        if state.step_count == step:
            corrupt()

    monkeypatch.setattr(TRAIN_MODULE, "adam_step", adam_then_corrupt)


def _overflow_latent(model):
    def corrupt():
        model.encoder.biases[-1][model.latent_dim:] = 2000.0  # exp(log var) overflows
    return corrupt


def _overflow_gradient(model):
    def corrupt():
        model.decoder.biases[-1][:] = 1e307  # (x_hat - x) / decoder_var overflows
    return corrupt


def _overflow_encoder_product(model):
    def corrupt():
        model.encoder.weights[0][:] = 1e308  # x @ w overflows in the forward pass
    return corrupt


def _overflow_in_adam(model):
    def corrupt():  # runs inside the Adam step, where train raises numpy's overflow
        np.full(1, 1e308) * 10.0
    return corrupt


# 20 rows in batches of 8 are 3 Adam steps per epoch: after step 4 (epoch 1's
# batch 0) epoch 1's batch 1 is the first to fail; after step 3 (epoch 0's
# last batch) the failure comes in epoch 0's re-embed pass. The posterior raises
# its overflow before numpy can warn, and the decoder's overflow raises where it
# happens, so any warning here would fail as an error. The stage is where the
# raise came from, whatever its exception: a forward-pass overflow is not a gradient
BLOW_UPS = [
    pytest.param(_overflow_latent, 4,
                 "epoch 1, batch 1, forward pass: encoder log-variance overflows: non-finite "
                 "posterior variance (last good epoch 0)", id="latent"),
    pytest.param(_overflow_gradient, 4,
                 "epoch 1, batch 1, gradient: overflow encountered in divide (last good epoch 0)",
                 id="gradient"),
    pytest.param(_overflow_encoder_product, 4,
                 "epoch 1, batch 1, forward pass: overflow encountered in dot (last good epoch 0)",
                 id="forward-product"),
    pytest.param(_overflow_in_adam, 4,
                 "epoch 1, batch 0, Adam step: overflow encountered in multiply "
                 "(last good epoch 0)", id="adam-step"),
    pytest.param(_overflow_latent, 3,
                 "epoch 0, re-embed pass: encoder log-variance overflows: non-finite posterior "
                 "variance (no completed epoch)", id="re-embed"),
    pytest.param(_overflow_gradient, 3,
                 "epoch 0, re-embed pass: overflow encountered in multiply (no completed epoch)",
                 id="re-embed-decoder"),
]


@pytest.mark.parametrize("corruption,step,message", BLOW_UPS)
def test_blow_up_names_its_epoch_batch_and_last_good_epoch(monkeypatch, corruption, step,
                                                           message):
    model = make_model(seed=17)
    _break_after_step(monkeypatch, step, corruption(model))
    x = np.random.default_rng(18).standard_normal((20, 6))
    with pytest.raises(NumericalError) as info:
        train(model, x, TrainConfig(epochs=3, batch_size=8, seed=19))
    assert str(info.value) == message


def _nan_output(model):
    model.encoder.biases[-1][0] = np.nan


POSTERIOR_PATHS = {
    "encode": encode,
    "batch_loss": lambda model, x: batch_loss(model, x, np.zeros((len(x), model.latent_dim))),
    "train": lambda model, x: train(model, x, TrainConfig(epochs=1, batch_size=8, seed=19)),
}


@pytest.mark.parametrize("path", POSTERIOR_PATHS)
@pytest.mark.parametrize("corrupt,message", [
    pytest.param(_nan_output, "encoder produced non-finite output", id="nan"),
    pytest.param(lambda model: _overflow_latent(model)(),
                 "encoder log-variance overflows: non-finite posterior variance",
                 id="logvar-overflow"),
])
def test_encode_and_training_share_one_posterior_rule(path, corrupt, message):
    # evaluation and training read the encoder output through one check, which
    # raises before numpy can warn: any warning here would fail as an error
    model = make_model(seed=17)
    corrupt(model)
    x = np.random.default_rng(18).standard_normal((20, 6))
    with warnings.catch_warnings(), pytest.raises(NumericalError) as info:
        warnings.simplefilter("error")
        POSTERIOR_PATHS[path](model, x)
    if path == "train":
        message = f"epoch 0, batch 0, forward pass: {message} (no completed epoch)"
    assert str(info.value) == message


@pytest.mark.parametrize("net,layer,kind,value,message", [
    pytest.param("encoder", 0, "weights", np.nan, "non-finite gradient for parameter 'enc.w0'",
                 id="enc.w0"),
    pytest.param("decoder", -1, "biases", np.nan, "non-finite gradient for parameter 'dec.b2'",
                 id="dec.b2"),
    pytest.param("encoder", -1, "weights", 1e200,
                 "gradient too large for parameter 'enc.w2': its square overflows",
                 id="enc.w2-square-overflows"),
])
def test_non_finite_gradient_names_its_parameter_and_takes_no_step(monkeypatch, net, layer,
                                                                   kind, value, message):
    # the first batch's gradient gets a nan, or a finite entry whose square would
    # make Adam's second moment inf and freeze it for good, in one parameter:
    # train names that parameter, and the Adam step that would take it never runs
    model = make_model(seed=17)
    before = model_arrays(model)
    states = []
    real = TRAIN_MODULE.backward

    def recorded_adam(lr):
        states.append(AdamState(lr=lr))
        return states[-1]

    def backward_then_corrupt(model, cache, views):
        real(model, cache, views)
        enc_views, dec_views = views
        ws, bs = enc_views if net == "encoder" else dec_views
        (ws if kind == "weights" else bs)[layer].flat[-1] = value

    monkeypatch.setattr(TRAIN_MODULE, "AdamState", recorded_adam)
    monkeypatch.setattr(TRAIN_MODULE, "backward", backward_then_corrupt)
    x = np.random.default_rng(18).standard_normal((20, 6))
    with pytest.raises(NumericalError) as info:
        train(model, x, TrainConfig(epochs=3, batch_size=8, seed=19))
    assert str(info.value) == f"epoch 0, batch 0, gradient: {message} (no completed epoch)"
    for a, b in zip(before, model_arrays(model)):
        assert np.isfinite(b).all()
        assert np.array_equal(a, b)
    [adam] = states
    assert adam.step_count == 0 and adam.first_moment is None and adam.second_moment is None


def test_zero_epochs_leaves_model_untouched():
    model = make_model()
    before = model_arrays(model)
    gmm_before = copy.deepcopy(model.gmm)
    history = train(model, np.random.default_rng(0).standard_normal((10, 6)),
                    TrainConfig(epochs=0, batch_size=4, seed=1))
    assert all(len(values) == 0 for values in history.values())
    for a, b in zip(before, model_arrays(model)):
        assert np.array_equal(a, b)
    assert np.array_equal(gmm_before.pi, model.gmm.pi)


@pytest.mark.parametrize("rows,cfg,match", [
    (0, {"epochs": 1}, "non-empty"),
    (10, {"epochs": 1, "batch_size": 0}, "batch_size"),
    (10, {"epochs": -1}, "epochs"),
])
def test_train_rejects_bad_arguments(rows, cfg, match):
    # an out-of-range section is rejected where it is built, before train runs
    with pytest.raises(InputError, match=match):
        train(make_model(), np.zeros((rows, 6)), TrainConfig(**cfg))


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
    for name in h1:
        assert h1[name].tobytes() == h2[name].tobytes(), name


def test_history_length_and_recorded_snapshots():
    model = make_model()
    x = np.random.default_rng(1).standard_normal((12, 6))
    history = train(model, x, TrainConfig(epochs=5, batch_size=4, seed=2))
    assert list(history) == [*ElboTerms.COLUMNS, "pi", "mean", "var"]
    assert all(history[name].shape == (5,) for name in ElboTerms.COLUMNS)
    assert history["pi"].shape == (5, 2)
    assert history["mean"].shape == history["var"].shape == (5, 2, 2)
    assert np.array_equal(history["pi"][-1], model.gmm.pi)
    assert np.array_equal(history["mean"][-1], model.gmm.means)
    assert np.array_equal(history["var"][-1], model.gmm.variances)


def test_loss_decreases_on_easy_reconstruction_task():
    rng = np.random.default_rng(6)
    x = np.vstack([rng.normal(-1, 0.05, size=(20, 6)), rng.normal(1, 0.05, size=(20, 6))])
    model = make_model(seed=6, decoder_var=1e-2)
    history = train(model, x, TrainConfig(epochs=60, batch_size=10, lr=3e-3, seed=3))
    first = np.mean(history["total_loss"][:5])
    last = np.mean(history["total_loss"][-5:])
    assert last < first


def test_checkpoint_roundtrip(tmp_path):
    model = make_model(seed=7)
    path = tmp_path / "ckpt.json"
    digest = save_checkpoint(model, path, config={"note": "test"})
    loaded, digest2 = load_checkpoint(path)
    assert digest == digest2
    assert json.loads(path.read_text(encoding="utf-8"))["config"] == {"note": "test"}
    assert loaded.latent_dim == model.latent_dim
    assert loaded.decoder_var == model.decoder_var
    assert loaded.beta == model.beta
    for a, b in zip(model_arrays(model), model_arrays(loaded)):
        assert np.array_equal(a, b)
    assert np.array_equal(loaded.gmm.pi, model.gmm.pi)
    assert np.array_equal(loaded.gmm.means, model.gmm.means)
    x = np.random.default_rng(0).standard_normal((3, 6))
    assert np.array_equal(decode(model, encode(model, x)[0]), decode(loaded, encode(loaded, x)[0]))


def test_checkpoint_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format": "something-else"}')
    from gmvlab.errors import InputError

    with pytest.raises(InputError):
        load_checkpoint(path)
