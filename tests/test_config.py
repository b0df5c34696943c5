"""Config file parsing and validation."""

from dataclasses import FrozenInstanceError, asdict, fields, replace

import pytest

from gmvlab.config import RunConfig, load_config
from gmvlab.errors import InputError


def test_defaults_match_reference_setup():
    cfg = load_config(None)
    assert cfg.model.hidden_dims == (32, 16, 8)
    assert cfg.model.latent_dim == 2
    assert cfg.model.n_clusters == 2
    assert cfg.model.decoder_var == 1e-5
    assert cfg.model.beta == 0.1
    assert cfg.training.lr == 1e-3
    assert cfg.training.epochs == 20000
    assert cfg.training.batch_size == 64
    assert cfg.dataset.n_samples == 1280
    assert cfg.dataset.steps == 50
    assert cfg.metric.k == 10
    assert cfg.metric.r_percent == 20.0


def test_ini_overrides(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(
        "[dataset]\nn_samples = 100\nseed = 7\n"
        "[model]\nhidden_dims = 8, 4\nlatent_dim = 3\n"
        "[training]\nepochs = 10\nlr = 0.01\n"
        "[metric]\nk = 5\n"
    )
    cfg = load_config(path)
    assert cfg.dataset.n_samples == 100
    assert cfg.dataset.seed == 7
    assert cfg.model.hidden_dims == (8, 4)
    assert cfg.model.latent_dim == 3
    assert cfg.training.epochs == 10
    assert cfg.training.lr == 0.01
    assert cfg.metric.k == 5
    # untouched keys keep defaults
    assert cfg.training.batch_size == 64


def test_unknown_section_and_key_rejected(tmp_path):
    bad_section = tmp_path / "a.ini"
    bad_section.write_text("[mystery]\nx = 1\n")
    with pytest.raises(InputError, match="unknown section"):
        load_config(bad_section)
    bad_key = tmp_path / "b.ini"
    bad_key.write_text("[dataset]\nwhatever = 1\n")
    with pytest.raises(InputError, match="unknown key"):
        load_config(bad_key)
    bad_key.write_text("[training]\nweight_decay = 0\n")
    with pytest.raises(InputError, match="unknown key 'weight_decay' in \\[training\\]"):
        load_config(bad_key)


def test_bad_values_rejected(tmp_path):
    unparsable = tmp_path / "c.ini"
    unparsable.write_text("[training]\nepochs = soon\n")
    with pytest.raises(InputError, match="bad value"):
        load_config(unparsable)
    out_of_range = tmp_path / "d.ini"
    out_of_range.write_text("[model]\ndecoder_var = 0\n")
    with pytest.raises(InputError, match="decoder_var"):
        load_config(out_of_range)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_config(tmp_path / "nope.ini")


def test_validate_bounds_directly():
    with pytest.raises(InputError, match="r_percent"):
        replace(RunConfig().metric, r_percent=150.0)


# one value per range rule that breaks it, as a config file spells it and as parsed
OUT_OF_RANGE = {
    ("dataset", "n_samples"): ("9", 9),
    ("dataset", "steps"): ("1", 1),
    ("dataset", "horizon"): ("0", 0.0),
    ("dataset", "label_threshold"): ("1", 1.0),
    ("dataset", "substeps"): ("0", 0),
    ("dataset", "kappa"): ("-1", -1.0),
    ("dataset", "seed"): ("-1", -1),
    ("model", "latent_dim"): ("0", 0),
    ("model", "n_clusters"): ("0", 0),
    ("model", "hidden_dims"): ("4, 0", (4, 0)),
    ("model", "decoder_var"): ("0", 0.0),
    ("model", "beta"): ("-0.5", -0.5),
    ("training", "lr"): ("-1", -1.0),
    ("training", "batch_size"): ("0", 0),
    ("training", "epochs"): ("-1", -1),
    ("training", "variance_floor"): ("0", 0.0),
    ("training", "seed"): ("-1", -1),
    ("metric", "k"): ("0", 0),
    ("metric", "r_percent"): ("100.5", 100.5),
}


def test_every_range_rule_has_an_out_of_range_case():
    rules = {(s.name, key) for s in fields(RunConfig) for key in s.default_factory.RULES}
    assert rules == set(OUT_OF_RANGE)


@pytest.mark.parametrize("section, key", list(OUT_OF_RANGE),
                         ids=[f"{s}.{k}" for s, k in OUT_OF_RANGE])
def test_out_of_range_value_is_rejected_where_the_section_is_built(tmp_path, section, key):
    text, value = OUT_OF_RANGE[(section, key)]
    rule = getattr(RunConfig(), section).RULES[key][0]
    message = f"{section}.{key} must be {rule}, got {value}"
    with pytest.raises(InputError) as built:
        replace(getattr(RunConfig(), section), **{key: value})
    path = tmp_path / "bad.ini"
    path.write_text(f"[{section}]\n{key} = {text}\n")
    with pytest.raises(InputError) as loaded:
        load_config(path)
    assert str(built.value) == str(loaded.value) == message


def test_variance_floor_needs_a_finite_reciprocal():
    # the bound a checkpoint's mixture variances are held to: 1 / 5e-324 overflows
    with pytest.raises(InputError) as info:
        replace(RunConfig().training, variance_floor=5e-324)
    assert str(info.value) == ("training.variance_floor must be > 0 with a finite reciprocal, "
                               "got 5e-324")
    assert replace(RunConfig().training, variance_floor=1e-308).variance_floor == 1e-308


def test_decoder_var_needs_a_finite_reciprocal(tmp_path):
    # training divides by it: at 5e-324 the first gradient overflowed in epoch 0
    path = tmp_path / "run.ini"
    path.write_text("[model]\ndecoder_var = 5e-324\n")
    with pytest.raises(InputError) as info:
        load_config(path)
    assert str(info.value) == "model.decoder_var must be > 0 with a finite reciprocal, got 5e-324"
    assert replace(RunConfig().model, decoder_var=1e-308).decoder_var == 1e-308


def test_load_config_reports_parse_errors_first_then_sections_in_run_config_order(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text("[metric]\nk = 0\n[dataset]\nsteps = 1\n")
    with pytest.raises(InputError, match=r"^dataset\.steps must be >= 2, got 1$"):
        load_config(path)
    path.write_text("[metric]\nk = 0\n[training]\nepochs = soon\n")
    with pytest.raises(InputError) as e:
        load_config(path)
    assert str(e.value) == f"config {path}: bad value 'soon' for training.epochs"


def test_config_sections_are_frozen():
    cfg = RunConfig()
    for section in fields(RunConfig):
        block = getattr(cfg, section.name)
        for key in fields(block):
            with pytest.raises(FrozenInstanceError):
                setattr(block, key.name, getattr(block, key.name))
        with pytest.raises(FrozenInstanceError):
            setattr(cfg, section.name, block)


def test_as_dict_is_json_friendly():
    import json

    blob = json.dumps(asdict(RunConfig()), sort_keys=True)
    assert "hidden_dims" in blob
