"""Model checkpoints: one self-describing JSON file with a format tag."""

from __future__ import annotations

import hashlib
import json

import numpy as np

from ..config import ModelConfig
from ..errors import InputError
from ..ndmath import Mlp
from .model import GmmParams, GmVae

FORMAT_TAG = "gmvlab-checkpoint-v1"
_REQUIRED_KEYS = ("latent_dim", "decoder_var", "beta", "encoder", "decoder", "gmm")


def _mlp_to_dict(net: Mlp) -> dict:
    return {
        "layer_dims": net.layer_dims,
        "weights": [w.tolist() for w in net.weights],
        "biases": [b.tolist() for b in net.biases],
    }


def _array(value, what: str) -> np.ndarray:
    try:
        arr = np.array(value, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} is not a numeric array") from None
    if not np.all(np.isfinite(arr)):
        raise InputError(f"{what} has non-finite entries")
    return arr


def _mlp_from_dict(d, what: str) -> Mlp:
    if not isinstance(d, dict) or not {"layer_dims", "weights", "biases"} <= set(d):
        raise InputError(f"{what} needs layer_dims, weights and biases")
    dims = d["layer_dims"]
    if not isinstance(dims, list) or not all(type(v) is int for v in dims):
        raise InputError(f"{what} layer_dims must be a list of integers, got {dims!r}")
    try:
        weights = [_array(w, f"{what} weights") for w in d["weights"]]
        biases = [_array(b, f"{what} biases") for b in d["biases"]]
    except (TypeError, ValueError, OverflowError):
        raise InputError(f"{what} layer_dims, weights and biases must be lists") from None
    return Mlp(dims, weights, biases)


def _number(payload: dict, key: str, kinds=(int, float)):
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise InputError(f"{key} must be a number, got {value!r}")
    return value


def _model_from_payload(payload: dict) -> GmVae:
    missing = [k for k in _REQUIRED_KEYS if k not in payload]
    if missing:
        raise InputError(f"missing keys {missing}")
    latent_dim = _number(payload, "latent_dim", int)
    decoder_var = float(_number(payload, "decoder_var"))
    beta = float(_number(payload, "beta"))
    ModelConfig(latent_dim=latent_dim, decoder_var=decoder_var, beta=beta)  # checks the ranges
    encoder = _mlp_from_dict(payload["encoder"], "encoder")
    decoder = _mlp_from_dict(payload["decoder"], "decoder")
    if encoder.layer_dims[-1] != 2 * latent_dim:
        raise InputError(f"encoder output width {encoder.layer_dims[-1]} != 2 * latent_dim")
    if decoder.layer_dims[0] != latent_dim:
        raise InputError(f"decoder input width {decoder.layer_dims[0]} != latent_dim")
    if decoder.layer_dims[-1] != encoder.layer_dims[0]:
        raise InputError(f"decoder output width {decoder.layer_dims[-1]} != encoder input "
                         f"width {encoder.layer_dims[0]}")
    raw = payload["gmm"]
    if not isinstance(raw, dict) or not {"pi", "means", "variances"} <= set(raw):
        raise InputError("gmm needs pi, means and variances")
    gmm = GmmParams(pi=_array(raw["pi"], "gmm pi"), means=_array(raw["means"], "gmm means"),
                    variances=_array(raw["variances"], "gmm variances"))
    k = gmm.pi.shape[0] if gmm.pi.ndim == 1 else 0
    if k < 1 or gmm.means.shape != (k, latent_dim) or gmm.variances.shape != (k, latent_dim):
        raise InputError(f"gmm shapes pi {gmm.pi.shape}, means {gmm.means.shape}, variances "
                         f"{gmm.variances.shape}; expected (K,), (K, {latent_dim}), "
                         f"(K, {latent_dim})")
    gmm.validate()
    return GmVae(encoder=encoder, decoder=decoder, latent_dim=latent_dim,
                 decoder_var=decoder_var, beta=beta, gmm=gmm)


def save_checkpoint(model: GmVae, path, config: dict) -> str:
    """Write the checkpoint with the run's `config`; returns its digest (sha256 hex)."""
    payload = {
        "format": FORMAT_TAG,
        "latent_dim": model.latent_dim,
        "decoder_var": model.decoder_var,
        "beta": model.beta,
        "encoder": _mlp_to_dict(model.encoder),
        "decoder": _mlp_to_dict(model.decoder),
        "gmm": {
            "pi": model.gmm.pi.tolist(),
            "means": model.gmm.means.tolist(),
            "variances": model.gmm.variances.tolist(),
        },
        "config": config,
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(blob)
    return hashlib.sha256(blob).hexdigest()


def load_checkpoint(path) -> tuple[GmVae, dict, str]:
    """Read a checkpoint; returns (model, stored config, content digest)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    try:
        payload = json.loads(blob)
    except (ValueError, RecursionError) as e:  # ValueError: bad syntax or bytes not UTF-8
        raise InputError(f"checkpoint {path}: not valid JSON ({e})")
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_TAG:
        tag = payload.get("format") if isinstance(payload, dict) else None
        raise InputError(f"checkpoint {path}: unknown format tag {tag!r}")
    try:
        model = _model_from_payload(payload)
    except InputError as e:
        raise InputError(f"checkpoint {path}: {e}") from None
    return model, payload.get("config", {}), hashlib.sha256(blob).hexdigest()
