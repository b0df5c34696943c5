"""The mixture-prior VAE: model types and objective terms (`model`), the
EM-alternating training loop (`train`) and checkpoints (`checkpoint`).

The package re-exports the function `train`, which hides the submodule of the
same name: `import gmvlab.gmvae.train as t` binds the function, not the module.
`importlib.import_module("gmvlab.gmvae.train")` returns the module. It keeps its
name because the benchmark's tracer wraps the functions it calls there.
"""

from .checkpoint import FORMAT_TAG, load_checkpoint, save_checkpoint
from .model import (
    ElboTerms,
    GmmParams,
    GmVae,
    LatentEmbedding,
    decode,
    em_step,
    encode,
    gmm_log_likelihood,
    permutation_accuracy,
    responsibilities,
    sample,
)
from .train import batch_loss, cluster_assign, embed_dataset, train

__all__ = [
    "FORMAT_TAG",
    "load_checkpoint",
    "save_checkpoint",
    "ElboTerms",
    "GmmParams",
    "GmVae",
    "LatentEmbedding",
    "cluster_assign",
    "decode",
    "em_step",
    "encode",
    "gmm_log_likelihood",
    "permutation_accuracy",
    "responsibilities",
    "sample",
    "batch_loss",
    "embed_dataset",
    "train",
]
