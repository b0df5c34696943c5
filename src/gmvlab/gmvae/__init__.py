from ..config import TrainConfig
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
    "TrainConfig",
    "batch_loss",
    "embed_dataset",
    "train",
]
