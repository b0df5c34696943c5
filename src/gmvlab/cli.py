"""Command-line front end for the whole pipeline.

Subcommands: generate, train, embed, sample, metric, baseline, align.
Exit codes: 0 success, 1 usage or validation error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import align as align_mod
from . import baselines, datagen, spectral, tables
from .config import load_config
from .errors import ContractError, InputError, NumericalError
from .gmvae import (
    GmVae,
    embed_dataset,
    load_checkpoint,
    permutation_accuracy,
    sample,
    save_checkpoint,
    train,
)


def _require_file(path, what: str) -> Path:
    p = Path(path)
    if not p.is_file():
        raise InputError(f"{what} not found: {p}")
    return p


def cmd_generate(args) -> int:
    section = load_config(args.config).dataset
    if args.seed is not None:
        section = replace(section, seed=args.seed)
    dataset = datagen.generate(section)
    datagen.save_csv(dataset, args.out)
    labels = dataset.labels()
    n_reactive = sum(1 for v in labels if v == datagen.LABEL_REACTIVE)
    n = len(labels)
    print(f"wrote {n} trajectories to {args.out}")
    print(f"class balance: reactive {n_reactive}/{n} ({n_reactive / n:.3f}), "
          f"stable {n - n_reactive}/{n} ({(n - n_reactive) / n:.3f})")
    for name in datagen.SPLIT_NAMES:
        print(f"split {name}: {len(dataset.split[name])}")
    return 0


def _write_embeddings(model, dataset, out_path) -> np.ndarray:
    """Write the posterior-mean embeddings of every row; returns their hard labels."""
    emb, gamma = embed_dataset(model, dataset.matrix())
    hard = np.argmax(gamma, axis=1)
    tables.write_embeddings_csv(out_path, range(len(dataset)), dataset.split_names(), emb.mu,
                                var=emb.var, gamma=gamma, hard_labels=hard,
                                true_labels=dataset.labels())
    return hard


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, training=replace(cfg.training, seed=args.seed))
    dataset_path = _require_file(args.dataset, "dataset CSV")
    dataset = datagen.load_csv(dataset_path)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    x_train = dataset.matrix("train")
    tc = cfg.training
    model = GmVae.init(x_train.shape[1], cfg.model, np.random.Generator(np.random.PCG64(tc.seed)))
    say_every = max(1, tc.epochs // 20)

    def progress(epoch, terms):
        if (epoch + 1) % say_every == 0 or epoch == 0:
            print(f"epoch {epoch + 1}/{tc.epochs}: loss {terms.total_loss:.4f} "
                  f"recon {terms.recon:.4f} pi {np.round(model.gmm.pi, 4)}")

    history = train(model, x_train, tc, progress=progress if not args.quiet else None)

    digest = save_checkpoint(model, out_dir / "checkpoint.json", config=cfg.as_dict())
    tables.write_history_csv(out_dir / "history.csv", history)
    hard = _write_embeddings(model, dataset, out_dir / "embeddings.csv")

    print(f"checkpoint digest: {digest}")
    test = dataset.split["test"]
    if len(test):
        acc, mapping = permutation_accuracy(hard[test], dataset.labels("test"))
        print(f"test clustering accuracy (best permutation): {acc:.4f} via {mapping}")
    else:
        print("test split is empty: no clustering accuracy")
    print(f"final pi: {np.array2string(model.gmm.pi, precision=4)}")
    return 0


def cmd_embed(args) -> int:
    model, _, digest = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    dataset = datagen.load_csv(_require_file(args.dataset, "dataset CSV"))
    print(f"checkpoint digest: {digest}")
    _write_embeddings(model, dataset, args.out)
    print(f"wrote embeddings to {args.out}")
    return 0


def cmd_sample(args) -> int:
    model, _, digest = load_checkpoint(_require_file(args.checkpoint, "checkpoint"))
    print(f"checkpoint digest: {digest}")
    rng = np.random.Generator(np.random.PCG64(args.seed if args.seed is not None else 1))
    curves, clusters = sample(model, args.count, rng, cluster=args.cluster)
    tables.write_samples_csv(args.out, curves, clusters)
    print(f"wrote {args.count} samples to {args.out}")
    if args.count:
        usage = np.bincount(clusters, minlength=model.gmm.n_clusters) / args.count
        print(f"cluster usage: {np.array2string(usage, precision=3)}")
    return 0


def _join_on_sample_id(embeddings, other, what: str, columns):
    """The embeddings table and the numeric `columns` of `other`, whose rows are
    matched to the embeddings' rows by sample_id."""
    emb = tables.read_embeddings_csv(_require_file(embeddings, "embeddings CSV"))
    ids, values = tables.read_quantities_csv(_require_file(other, what), columns=columns)
    pos = {sid: i for i, sid in enumerate(ids)}
    missing = [sid for sid in emb["sample_ids"] if sid not in pos]
    if missing:
        raise InputError(f"sample_id {missing[0]} from {embeddings} has no row in {other}")
    rows = [pos[sid] for sid in emb["sample_ids"]]
    return emb, {name: v[rows] for name, v in values.items()}


def cmd_metric(args) -> int:
    overrides = {key: value for key, value in (("k", args.k), ("r_percent", args.r))
                 if value is not None}
    # a bad --k or --r exits here, before the inputs are read
    section = replace(load_config(args.config).metric, **overrides)
    emb, aligned = _join_on_sample_id(args.embeddings, args.quantities, "quantities CSV",
                                      args.columns)
    report = spectral.interpretability_report(emb["mu"], aligned, section)
    tables.write_report_csv(args.out, report)
    if args.spectrum_out:
        tables.write_spectrum_csv(args.spectrum_out, report)
    for name, value in report.eta.items():
        print(f"eta[{name}] = {value:.6f} (k={report.k}, r={report.r_percent:g}%, "
              f"components={len(report.component_sizes)})")
    print(f"wrote report to {args.out}")
    return 0


def cmd_baseline(args) -> int:
    dataset = datagen.load_csv(_require_file(args.dataset, "dataset CSV"))
    x = dataset.matrix()
    if args.method == "mds":
        emb = baselines.coordinate_mds(x, args.dim)
    else:
        emb = baselines.isomap(x, k=args.k, dim=args.dim)
    final_stress = baselines.stress(baselines.euclidean_distances(x), emb.points)
    tables.write_embeddings_csv(args.out, range(len(dataset)), dataset.split_names(),
                                emb.points, true_labels=dataset.labels())
    print(f"wrote {args.method} embedding to {args.out} "
          f"(stress vs. Euclidean distances: {final_stress:.6g})")
    return 0


def cmd_align(args) -> int:
    emb, params = _join_on_sample_id(args.embeddings, args.params, "parameters CSV",
                                     args.columns)
    names = list(params)
    b = np.column_stack([params[name] for name in names])
    report = align_mod.fit_affine(emb["mu"], b)
    transformed = align_mod.apply_map(report.map, emb["mu"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "a": report.map.a.tolist(),
        "c": report.map.c.tolist(),
        "z0": None if report.map.z0 is None else report.map.z0.tolist(),
        "residual_rms": report.residual_rms,
        "r_squared": {name: float(v) for name, v in zip(names, report.r_squared)},
        "n_samples": report.n_samples,
        "target_columns": names,
    }
    with open(out_dir / "align_report.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    tables.write_table(out_dir / "transformed.csv", {"sample_id": emb["sample_ids"]} | {
        f"pred_{name}": transformed[:, j] for j, name in enumerate(names)})
    print(f"residual_rms = {report.residual_rms:.6g}")
    for name, v in zip(names, report.r_squared):
        print(f"r_squared[{name}] = {v:.6f}")
    print(f"wrote report and transformed coordinates under {out_dir}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error with exit code 1 (argparse uses 2, which here means
    numerical failure); subcommand parsers inherit this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _seed(text: str) -> int:
    """argparse type of the --seed flags: numpy seeds must be integers >= 0."""
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < 0:
        raise argparse.ArgumentTypeError(f"seed must be an integer >= 0, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gmvlab", description="Mixture-prior VAE laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--seed", type=_seed, default=None, help="override the relevant seed")

    p = sub.add_parser("generate", help="simulate the reaction dataset")
    common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("train", help="train the mixture-prior VAE")
    common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("embed", help="export embeddings for a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("sample", help="decode draws from the latent mixture")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--cluster", type=int, default=None)
    p.add_argument("--seed", type=_seed, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("metric", help="spectral smoothness report")
    p.add_argument("--config", default=None, help="INI config file (metric section)")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--quantities", required=True)
    p.add_argument("--columns", nargs="+", default=None)
    p.add_argument("--k", type=int, default=None, help="neighbor count (default: config, 10)")
    p.add_argument("--r", type=float, default=None, help="low-mode percentage (default: config, 20)")
    p.add_argument("--out", required=True)
    p.add_argument("--spectrum-out", default=None)
    p.set_defaults(func=cmd_metric)

    p = sub.add_parser("baseline", help="classical MDS / Isomap embedding")
    p.add_argument("--method", choices=["mds", "isomap"], required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("align", help="affine map from embeddings to parameters")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--params", required=True)
    p.add_argument("--columns", nargs="+", default=None)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_align)

    return parser


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # restores the caller's warning display on return
        warnings.showwarning = _print_warning
        try:
            return args.func(args)
        except (InputError, ContractError) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
