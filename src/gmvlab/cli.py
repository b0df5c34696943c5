"""Command-line front end for the whole pipeline.

Subcommands: generate, train, embed, sample, metric, baseline, align.
Exit codes: 0 success, 1 usage or validation error or a path that cannot be
opened, read or written, 2 numerical failure. Each subcommand checks its
output paths before it reads an input, so an unusable output path, or one
that is also an input or another output, costs no work and leaves no other
output behind.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import warnings
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import align as align_mod
from . import baselines, datagen, spectral, tables
from .config import load_config
from .errors import InputError, NumericalError
from .gmvae import (
    GmVae,
    embed_dataset,
    load_checkpoint,
    permutation_accuracy,
    sample,
    save_checkpoint,
    train,
)


def _same_file(a: Path, b: Path) -> bool:
    """Whether writing `a` would write `b`: the same file when both exist, else
    the same resolved path. A pipe or device is never the same file."""
    if a.exists() and b.exists():
        return a.is_file() and b.is_file() and os.path.samefile(a, b)
    return a.resolve() == b.resolve()


def _check_outputs(*paths, inputs=()) -> None:
    """Raise InputError when one of the output `paths` is also another of them
    or one of `inputs`, naming both; then the OSError that writing one would
    meet: the path is a directory or its text ends in a separator, its parent
    directory is missing, or neither the existing file nor the parent is
    writable. A None (an output or input not asked for) is skipped. Creates
    and writes nothing."""
    texts = [p for p in paths if p]
    outputs = [Path(p) for p in texts]
    named = [("output", p) for p in outputs] + [("input", Path(p)) for p in inputs if p]
    for i, path in enumerate(outputs):
        for kind, other in named[i + 1:]:
            if _same_file(path, other):
                raise InputError(f"output {path} is also the {kind} {other}")
    for text, path in zip(texts, outputs):
        if path.is_dir() or os.path.basename(text) == "":  # Path("out.csv/") drops the "/"
            code = errno.EISDIR
        elif not path.parent.is_dir():
            code = errno.ENOENT
        elif not os.access(path if path.exists() else path.parent, os.W_OK):
            code = errno.EACCES
        else:
            continue
        raise OSError(code, os.strerror(code), str(text))


def _check_output_dir(path, *names, inputs=()) -> list[Path]:
    """The files `names` in the output directory `path`, checked by
    `_check_outputs` against `inputs` when the directory exists. A missing
    directory passes when its nearest existing ancestor is a writable directory,
    since the caller makes it, with its missing parents, once the inputs are
    read. Creates nothing."""
    out_dir = Path(path)
    files = [out_dir / name for name in names]
    if out_dir.is_dir():
        _check_outputs(*files, inputs=inputs)
        return files
    if out_dir.exists():
        code = errno.EEXIST
    else:
        base = next(p for p in out_dir.parents if p.exists())
        if not base.is_dir():
            code = errno.ENOTDIR
        elif not os.access(base, os.W_OK):
            code = errno.EACCES
        else:
            return files
    raise OSError(code, os.strerror(code), str(out_dir))


def cmd_generate(args) -> int:
    _check_outputs(args.out, inputs=[args.config])
    section = load_config(args.config).dataset
    if args.seed is not None:
        section = replace(section, seed=args.seed)
    dataset = datagen.generate(section)
    datagen.save_csv(dataset, args.out)
    n = len(dataset)
    n_reactive = np.count_nonzero(dataset.label == datagen.LABEL_REACTIVE)
    print(f"wrote {n} trajectories to {args.out}")
    print(f"class balance: reactive {n_reactive}/{n} ({n_reactive / n:.3f}), "
          f"stable {n - n_reactive}/{n} ({(n - n_reactive) / n:.3f})")
    for name in datagen.SPLIT_NAMES:
        print(f"split {name}: {np.count_nonzero(dataset.split == name)}")
    return 0


def _write_embeddings(model, dataset, out_path) -> np.ndarray:
    """Write the posterior-mean embeddings of every row; returns their hard labels."""
    mu, var, gamma = embed_dataset(model, dataset.rho)
    hard = np.argmax(gamma, axis=1)
    tables.write_embeddings_csv(out_path, range(len(dataset)), dataset.split, mu,
                                var=var, gamma=gamma, hard_labels=hard,
                                true_labels=dataset.label)
    return hard


def cmd_train(args) -> int:
    checkpoint_json, history_csv, embeddings_csv = _check_output_dir(
        args.out, "checkpoint.json", "history.csv", "embeddings.csv",
        inputs=[args.config, args.dataset])
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = replace(cfg, training=replace(cfg.training, seed=args.seed))
    dataset = datagen.load_csv(args.dataset)
    Path(args.out).mkdir(parents=True, exist_ok=True)

    x_train = dataset.rho[dataset.split == "train"]
    tc = cfg.training
    model = GmVae.init(x_train.shape[1], cfg.model, np.random.Generator(np.random.PCG64(tc.seed)))
    say_every = max(1, tc.epochs // 20)

    def progress(epoch, terms):
        if (epoch + 1) % say_every == 0 or epoch == 0:
            print(f"epoch {epoch + 1}/{tc.epochs}: loss {terms.total_loss:.4f} "
                  f"recon {terms.recon:.4f} pi {np.round(model.gmm.pi, 4)}")

    history = train(model, x_train, tc, progress=progress if not args.quiet else None)

    digest = save_checkpoint(model, checkpoint_json, config=asdict(cfg))
    tables.write_history_csv(history_csv, history)
    hard = _write_embeddings(model, dataset, embeddings_csv)

    print(f"checkpoint digest: {digest}")
    test = dataset.split == "test"
    if test.any():
        acc, mapping = permutation_accuracy(hard[test], dataset.label[test])
        print(f"test clustering accuracy (best permutation): {acc:.4f} via {mapping}")
    else:
        print("test split is empty: no clustering accuracy")
    print(f"final pi: {np.array2string(model.gmm.pi, precision=4)}")
    return 0


def cmd_embed(args) -> int:
    _check_outputs(args.out, inputs=[args.checkpoint, args.dataset])
    model, digest = load_checkpoint(args.checkpoint)
    dataset = datagen.load_csv(args.dataset)
    print(f"checkpoint digest: {digest}")
    _write_embeddings(model, dataset, args.out)
    print(f"wrote embeddings to {args.out}")
    return 0


def cmd_sample(args) -> int:
    _check_outputs(args.out, inputs=[args.checkpoint])
    model, digest = load_checkpoint(args.checkpoint)
    print(f"checkpoint digest: {digest}")
    rng = np.random.Generator(np.random.PCG64(args.seed if args.seed is not None else 1))
    curves, clusters = sample(model, args.count, rng, cluster=args.cluster)
    tables.write_samples_csv(args.out, curves, clusters)
    print(f"wrote {args.count} samples to {args.out}")
    if args.count:
        usage = np.bincount(clusters, minlength=model.gmm.n_clusters) / args.count
        print(f"cluster usage: {np.array2string(usage, precision=3)}")
    return 0


def _join_on_sample_id(embeddings, other, columns):
    """(sample_ids, mu) of the embeddings table, and the numeric `columns` of
    `other` at the rows whose sample_id matches each embedding row's."""
    sample_ids, mu = tables.read_embeddings_csv(embeddings)
    ids, values = tables.read_quantities_csv(other, columns=columns)
    pos = {sid: i for i, sid in enumerate(ids)}
    rows = [pos.get(sid) for sid in sample_ids]
    if None in rows:
        sid = sample_ids[rows.index(None)]
        raise InputError(f"sample_id {sid} from {embeddings} has no row in {other}")
    return sample_ids, mu, {name: v[rows] for name, v in values.items()}


def cmd_metric(args) -> int:
    _check_outputs(args.out, args.spectrum_out,
                   inputs=[args.config, args.embeddings, args.quantities])
    overrides = {key: value for key, value in (("k", args.k), ("r_percent", args.r))
                 if value is not None}
    # a bad --k or --r exits here, before the inputs are read
    section = replace(load_config(args.config).metric, **overrides)
    _, mu, aligned = _join_on_sample_id(args.embeddings, args.quantities, args.columns)
    report = spectral.interpretability_report(mu, aligned, section)
    tables.write_report_csv(args.out, report)
    if args.spectrum_out:
        tables.write_spectrum_csv(args.spectrum_out, report)
    for name, value in report.eta.items():
        print(f"eta[{name}] = {value:.6f} (k={report.k}, r={report.r_percent:g}%, "
              f"components={len(report.component_sizes)})")
    print(f"wrote report to {args.out}")
    return 0


def cmd_baseline(args) -> int:
    _check_outputs(args.out, inputs=[args.dataset])
    dataset = datagen.load_csv(args.dataset)
    x = dataset.rho
    if args.method == "mds":
        emb = baselines.coordinate_mds(x, args.dim)
    else:
        emb = baselines.isomap(x, k=args.k, dim=args.dim)
    final_stress = baselines.stress(baselines.euclidean_distances(x), emb.points)
    tables.write_embeddings_csv(args.out, range(len(dataset)), dataset.split,
                                emb.points, true_labels=dataset.label)
    print(f"wrote {args.method} embedding to {args.out} "
          f"(stress vs. Euclidean distances: {final_stress:.6g})")
    return 0


def cmd_align(args) -> int:
    report_json, transformed_csv = _check_output_dir(
        args.out, "align_report.json", "transformed.csv", inputs=[args.embeddings, args.params])
    sample_ids, mu, params = _join_on_sample_id(args.embeddings, args.params, args.columns)
    names = list(params)
    b = np.column_stack([params[name] for name in names])
    report = align_mod.fit_affine(mu, b)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "a": report.a.tolist(),
        "c": report.c.tolist(),
        "z0": None if report.z0 is None else report.z0.tolist(),
        "residual_rms": report.residual_rms,
        "r_squared": {name: float(v) for name, v in zip(names, report.r_squared)},
        "n_samples": len(sample_ids),
        "target_columns": names,
    }
    with open(report_json, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    tables.write_table(transformed_csv, {"sample_id": sample_ids} | {
        f"pred_{name}": report.fitted[:, j] for j, name in enumerate(names)})
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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # a command's warnings are held, and printed only when it succeeds, so a failure
    # is one stderr line; the caller's warning display is restored on return
    with warnings.catch_warnings(record=True) as held:
        try:
            code = args.func(args)
        except (InputError, OSError) as e:  # an OSError's message names its path
            print(f"error: {e}", file=sys.stderr)
            return 1
        except NumericalError as e:
            print(f"numerical failure: {e}", file=sys.stderr)
            return 2
    for warning in held:
        print(f"warning: {warning.message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
