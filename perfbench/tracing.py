"""Per-layer tracing for the benchmark, done from outside the program.

Each layer boundary is a public function replaced, in the namespace that
calls it, by a wrapper that records calls, inclusive time and self time
(inclusive minus the time of wrapped calls made inside it). Nothing under
src/ knows about this. A wrapped name that a later version of the program
no longer defines is reported as an absent layer instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# (module, attribute in that module's namespace, layer name). The module is
# the one whose code makes the call: `train` looks up `backward` in
# gmvlab.gmvae.train's globals, the CLI looks up `datagen.load_csv` on the
# datagen module, and so on. "Class.method" wraps a method on the class.
WRAPPED = [
    ("gmvlab.gmvae.train", "backward", "ndmath.backward"),
    ("gmvlab.gmvae.train", "adam_step", "ndmath.adam_step"),
    ("gmvlab.gmvae.train", "batch_loss", "gmvae.batch_loss"),
    ("gmvlab.gmvae.train", "encode", "gmvae.encode"),
    ("gmvlab.gmvae.train", "em_step", "gmvae.em_step"),
    ("gmvlab.cli", "train", "gmvae.train"),
    ("gmvlab.cli", "save_checkpoint", "gmvae.save_checkpoint"),
    ("gmvlab.cli", "embed_dataset", "gmvae.embed_dataset"),
    ("gmvlab.spectral", "symmetric_eig", "ndmath.symmetric_eig"),
    ("gmvlab.baselines", "symmetric_eig", "ndmath.symmetric_eig"),
    ("gmvlab.datagen", "generate", "datagen.generate"),
    ("gmvlab.datagen", "save_csv", "datagen.save_csv"),
    ("gmvlab.datagen", "load_csv", "datagen.load_csv"),
    ("gmvlab.spectral", "spectrum", "spectral.spectrum"),
    ("gmvlab.spectral", "build_knn", "spectral.build_knn"),
    ("gmvlab.baselines", "build_knn", "spectral.build_knn"),
    ("gmvlab.spectral", "KnnGraph.component_sizes", "spectral.component_sizes"),
    ("gmvlab.spectral", "project", "spectral.project"),
    ("gmvlab.baselines", "geodesic_distances", "baselines.geodesic_distances"),
    ("gmvlab.baselines", "classical_mds", "baselines.classical_mds"),
    ("gmvlab.baselines", "euclidean_distances", "baselines.euclidean_distances"),
    ("gmvlab.baselines", "stress", "baselines.stress"),
    ("gmvlab.align", "fit_affine", "align.fit_affine"),
    ("gmvlab.tables", "read_embeddings_csv", "tables.read"),
    ("gmvlab.tables", "read_quantities_csv", "tables.read"),
    ("gmvlab.tables", "write_embeddings_csv", "tables.write"),
    ("gmvlab.tables", "write_history_csv", "tables.write"),
    ("gmvlab.tables", "write_report_csv", "tables.write"),
    ("gmvlab.tables", "write_spectrum_csv", "tables.write"),
    ("gmvlab.tables", "write_samples_csv", "tables.write"),
    ("gmvlab.cli", "main", "cli"),
]

# (metric name, unit, layer, statistic, normalisation). Statistics: calls,
# ms / s (inclusive time), self_ms / self_s (self time), max_n (largest
# leading dimension of the first argument). Normalisation: per timed cycle
# of the workload, or per training epoch.
PER_LAYER = [
    ("ndmath.backward.ms_per_epoch", "ms/epoch", "ndmath.backward", "ms", "epoch"),
    ("ndmath.adam_step.ms_per_epoch", "ms/epoch", "ndmath.adam_step", "ms", "epoch"),
    ("ndmath.symmetric_eig.s", "s/cycle", "ndmath.symmetric_eig", "s", "cycle"),
    ("ndmath.symmetric_eig.calls", "calls/cycle", "ndmath.symmetric_eig", "calls", "cycle"),
    ("ndmath.symmetric_eig.max_n", "rows", "ndmath.symmetric_eig", "max_n", None),
    ("gmvae.batch_loss.ms_per_epoch", "ms/epoch", "gmvae.batch_loss", "ms", "epoch"),
    ("gmvae.batch_loss.calls", "calls/cycle", "gmvae.batch_loss", "calls", "cycle"),
    ("gmvae.encode.ms_per_epoch", "ms/epoch", "gmvae.encode", "ms", "epoch"),
    ("gmvae.em_step.ms_per_epoch", "ms/epoch", "gmvae.em_step", "ms", "epoch"),
    ("gmvae.train.self_ms_per_epoch", "ms/epoch", "gmvae.train", "self_ms", "epoch"),
    ("gmvae.save_checkpoint.ms", "ms/cycle", "gmvae.save_checkpoint", "ms", "cycle"),
    ("gmvae.embed_dataset.ms", "ms/cycle", "gmvae.embed_dataset", "ms", "cycle"),
    ("datagen.generate.ms", "ms/cycle", "datagen.generate", "ms", "cycle"),
    ("datagen.save_csv.ms", "ms/cycle", "datagen.save_csv", "ms", "cycle"),
    ("datagen.load_csv.ms", "ms/cycle", "datagen.load_csv", "ms", "cycle"),
    ("datagen.load_csv.calls", "calls/cycle", "datagen.load_csv", "calls", "cycle"),
    ("spectral.spectrum.calls", "calls/cycle", "spectral.spectrum", "calls", "cycle"),
    ("spectral.spectrum.self_ms", "ms/cycle", "spectral.spectrum", "self_ms", "cycle"),
    ("spectral.build_knn.ms", "ms/cycle", "spectral.build_knn", "ms", "cycle"),
    ("spectral.build_knn.calls", "calls/cycle", "spectral.build_knn", "calls", "cycle"),
    ("spectral.component_sizes.ms", "ms/cycle", "spectral.component_sizes", "ms", "cycle"),
    ("spectral.project.ms", "ms/cycle", "spectral.project", "ms", "cycle"),
    ("baselines.geodesic_distances.self_s", "s/cycle", "baselines.geodesic_distances", "self_s",
     "cycle"),
    ("baselines.classical_mds.self_s", "s/cycle", "baselines.classical_mds", "self_s", "cycle"),
    ("baselines.euclidean_distances.ms", "ms/cycle", "baselines.euclidean_distances", "ms",
     "cycle"),
    ("baselines.euclidean_distances.calls", "calls/cycle", "baselines.euclidean_distances",
     "calls", "cycle"),
    ("baselines.stress.ms", "ms/cycle", "baselines.stress", "ms", "cycle"),
    ("align.fit_affine.ms", "ms/cycle", "align.fit_affine", "ms", "cycle"),
    ("tables.read.ms", "ms/cycle", "tables.read", "ms", "cycle"),
    ("tables.write.ms", "ms/cycle", "tables.write", "ms", "cycle"),
    ("cli.self_ms", "ms/cycle", "cli", "self_ms", "cycle"),
]
OVERHEAD_METRIC = ("trace.overhead_share", "ratio")


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    max_n: int = 0


class Tracer:
    """Wraps the layer boundaries in WRAPPED and aggregates their spans."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = {}
        self.absent: list[str] = []
        self.enabled = False
        self._child_s = [0.0]  # time covered by wrapped callees, one slot per open span

    def install(self) -> None:
        for module_name, attr, layer in WRAPPED:
            self.stats.setdefault(layer, LayerStats())
            owner = sys.modules.get(module_name) or importlib.import_module(module_name)
            *path, name = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            fn = getattr(owner, name, None)
            if not callable(fn):
                self.absent.append(f"{layer} ({module_name}.{attr})")
                continue
            setattr(owner, name, self._wrap(fn, layer))

    def _wrap(self, fn, layer: str):
        stats = self.stats[layer]
        child_s = self._child_s

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if args and hasattr(args[0], "shape") and len(args[0].shape):
                stats.max_n = max(stats.max_n, int(args[0].shape[0]))
            child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                inner = child_s.pop()
                child_s[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - inner

        return traced

    def metrics(self, cycles: int, epochs: int, overhead_share: float) -> dict:
        """Per-layer metrics over `cycles` traced cycles holding `epochs` epochs."""
        out = {}
        for name, unit, layer, stat, per in PER_LAYER:
            s = self.stats.get(layer, LayerStats())
            value = {
                "calls": s.calls,
                "ms": s.total_s * 1e3,
                "s": s.total_s,
                "self_ms": s.self_s * 1e3,
                "self_s": s.self_s,
                "max_n": s.max_n,
            }[stat]
            denom = {"cycle": cycles, "epoch": epochs, None: 1}[per]
            out[name] = {"value": value / denom if denom else 0.0, "unit": unit}
        name, unit = OVERHEAD_METRIC
        out[name] = {"value": overhead_share, "unit": unit}
        return out
