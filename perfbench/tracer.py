"""Spans around cryoguide's public functions, and the per-layer metrics made
from them.

A traced call swaps module attributes for timed wrappers and restores them
afterwards; the program's source is untouched.  The wrappers sit on the names
that callers actually look up: `sampler` imports `divergence_grad` by name,
`divergence_grad` reaches `transport.ot_epsilon` as a module global,
`alignment` imports `splat` by name while `forward` calls `_kernels.splat`.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field

# (metric name, unit, better); every traced run reports each of these, per
# end-to-end call, with 0 where the workload does not reach the layer.
PER_LAYER = [
    ("transport.ot_cross.calls", "count", "lower"),
    ("transport.ot_cross.s", "s", "lower"),
    ("transport.ot_cross.iters_mean", "count", "lower"),
    ("transport.ot_cross.converged_frac", "ratio", "higher"),
    ("transport.ot_self.calls", "count", "lower"),
    ("transport.ot_self.s", "s", "lower"),
    ("transport.ot_self.iters_mean", "count", "lower"),
    ("transport.ot_self.converged_frac", "ratio", "higher"),
    ("transport.lse_cells", "count", "lower"),
    ("transport.divergence_grad.s", "s", "lower"),
    ("alignment.dock.calls", "count", "lower"),
    ("alignment.dock.s", "s", "lower"),
    ("alignment.dock.scan_s", "s", "lower"),
    ("alignment.dock.splat_calls", "count", "lower"),
    ("alignment.dock.splat_s", "s", "lower"),
    ("alignment.kabsch.calls", "count", "lower"),
    ("alignment.kabsch.s", "s", "lower"),
    ("forward.splat.calls", "count", "lower"),
    ("forward.splat.s", "s", "lower"),
    ("forward.splat.atoms", "count", "lower"),
    ("forward.splat_grad.calls", "count", "lower"),
    ("forward.splat_grad.s", "s", "lower"),
    ("forward.blur.calls", "count", "lower"),
    ("forward.blur.s", "s", "lower"),
    ("forward.density_loss_grad.s", "s", "lower"),
    ("pointcloud.extract.s", "s", "lower"),
    ("pointcloud.extract.k", "count", "higher"),
    ("pointcloud.extract.voxels", "count", "higher"),
    ("volume.read_mrc.s", "s", "lower"),
    ("volume.write_mrc.s", "s", "lower"),
    ("volume.prep.s", "s", "lower"),
    ("volume.mask_near_model.s", "s", "lower"),
    ("structure.read_pdb.s", "s", "lower"),
    ("structure.write_pdb.s", "s", "lower"),
    ("structure.atoms_io", "count", "lower"),
    ("metrics.rscc.calls", "count", "lower"),
    ("metrics.rscc.s", "s", "lower"),
    ("metrics.evaluate.s", "s", "lower"),
    ("sampler.score.calls", "count", "lower"),
    ("sampler.score.s", "s", "lower"),
    ("sampler.sample.s_p50", "s", "lower"),
    ("sampler.self.s", "s", "lower"),
    ("sampler.global_evals", "count", "lower"),
    ("sampler.local_evals", "count", "lower"),
    ("pipeline.build_context.s", "s", "lower"),
    ("pipeline.self.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None        # index of the enclosing span in Tracer.spans
    run: int                  # which end-to-end call the span belongs to
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Keeps spans in memory; `installed` puts the wrappers in place."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """Timed stand-in for `fn`; `attrs(args, kwargs, result)` adds details
        to the span after its clock has stopped."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None,
                        self.run)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, targets):
        """Swap each `(owner, attribute, span name, attrs)` for a wrapper of the
        original, and put every original back on exit."""
        saved = []
        try:
            for owner, attr, name, attrs in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, attrs))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def records(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _model_atoms(model) -> dict:
    return {"atoms": len(model)}


def _ot_attrs(args, kwargs, result) -> dict:
    X, Y = args[0], args[1]
    plan = result[1]
    return {"self": X is Y, "n": len(X), "m": len(Y),
            "iterations": plan.iterations, "converged": plan.converged}


def targets() -> list[tuple]:
    """Every name the benchmark's calls reach cryoguide's layers through."""
    from cryoguide import (_kernels, alignment, forward, metrics, pipeline,
                           pointcloud, sampler, structure, transport, volume)

    read_atoms = lambda a, k, r: _model_atoms(r)
    write_atoms = lambda a, k, r: _model_atoms(a[0])
    extract = lambda a, k, r: {"k": len(r), "voxels": int((a[0].data > 0).sum())}
    splat_atoms = lambda a, k, r: {"atoms": len(a[0])}
    out = [
        (pipeline, "run_guided", "pipeline.run_guided", None),
        (pipeline, "build_context", "pipeline.build_context", None),
        (pipeline, "dock_to_map", "alignment.dock", None),
        (pipeline, "sample_guided", "sampler.sample", None),
        (pipeline, "sample_unguided", "sampler.sample_unguided", None),
        (sampler.GaussianMixturePrior, "score", "sampler.score", None),
        (sampler, "divergence_grad", "transport.divergence_grad", None),
        (transport, "ot_epsilon", "transport.ot_epsilon", _ot_attrs),
        (sampler, "density_loss_grad_coords", "forward.density_loss_grad", None),
        (sampler, "kabsch", "alignment.kabsch", None),
        (metrics, "kabsch", "alignment.kabsch", None),
        (alignment, "splat", "forward.splat", splat_atoms),
        (_kernels, "splat", "forward.splat", splat_atoms),
        (_kernels, "splat_grad", "forward.splat_grad", None),
        (forward.BlurOperator, "apply", "forward.blur", None),
        (forward, "simulate_map", "forward.simulate_map", None),
        (metrics, "rank_samples", "metrics.rank_samples", None),
        (volume, "write_mrc", "volume.write_mrc", None),
        (volume, "mask_near_model", "volume.mask_near_model", None),
    ]
    for name in ("threshold", "dust", "crop_pad"):
        out.append((volume, name, "volume.prep", None))
    # the pipeline imported these into its own namespace; the benchmark and
    # the rest of the package reach them through their home module
    for home, attr, name, attrs in (
            (volume, "read_mrc", "volume.read_mrc", None),
            (structure, "read_pdb", "structure.read_pdb", read_atoms),
            (structure, "write_pdb", "structure.write_pdb", write_atoms),
            (pointcloud, "extract_pointcloud", "pointcloud.extract", extract),
            (metrics, "rscc", "metrics.rscc", None),
            (metrics, "evaluate", "metrics.evaluate", None)):
        out += [(pipeline, attr, name, attrs), (home, attr, name, attrs)]
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration less the durations of its direct children."""
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span], n_calls: int) -> dict[str, float]:
    """Per-layer metrics per end-to-end call (all PER_LAYER names but
    trace.overhead_s, which needs an untraced call to compare against)."""
    own = self_times(spans)
    by = defaultdict(list)
    for i, s in enumerate(spans):
        by[s.name].append(i)

    def total(name, of=None):
        return sum((of or (lambda i: spans[i].duration))(i) for i in by[name]) / n_calls

    def count(name):
        return len(by[name]) / n_calls

    m = {}
    ot = by["transport.ot_epsilon"]
    for label, is_self in (("ot_cross", False), ("ot_self", True)):
        group = [spans[i] for i in ot if spans[i].attrs["self"] is is_self]
        m[f"transport.{label}.calls"] = len(group) / n_calls
        m[f"transport.{label}.s"] = sum(s.duration for s in group) / n_calls
        m[f"transport.{label}.iters_mean"] = _mean([s.attrs["iterations"] for s in group])
        m[f"transport.{label}.converged_frac"] = _mean(
            [float(s.attrs["converged"]) for s in group])
    m["transport.lse_cells"] = sum(
        spans[i].attrs["iterations"] * spans[i].attrs["n"] * spans[i].attrs["m"]
        for i in ot) / n_calls
    m["transport.divergence_grad.s"] = total("transport.divergence_grad")

    docks = set(by["alignment.dock"])
    dock_splats = [s for s in spans if s.name == "forward.splat" and s.parent in docks]
    scan = 0.0
    for i in docks:
        first = min((s.start for s in dock_splats if s.parent == i), default=spans[i].end)
        scan += first - spans[i].start
    m["alignment.dock.calls"] = count("alignment.dock")
    m["alignment.dock.s"] = total("alignment.dock")
    m["alignment.dock.scan_s"] = scan / n_calls
    m["alignment.dock.splat_calls"] = len(dock_splats) / n_calls
    m["alignment.dock.splat_s"] = sum(s.duration for s in dock_splats) / n_calls
    m["alignment.kabsch.calls"] = count("alignment.kabsch")
    m["alignment.kabsch.s"] = total("alignment.kabsch")

    m["forward.splat.calls"] = count("forward.splat")
    m["forward.splat.s"] = total("forward.splat")
    m["forward.splat.atoms"] = total("forward.splat", lambda i: spans[i].attrs["atoms"])
    m["forward.splat_grad.calls"] = count("forward.splat_grad")
    m["forward.splat_grad.s"] = total("forward.splat_grad")
    m["forward.blur.calls"] = count("forward.blur")
    m["forward.blur.s"] = total("forward.blur")
    m["forward.density_loss_grad.s"] = total("forward.density_loss_grad")

    extracts = [spans[i].attrs for i in by["pointcloud.extract"]]
    m["pointcloud.extract.s"] = total("pointcloud.extract")
    m["pointcloud.extract.k"] = _mean([a["k"] for a in extracts])
    m["pointcloud.extract.voxels"] = _mean([a["voxels"] for a in extracts])

    m["volume.read_mrc.s"] = total("volume.read_mrc")
    m["volume.write_mrc.s"] = total("volume.write_mrc")
    m["volume.prep.s"] = total("volume.prep")
    m["volume.mask_near_model.s"] = total("volume.mask_near_model")

    m["structure.read_pdb.s"] = total("structure.read_pdb")
    m["structure.write_pdb.s"] = total("structure.write_pdb")
    m["structure.atoms_io"] = sum(
        total(name, lambda i: spans[i].attrs["atoms"])
        for name in ("structure.read_pdb", "structure.write_pdb"))

    m["metrics.rscc.calls"] = count("metrics.rscc")
    m["metrics.rscc.s"] = total("metrics.rscc", own.__getitem__)
    m["metrics.evaluate.s"] = total("metrics.evaluate")

    m["sampler.score.calls"] = count("sampler.score")
    m["sampler.score.s"] = total("sampler.score")
    m["sampler.sample.s_p50"] = _median([spans[i].duration for i in by["sampler.sample"]])
    m["sampler.self.s"] = (total("sampler.sample", own.__getitem__)
                           + total("sampler.sample_unguided", own.__getitem__))
    # only the sampler's guidance hook reaches these two names
    m["sampler.global_evals"] = count("transport.divergence_grad")
    m["sampler.local_evals"] = count("forward.density_loss_grad")

    m["pipeline.build_context.s"] = total("pipeline.build_context", own.__getitem__)
    m["pipeline.self.s"] = total("pipeline.run_guided", own.__getitem__)
    return m
