"""Span bookkeeping, self-time arithmetic and metric naming of the benchmark."""

import json
import os
import re

import numpy as np
import pytest

import run
import tracer as tr
import workloads
from tracer import Span

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def spans(*rows):
    """Spans from (name, start, end, parent, attrs) rows, all of run 0."""
    return [Span(name, start, end, parent, 0, attrs or {})
            for name, start, end, parent, attrs in rows]


def ot(start, end, parent, is_self, iters, converged, n=7, m=7):
    return ("transport.ot_epsilon", start, end, parent,
            {"self": is_self, "n": n, "m": m, "iterations": iters, "converged": converged})


def test_self_time_subtracts_direct_children_only():
    s = spans(("metrics.rscc", 0.0, 10.0, None, None),
              ("forward.simulate_map", 1.0, 8.0, 0, None),
              ("forward.splat", 2.0, 7.0, 1, None))
    assert tr.self_times(s) == pytest.approx([3.0, 2.0, 5.0])


def test_rscc_self_time_excludes_splat():
    s = spans(("metrics.rscc", 0.0, 10.0, None, None),
              ("forward.splat", 1.0, 7.0, 0, {"atoms": 30}),
              ("metrics.rscc", 20.0, 24.0, None, None),
              ("forward.splat", 21.0, 22.0, 2, {"atoms": 30}))
    m = tr.layer_metrics(s, n_calls=2)
    assert m["metrics.rscc.calls"] == 1.0
    assert m["metrics.rscc.s"] == pytest.approx((4.0 + 3.0) / 2)
    assert m["forward.splat.s"] == pytest.approx((6.0 + 1.0) / 2)
    assert m["forward.splat.atoms"] == 30.0


def test_divergence_grad_splits_cross_and_self_solves():
    s = spans(("sampler.sample", 0.0, 20.0, None, None),
              ("transport.divergence_grad", 1.0, 11.0, 0, None),
              ot(2.0, 6.0, 1, False, 500, False, n=30, m=7),
              ot(6.0, 9.0, 1, True, 100, True, n=30, m=30))
    m = tr.layer_metrics(s, n_calls=1)
    assert m["transport.ot_cross.calls"] == 1 and m["transport.ot_self.calls"] == 1
    assert m["transport.ot_cross.s"] == pytest.approx(4.0)
    assert m["transport.ot_self.s"] == pytest.approx(3.0)
    assert m["transport.ot_cross.iters_mean"] == 500
    assert m["transport.ot_cross.converged_frac"] == 0.0
    assert m["transport.ot_self.converged_frac"] == 1.0
    assert m["transport.lse_cells"] == 500 * 30 * 7 + 100 * 30 * 30
    assert m["transport.divergence_grad.s"] == pytest.approx(10.0)
    assert m["sampler.global_evals"] == 1
    # the sample's own time excludes the guidance call, not the solves below it
    assert m["sampler.self.s"] == pytest.approx(10.0)
    assert m["sampler.sample.s_p50"] == pytest.approx(20.0)


def test_dock_scan_ends_at_first_refinement_splat():
    s = spans(("pipeline.build_context", 0.0, 12.0, None, None),
              ("alignment.dock", 1.0, 11.0, 0, None),
              ("forward.splat", 4.0, 5.0, 1, {"atoms": 30}),
              ("forward.splat", 6.0, 8.0, 1, {"atoms": 30}),
              ("forward.splat", 20.0, 21.0, None, {"atoms": 30}))
    m = tr.layer_metrics(s, n_calls=1)
    assert m["alignment.dock.scan_s"] == pytest.approx(3.0)
    assert m["alignment.dock.splat_calls"] == 2
    assert m["alignment.dock.splat_s"] == pytest.approx(3.0)
    assert m["forward.splat.calls"] == 3
    assert m["pipeline.build_context.s"] == pytest.approx(2.0)


def test_layer_metrics_cover_every_per_layer_name():
    names = {name for name, _, _ in tr.PER_LAYER}
    assert set(tr.layer_metrics([], n_calls=1)) == names - {"trace.overhead_s"}


def test_metric_names_and_units_are_well_formed():
    names = [n for n, _, _ in tr.PER_LAYER] + [n for n, _ in run.END_TO_END]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [u for _, u, _ in tr.PER_LAYER] + [u for _, u in run.END_TO_END]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_matches_the_code():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tr.PER_LAYER


def test_targets_are_distinct_and_exist():
    targets = tr.targets()
    keys = [(id(owner), attr) for owner, attr, _, _ in targets]
    assert len(keys) == len(set(keys))
    for owner, attr, _, _ in targets:
        assert callable(getattr(owner, attr))


def test_installed_wrappers_nest_and_are_removed():
    from cryoguide import _kernels, metrics
    from cryoguide.priors import chain_template
    from cryoguide.forward import grid_for_model, simulate_map

    model = chain_template(np.arange(30.0).reshape(10, 3))
    dmap = simulate_map(model, grid_for_model(model, 1.0, 3.0), 2.0)
    originals = {(id(o), a): getattr(o, a) for o, a, _, _ in tr.targets()}
    t = tr.Tracer()
    with pytest.raises(ZeroDivisionError):
        with t.installed(tr.targets()):
            metrics.rank_samples([model], dmap, 2.0)
            1 / 0
    assert {(id(o), a): getattr(o, a) for o, a, _, _ in tr.targets()} == originals
    names = [s.name for s in t.spans]
    assert names == ["metrics.rank_samples", "metrics.rscc", "forward.splat"]
    assert [s.parent for s in t.spans] == [None, 0, 1]
    assert t.spans[2].attrs == {"atoms": 10}
    assert _kernels.splat is originals[(id(_kernels), "splat")]


def test_gauge_samples_while_active_and_restores_the_handler():
    import signal
    import time

    import speed

    before = signal.getsignal(signal.SIGALRM)
    gauge = speed.Gauge()
    with gauge.sampling():
        t = time.perf_counter()
        while time.perf_counter() - t < 6 * speed.INTERVAL_S:
            pass
    assert len(gauge.samples) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert gauge.scale() == pytest.approx(
        speed.REFERENCE_S * len(gauge.samples) / sum(gauge.samples))


class _SleepWorkload:
    """Calls that take `seconds` each and note their input item and whether
    the tracer is installed."""

    def __init__(self, seconds):
        from cryoguide import _kernels
        self.kernels, self.splat = _kernels, _kernels.splat
        self.seconds = seconds
        self.items, self.traced = [], []

    def call(self, outdir, item):
        import time

        self.items.append(item)
        self.traced.append(self.kernels.splat is not self.splat)
        time.sleep(self.seconds)

    def check(self, res):
        return workloads.Outcome(samples=1)


def test_traced_calls_come_in_pairs_whose_order_alternates():
    wl = _SleepWorkload(0.1)
    m = run.measure(wl, seconds=0.3, trace=True, workdir="unused")
    assert wl.traced == [False, True, True, False]
    assert wl.items == [0, 0, 1, 1]
    assert len(m["times"][False]) == len(m["times"][True]) == 2


def test_overhead_is_the_median_of_paired_differences():
    m = {"times": {False: [1.0, 2.0, 3.0], True: [1.5, 2.1, 3.9]},
         "outcomes": [], "tracer": tr.Tracer()}
    res = run.result(m, setup_s=None, kernel_ok=None, trace=True)
    # differences 0.5, 0.1, 0.9; the difference of medians would be 0.1
    assert res["metrics"]["trace.overhead_s"]["value"] == pytest.approx(0.5)
