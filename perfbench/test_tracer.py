"""Tests of the benchmark's span recorder and instrumentation.

Run with ``python3 -m pytest perfbench`` from the repository root.
"""

import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import hamrom  # noqa: E402
from hamrom.avf import AvfScheme, AvfStepper, integrate  # noqa: E402
from hamrom.linalg import LuFactorization  # noqa: E402
from hamrom.rom import RomVariant, run_rom  # noqa: E402
from hamrom.systems import Grid1D  # noqa: E402


def _tiny_pipeline() -> None:
    """KdV on 32 points: FOM, snapshots, basis, SP0 projection, ROM run.

    Calls go through the package namespace, which the instrumentation rebinds.
    """
    grid = Grid1D(n=32, length=40.0, origin=-20.0)
    flow = hamrom.build_kdv_fom(-6.0, 0.0, -1.0, grid)
    scheme = AvfScheme(dt=0.02, t_end=0.2, snapshot_stride=2)
    traj = hamrom.integrate(flow, hamrom.kdv_initial(grid), scheme)
    basis = hamrom.compute_basis(hamrom.collect_snapshots(traj, flow), 3)
    model = hamrom.reduce_operators(flow, basis, RomVariant.SP0)
    hamrom.run_rom(model, scheme, initial_state=traj.states[:, 0])


def _traced_tiny_run() -> tracer.Recorder:
    rec = tracer.Recorder()
    with tracer.instrument(rec):
        with rec.span("workload"):
            _tiny_pipeline()
    return rec


def _covered(rec: tracer.Recorder, index: int) -> int:
    """Time the direct children of span ``index`` cover: spans and outermost hot calls."""
    spans = sum(s["end"] - s["start"] for s in rec.spans if s["parent"] == index)
    hot = sum(agg[1] for (span, path), agg in rec.hot.items() if span == index and ">" not in path)
    return spans + hot


def test_self_time_is_span_minus_children_on_a_tiny_flow():
    rec = _traced_tiny_run()
    for index, span in enumerate(rec.spans):
        assert span["self"] == span["end"] - span["start"] - _covered(rec, index)
        assert span["self"] >= 0, span["name"]
    for count, total, own in rec.hot.values():
        assert count >= 1 and 0 <= own <= total


def test_self_times_sum_to_the_root_span():
    rec = _traced_tiny_run()
    root = rec.root("workload")
    span = rec.spans[root]
    assert sum(rec.self_times(root).values()) == span["end"] - span["start"]
    layers = tracer.layer_self_times(rec)
    assert abs(sum(layers.values()) - 1e-9 * (span["end"] - span["start"])) < 1e-9


def test_tiny_flow_layers_are_attributed():
    rec = _traced_tiny_run()
    names = {s["name"] for s in rec.spans}
    assert {"avf.fom_integrate", "avf.rom_integrate", "rom.run_rom", "rom.reduce",
            "pod.basis", "linalg.svd", "linalg.lu_factor"} <= names
    paths = {path for _, path in rec.hot}
    assert {"avf.step", "avf.step>linalg.lu_solve", "avf.step>systems.quad_eval",
            "systems.eval_energy"} <= paths
    metrics = tracer.layer_metrics(rec)
    assert metrics["avf.fom_integrate_calls"] == 1
    assert metrics["linalg.svd_calls"] == 1
    assert metrics["avf.fom_picard_iters_max"] >= 1
    assert metrics["avf.rom_picard_iters_mean"] >= 1
    assert metrics["experiments.cache_misses"] == 0  # no cache lookups in this flow
    assert metrics["linalg.fom_lu_solve_bytes"] == 8 * metrics["linalg.fom_lu_solve_calls"] * (
        32 * 32 + 2 * 32)
    assert sum(rec.histograms["fom_picard_iterations"].values()) == 10


def test_nested_regions_with_a_fake_clock():
    ticks = iter(range(0, 1000, 5))
    rec = tracer.Recorder(clock=lambda: next(ticks))
    with rec.span("workload"):  # start 0
        with rec.span("avf.fom_integrate"):  # start 5
            rec.enter("avf.step", hot=True)  # 10
            rec.enter("linalg.lu_solve", hot=True)  # 15
            rec.exit()  # 20
            rec.exit()  # 25
        # avf.fom_integrate ends at 30
    # workload ends at 35
    outer, inner = rec.spans
    assert (outer["end"] - outer["start"], outer["self"]) == (35, 10)
    assert (inner["end"] - inner["start"], inner["self"]) == (25, 10)
    assert rec.hot[(1, "avf.step")] == [1, 15, 10]
    assert rec.hot[(1, "avf.step>linalg.lu_solve")] == [1, 5, 5]
    assert sum(rec.self_times(0).values()) == 35


def test_instrument_restores_the_originals():
    step, solve = AvfStepper.__dict__["step"], LuFactorization.__dict__["solve"]
    with tracer.instrument(tracer.Recorder()):
        assert hamrom.avf.integrate is not integrate
        assert hamrom.experiments.integrate is not integrate
        assert AvfStepper.__dict__["step"] is not step
    assert hamrom.avf.integrate is integrate
    assert hamrom.experiments.integrate is integrate
    assert hamrom.experiments.run_rom is run_rom
    assert AvfStepper.__dict__["step"] is step
    assert LuFactorization.__dict__["solve"] is solve


def test_run_rom_probe_takes_one_sample_per_call():
    samples: list[float] = []
    with tracer.time_run_rom(samples):
        _tiny_pipeline()
    assert len(samples) == 1 and np.isfinite(samples[0]) and samples[0] > 0
    assert hamrom.experiments.run_rom is run_rom
