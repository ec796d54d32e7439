"""Shared fixtures: the two benchmark systems and their reduced-model runs.

The full-order trajectories and the benchmark ROM sweeps are the costly part
of the suite (the KdV full-order run takes about 1.5 s on 2 vCPUs), so
everything paper-scale is computed once per session and reused by the module
and acceptance tests.  Each benchmark's reference is the one the commands
compare against: the every-step run in its cache file, read block by block,
and its snapshot view.
"""

from dataclasses import replace

import numpy as np
import pytest

from hamrom.avf import AvfStepper
from hamrom.experiments import (
    RomSpec,
    _references,
    _run_all,
    build_system,
    mu_sweep,
    table_preset,
    tail_bound_check,
)
from hamrom.rom import RomVariant
from hamrom.systems import PeriodicStencil


def dense(op):
    """A dense copy of an operator: a stencil's matrix built entry by entry
    from its block columns, not by its own ``@``; a dense array as it is."""
    if not isinstance(op, PeriodicStencil):
        return op
    columns = op.columns
    fields, _, n = columns.shape
    p = np.arange(n)
    offsets = (p[:, None] - p[None, :]) % n  # entry (p, q) is column entry (p - q) mod n
    return np.block([[columns[i, j][offsets] for j in range(fields)] for i in range(fields)])


def densified(flow):
    """``flow`` with dense copies of its structure and linear operators."""
    return replace(flow, structure=dense(flow.structure), linear=dense(flow.linear))


def march(flow, u, dt, steps, stepper=None):
    """``steps`` chained AVF steps of ``flow`` from ``u``, on ``stepper`` or
    a new :class:`AvfStepper`: the states, one row per step, and the
    per-step iteration counts."""
    stepper = AvfStepper(flow, dt) if stepper is None else stepper
    states, counts = [], []
    for k in range(1, steps + 1):
        u = stepper.step(u, step_index=k)
        states.append(u)
        counts.append(stepper.last_iterations)
    return np.array(states), counts


@pytest.fixture(scope="session")
def session_out(tmp_path_factory):
    return tmp_path_factory.mktemp("bench")


@pytest.fixture(scope="session")
def wave_cfg(session_out):
    return replace(table_preset(1), out_dir=str(session_out / "wave"))


@pytest.fixture(scope="session")
def kdv_cfg(session_out):
    return replace(table_preset(2), out_dir=str(session_out / "kdv"))


@pytest.fixture(scope="session")
def wave_system(wave_cfg):
    return build_system(wave_cfg)


@pytest.fixture(scope="session")
def kdv_system(kdv_cfg):
    return build_system(kdv_cfg)


@pytest.fixture(scope="session")
def wave_ref(wave_cfg):
    """The wave benchmark's reference, closed at the end of the session."""
    with _references(wave_cfg) as ref:
        yield ref


@pytest.fixture(scope="session")
def kdv_ref(kdv_cfg):
    """The KdV benchmark's reference, closed at the end of the session."""
    with _references(kdv_cfg) as ref:
        yield ref


@pytest.fixture(scope="session")
def wave_dense(wave_ref):
    """Wave benchmark run recorded at every step, read from its cache file."""
    return wave_ref.dense


@pytest.fixture(scope="session")
def kdv_dense(kdv_ref):
    """KdV benchmark run recorded at every step, read from its cache file."""
    return kdv_ref.dense


@pytest.fixture(scope="session")
def wave_snap(wave_ref):
    return wave_ref.snap  # the strided columns of the cached run


@pytest.fixture(scope="session")
def kdv_snap(kdv_ref):
    return kdv_ref.snap  # the strided columns of the cached run


def _variant_runs(cfg, ref, r, variants=tuple(RomVariant)):
    specs = [RomSpec(variant=variant, r=r) for variant in variants]
    out = {}
    for spec, (report, traj) in zip(specs, _run_all(cfg, ref, specs)):
        assert not report.failed, f"{spec.variant.value} r={r} failed to run"
        out[spec.variant] = (report, traj)
    return out


@pytest.fixture(scope="session")
def wave_table1(wave_cfg, wave_ref):
    """All four reduced variants of the wave benchmark at r=5."""
    return _variant_runs(wave_cfg, wave_ref, r=5)


@pytest.fixture(scope="session")
def wave_r20(wave_cfg, wave_ref):
    return _variant_runs(wave_cfg, wave_ref, r=20, variants=(RomVariant.GROM, RomVariant.SP0))


@pytest.fixture(scope="session")
def kdv_table2(kdv_cfg, kdv_ref):
    """All four reduced variants of the KdV benchmark at r=40."""
    return _variant_runs(kdv_cfg, kdv_ref, r=40)


@pytest.fixture(scope="session")
def kdv_r60(kdv_cfg, kdv_ref):
    return _variant_runs(kdv_cfg, kdv_ref, r=60, variants=(RomVariant.GROM, RomVariant.SP0))


@pytest.fixture(scope="session")
def wave_mu_rows(wave_cfg):
    """Gradient-weight sweep of the wave SP-ROM-0 at r=5 (51 points), timed."""
    import time

    start = time.perf_counter()
    rows = mu_sweep(wave_cfg, variant=RomVariant.SP0, r=5)
    return rows, time.perf_counter() - start


@pytest.fixture(scope="session")
def kdv_mu_rows(kdv_cfg):
    """Gradient-weight sweep of the KdV SP-ROM-0 at r=40 (21 points)."""
    return mu_sweep(kdv_cfg, variant=RomVariant.SP0, r=40)


@pytest.fixture(scope="session")
def wave_tail_rows(wave_cfg):
    return tail_bound_check(wave_cfg, [5, 10, 15, 20])
