"""Shared fixtures: the two benchmark systems and their reduced-model runs.

The full-order trajectories and the benchmark ROM sweeps are the costly part
of the suite (the KdV full-order run takes about 1.5 s on 2 vCPUs), so
everything paper-scale is computed once per session and reused by the module
and acceptance tests.
"""

from dataclasses import replace

import numpy as np
import pytest

from hamrom.experiments import (
    RomSpec,
    _Reference,
    _run_all,
    build_system,
    fom_trajectory,
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
def wave_dense(wave_cfg):
    """Wave benchmark trajectory recorded at every step."""
    return fom_trajectory(wave_cfg, stride=1)


@pytest.fixture(scope="session")
def kdv_dense(kdv_cfg):
    """KdV benchmark trajectory recorded at every step."""
    return fom_trajectory(kdv_cfg, stride=1)


@pytest.fixture(scope="session")
def wave_snap(wave_cfg, wave_dense):
    return fom_trajectory(wave_cfg)  # the strided columns of the cached run


@pytest.fixture(scope="session")
def kdv_snap(kdv_cfg, kdv_dense):
    return fom_trajectory(kdv_cfg)  # the strided columns of the cached run


def _reference(cfg, system, dense, snap):
    return _Reference(flow=system[0], dense=dense, snap=snap,
                      fields=2 if cfg.system == "wave" else 1)


def _variant_runs(cfg, system, dense, snap, r, variants=tuple(RomVariant)):
    ref = _reference(cfg, system, dense, snap)
    specs = [RomSpec(variant=variant, r=r) for variant in variants]
    out = {}
    for spec, (report, traj) in zip(specs, _run_all(cfg, ref, specs)):
        assert not report.failed, f"{spec.variant.value} r={r} failed to run"
        out[spec.variant] = (report, traj)
    return out


@pytest.fixture(scope="session")
def wave_table1(wave_cfg, wave_system, wave_dense, wave_snap):
    """All four reduced variants of the wave benchmark at r=5."""
    return _variant_runs(wave_cfg, wave_system, wave_dense, wave_snap, r=5)


@pytest.fixture(scope="session")
def wave_r20(wave_cfg, wave_system, wave_dense, wave_snap):
    return _variant_runs(wave_cfg, wave_system, wave_dense, wave_snap, r=20,
                         variants=(RomVariant.GROM, RomVariant.SP0))


@pytest.fixture(scope="session")
def kdv_table2(kdv_cfg, kdv_system, kdv_dense, kdv_snap):
    """All four reduced variants of the KdV benchmark at r=40."""
    return _variant_runs(kdv_cfg, kdv_system, kdv_dense, kdv_snap, r=40)


@pytest.fixture(scope="session")
def kdv_r60(kdv_cfg, kdv_system, kdv_dense, kdv_snap):
    return _variant_runs(kdv_cfg, kdv_system, kdv_dense, kdv_snap, r=60,
                         variants=(RomVariant.GROM, RomVariant.SP0))


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
