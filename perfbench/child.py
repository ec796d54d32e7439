"""One repetition of a workload in a fresh process.

Usage: ``python3 perfbench/child.py SPEC.json T_SPAWN``.  The spec names the
workload, seed, mode (``timed``, ``traced`` or ``setup``), the work
directory and where to write the result.  ``T_SPAWN`` is the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), so that ``setup_s`` runs from process start (interpreter,
imports, config, cache priming) until the call begins.
"""

import time

import ctypes
import importlib
import json
import math
import platform
import resource
import sys
from pathlib import Path


def blas_info() -> dict:
    """OpenBLAS build and thread count of the libraries numpy and scipy loaded."""
    out = {}
    for package in ("numpy", "scipy"):
        module = importlib.import_module(package)
        libs = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
        out[package] = {"version": module.__version__, "blas": "unknown", "blas_threads": None}
        for lib in sorted(libs.glob("*openblas*.so*")):
            handle = ctypes.CDLL(str(lib))  # already loaded: the same handle
            for prefix, suffix in (("scipy_", "64_"), ("scipy_", ""), ("", "64_"), ("", "")):
                threads = getattr(handle, f"{prefix}openblas_get_num_threads{suffix}", None)
                config = getattr(handle, f"{prefix}openblas_get_config{suffix}", None)
                if threads is not None and config is not None:
                    config.restype = ctypes.c_char_p
                    out[package].update(blas=config().decode(), blas_threads=threads())
                    break
    out["python"] = platform.python_version()
    return out


def main(spec_path: str, t_spawn: float) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401
    import hamrom
    import hamrom.cli  # noqa: F401

    if Path(hamrom.__file__).resolve().parent != (root / "src" / "hamrom").resolve():
        raise SystemExit(f"imported hamrom from {hamrom.__file__}, not from the checkout")
    import tracer
    from workloads import WORKLOADS

    import_s = time.monotonic() - t_spawn
    workload = WORKLOADS[spec["workload"]]
    work = Path(spec["work"])
    prepare_start = time.monotonic()
    state = workload.prepare(work, spec["seed"])
    result = {"import_s": import_s, "prepare_s": time.monotonic() - prepare_start}

    if spec["mode"] != "setup":
        rom_samples: list[float] = []
        rec = tracer.Recorder()
        if spec["mode"] == "traced":
            probe = tracer.instrument(rec)
        else:
            probe = tracer.time_run_rom(rom_samples)
        with probe:
            result["setup_s"] = time.monotonic() - t_spawn
            start = time.perf_counter()
            with rec.span("workload"):
                output = workload.call(state)
            result["wall_s"] = time.perf_counter() - start
        checks = workload.check(state, output)
        rows = workload.rows(state, output)
        result.update(
            rom_us_per_step=rom_samples,
            checks=[c.__dict__ for c in checks],
            rows_attempted=len(rows),
            rows_failed=sum(not math.isfinite(float(row["e_inf"])) for row in rows),
            info=workload.info(state, output),
        )
        if spec["mode"] == "traced":
            result["layers"] = tracer.layer_metrics(rec)
            result["layer_self_s"] = tracer.layer_self_times(rec)
            result["trace"] = rec.dump()
    else:
        result["setup_s"] = time.monotonic() - t_spawn

    result["environment"] = blas_info()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], float(sys.argv[2])))
