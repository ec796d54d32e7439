"""Weighted gradient snapshots: tuning the weight on the wave benchmark.

Snapshot sets may carry gradient columns weighted by a factor mu; the sweep
shows the wave SP-ROM-0 at r = 5 improving for moderate weights before
degrading when the gradient information starts to crowd out the state
information.
"""

from dataclasses import replace

import numpy as np

from hamrom import RomVariant, mu_sweep, table_preset

cfg = replace(table_preset(1), out_dir="out/demo_sweep")
grid = np.linspace(0.0, 0.2, 11)  # coarse demo grid; the benchmark uses 51 points
print("sweeping the gradient snapshot weight on the wave benchmark (r = 5) ...\n")
rows = mu_sweep(cfg, mu_grid=grid, variant=RomVariant.SP0, r=5)

print(f"{'mu':>6s} {'E_inf':>10s}")
for mu, err in rows:
    print(f"{mu:6.3f} {err:10.4f}")

best = min(rows, key=lambda row: row[1])
print(f"\nminimum E_inf = {best[1]:.4f} at mu = {best[0]:g} "
      f"(vs {rows[0][1]:.4f} with state-only snapshots)")
print("CSV written under out/demo_sweep/")
