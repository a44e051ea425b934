"""Where does ignoring mutual coupling start to hurt channel estimation?

For the default 4x4 surface, sweeps transmit power and compares three
quantities per element spacing:

  * the error lower bound of an estimator that ignores coupling,
  * the Monte-Carlo RMSE of that estimator (tracks the bound closely),
  * the matched bound of a coupling-aware estimator.

At tight spacing (0.02 lambda) the mismatched bound stops improving around
10 dBm: past that point all extra power is wasted against the coupling-
induced floor. At half-wavelength spacing the floor only matters beyond
~70 dBm, so coupling can be safely ignored at practical powers.

Run: python demos/bound_saturation_vs_power.py
"""

import numpy as np

from ris_mcrb import default_scenario
from ris_mcrb.experiments import SweepRequest, run_mc_rmse

POWERS_DBM = [float(p) for p in range(-10, 81, 10)]
SPACINGS = [0.02, 0.1, 0.5]
TRIALS = 200

scenario = default_scenario()
request = SweepRequest(
    kind="mc_rmse",
    scenario=scenario,
    power_grid=POWERS_DBM,
    spacing_grid=SPACINGS,
    trials=TRIALS,
)
result = run_mc_rmse(request)

by_spacing = {d: [] for d in SPACINGS}
for variables, report in result.rows:
    by_spacing[variables["d_over_lambda"]].append((variables["p_t_dbm"], report))

for d, rows in by_spacing.items():
    print(f"\nelement spacing d = {d} lambda")
    print(f"{'P_T (dBm)':>10} {'LB':>12} {'RMSE':>12} {'CRLB':>12}")
    for p, rep in rows:
        print(f"{p:>10.0f} {rep.lb:>12.4e} {rep.rmse:>12.4e} {rep.crlb:>12.4e}")
    floor = np.sqrt(rows[0][1].tr_bias)
    print(f"{'':>10} coupling-induced floor sqrt(Tr(Bias)) = {floor:.4e}")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6.5, 3.6))
    colors = {0.02: "C0", 0.1: "C2", 0.5: "C3"}
    for d, rows in by_spacing.items():
        powers = [p for p, _ in rows]
        ax.semilogy(powers, [rep.lb for _, rep in rows], "-o",
                    color=colors[d], label=f"LB, d={d}$\\lambda$", ms=4)
        ax.semilogy(powers, [rep.rmse for _, rep in rows], "x",
                    color=colors[d], label=f"RMSE, d={d}$\\lambda$", ms=5)
        ax.semilogy(powers, [rep.crlb for _, rep in rows], "-.",
                    color=colors[d], alpha=0.6, label=f"CRLB, d={d}$\\lambda$")
    ax.set_xlabel("transmit power (dBm)")
    ax.set_ylabel("RMSE bound")
    ax.grid(True, which="both", linestyle=":")
    ax.legend(fontsize=7, ncol=3)
    fig.tight_layout()
    fig.savefig("bound_saturation_vs_power.png", dpi=150)
    print("\nplot written to bound_saturation_vs_power.png")
