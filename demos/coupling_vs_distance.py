"""How strongly do two thin-wire elements couple as they move apart?

Sweeps the side-by-side separation of two identical dipoles of the
default scenario (half-length lambda/64, wire radius lambda/500, 28 GHz)
and tabulates the mutual impedance. The magnitude falls by five orders
of magnitude between touching distance and 2.5 wavelengths, which is why
element spacing decides whether coupling can be ignored.

Run: python demos/coupling_vs_distance.py
"""

from ris_mcrb import default_scenario
from ris_mcrb.experiments import run_impedance_sweep

DISTANCES_OVER_LAMBDA = [0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.5]

scenario = default_scenario()
lam = scenario.constants.wavelength
h, r = scenario.element_half_length, scenario.element_wire_radius
result = run_impedance_sweep(scenario, DISTANCES_OVER_LAMBDA)

print(f"wavelength = {lam * 1e3:.3f} mm, half-length = {h * 1e6:.1f} um, "
      f"wire radius = {r * 1e6:.1f} um\n")
print(f"{'d/lambda':>9} {'Re Z (ohm)':>13} {'Im Z (ohm)':>13} {'|Z| (ohm)':>12}")

magnitudes = []
for row, _ in result.rows:
    magnitudes.append(row["abs_z_ohm"])
    print(f"{row['d_over_lambda']:>9} {row['re_z_ohm']:>13.5g} "
          f"{row['im_z_ohm']:>13.5g} {row['abs_z_ohm']:>12.5g}")

print(f"\n|Z| drops by a factor {magnitudes[0] / magnitudes[-1]:.0f} "
      "across the sweep.")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    plt = None

if plt is not None:
    fig, ax = plt.subplots(figsize=(6, 3.2))
    ax.loglog(DISTANCES_OVER_LAMBDA, magnitudes, "o-")
    ax.set_xlabel(r"element separation ($\lambda$)")
    ax.set_ylabel(r"$|Z|$ ($\Omega$)")
    ax.grid(True, which="both", linestyle=":")
    fig.tight_layout()
    fig.savefig("coupling_vs_distance.png", dpi=150)
    print("plot written to coupling_vs_distance.png")
