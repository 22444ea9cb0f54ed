"""Run the default 8-mbar reference case end to end and print the headline
numbers: seed tipping angle, burst timescales, peak emission, the pressure
scan, and the dephasing validity margin. CSV outputs land in out/ (or the
directory given as the first argument).
"""

import sys
from pathlib import Path

from n2sr.bloch import bloch_angle
from n2sr.config import (
    RunConfig,
    dephasing_parameters,
    calibration,
    medium_template,
    seed_pulse,
)
from n2sr.constants import s_to_ps
from n2sr.pressure import medium_at_pressure, pressure_scan, write_scan_csv
from n2sr.superradiance import solve_after_seed, write_profile_csv

PRESSURES = [6.0, 7.0, 8.0, 10.0, 12.0, 14.0, 16.0, 18.0, 20.0]


def main(out="out"):
    cfg = RunConfig()
    seed = seed_pulse(cfg)
    template = medium_template(cfg)
    cal = calibration(cfg)
    dephasing = dephasing_parameters(cfg)

    theta_r = bloch_angle(seed, template, seed.tau_r)
    print(f"seed field amplitude      {seed.E0:.4e} V/m")
    print(f"tipping angle theta(tau_r) {theta_r:.6f} rad = {theta_r / 3.141592653589793:.5f} pi")

    medium = medium_at_pressure(cal, template, cal.anchor_p)
    sol = solve_after_seed(medium, theta_r, seed.tau_r)
    print(f"regime                    {sol.regime.name}")
    print(f"burst width tau_W         {s_to_ps(sol.tau_W):.4f} ps")
    print(f"burst delay tau_D         {s_to_ps(sol.tau_D):.4f} ps")
    print(f"peak power density P0     {sol.P0:.4e} W/m^3")
    print(f"peak intensity I0         {sol.I0:.4e} W/m^2")

    scan = pressure_scan(cal, seed, template, PRESSURES, dephasing)
    columns = (
        scan.p_mbar, s_to_ps(scan.tau_W), s_to_ps(scan.tau_D),
        scan.I_peak_norm, scan.E_total_norm, scan.validity_margin,
    )
    row = "{:5.1f}  {:8.4f}  {:8.4f}  {:11.4f}  {:12.4f}  {:6.1f}".format
    print()
    print("p_mbar  tau_W_ps  tau_D_ps  I_peak_norm  E_total_norm  margin")
    print("\n".join(map(row, *(column.tolist() for column in columns))))

    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_profile_csv(out_dir / "profile.csv", sol)
    write_scan_csv(out_dir / "pressure_scan.csv", scan)
    print()
    print(f"wrote {out_dir / 'profile.csv'} and {out_dir / 'pressure_scan.csv'}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
