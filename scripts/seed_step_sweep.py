"""Run `bloch-closed-form` over a sweep of seed steps and seed strengths.

    python scripts/seed_step_sweep.py [--points N]

The configs are N values of dt_over_tau_s spaced geometrically in [0.05, 2]
(default 120), each at seed_intensity_mw_cm2 = 1, 10 and 100, with every
other key at its default. Each goes through the full `sr validate` check
list, and one line per config is printed:

    dt_over_tau_s  seed_intensity_mw_cm2  PASS|FAIL  detail

where detail is the check's own reading (its error against the closed form,
the handover error and the observed order). A last line counts the passes.
"""

import argparse

import numpy as np

from n2sr.config import load_config
from n2sr.validation import run_validation_checks

INTENSITIES_MW_CM2 = (1.0, 10.0, 100.0)
DT_RANGE = (0.05, 2.0)


def sweep(points: int) -> list[str]:
    lines, passed = [], 0
    for dt in np.geomspace(*DT_RANGE, points).tolist():
        for intensity in INTENSITIES_MW_CM2:
            cfg = load_config(overrides=[f"dt_over_tau_s={dt!r}", f"seed_intensity_mw_cm2={intensity!r}"])
            check, = [r for r in run_validation_checks(cfg) if r.name == "bloch-closed-form"]
            passed += check.passed
            lines.append(f"{dt!r}  {intensity:g}  {'PASS' if check.passed else 'FAIL'}  {check.detail}")
    lines.append(f"bloch-closed-form passed on {passed}/{len(lines)} configs")
    return lines


def main(argv=None) -> list[str]:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--points", type=int, default=120, help="dt_over_tau_s values (default 120)")
    args = parser.parse_args(argv)
    if args.points < 1:
        parser.error("--points must be at least 1")
    lines = sweep(args.points)
    print("\n".join(lines))
    return lines


if __name__ == "__main__":
    main()
