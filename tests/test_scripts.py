"""The scripts under scripts/ run against the package as it stands."""

import platform
import runpy
from pathlib import Path

import numpy as np

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
GOLDEN = Path(__file__).resolve().parent / "golden.txt"


def committed_golden() -> tuple[dict[str, str], list[str]]:
    """The versions recorded in tests/golden.txt and its listing lines."""
    versions, listing = {}, []
    for line in GOLDEN.read_text().splitlines():
        if not line.startswith("#"):
            listing.append(line)
        elif line.startswith(("# python ", "# numpy ")):
            name, version = line[2:].split()
            versions[name] = version
    return versions, listing


def test_profile_roundtrip_recovers_the_measured_grid(capsys):
    runpy.run_path(str(SCRIPTS / "profile_roundtrip.py"))["main"]()
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("worst relative error: ")
    assert float(last.split(":")[1]) < 1e-8


def test_golden_outputs_lists_every_output(tmp_path, capsys):
    lines = runpy.run_path(str(SCRIPTS / "golden_outputs.py"))["main"]([str(tmp_path)])
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    files = [line.split("  ")[2] for line in lines]
    assert files == sorted(files)
    for name in (
        "seed-phase/bloch_trajectory.csv", "seed-phase-absorbing/bloch_trajectory.csv",
        "regimes/regime4.csv", "validate/validate_report.txt",
        "pressure-scan/pressure_scan.csv", "pressure-scan-list/pressure_scan.csv",
        "pressure-scan-absorbing/pressure_scan.csv", "pressure-scan-short-burst/pressure_scan.csv",
        "fit/fits.csv", "fit/pulse_summary.csv",
    ):
        assert name in files
    assert not any(name.endswith("run-manifest.txt") for name in files)
    # What each of the ten runs printed is pinned with its files.
    runs = sorted({name.split("/")[0] for name in files} - {"traces"})
    assert len(runs) == 10
    assert all(f"{run}/stdout.txt" in files for run in runs)
    rows = {name: int(line.split("  ")[1]) for name, line in zip(files, lines)}
    assert rows["pressure-scan-list/pressure_scan.csv"] == 12  # header and 11 pressures
    assert rows["fit/fits.csv"] == 6  # header and five traces
    # The gate runs the fitter's rejected-step path: this fit stops on the
    # damping cap. A fitter that converges it needs a new stuck input here.
    assert (tmp_path / "fit-stuck" / "fits.csv").read_text().endswith(",False\n")

    # The byte-identity gate: every output as the committed listing has it.
    versions, golden = committed_golden()
    here = {"python": platform.python_version(), "numpy": np.__version__}
    assert versions == here, (
        f"tests/golden.txt was listed with {versions}, this run has {here}: "
        "last-bit float results can differ between them, so list the outputs again here"
    )
    fresh = {line.split("  ")[2]: line for line in lines}
    committed = {line.split("  ")[2]: line for line in golden}
    differ = sorted(n for n in fresh.keys() | committed.keys() if fresh.get(n) != committed.get(n))
    assert not differ, f"outputs that differ from tests/golden.txt: {', '.join(differ)}"

