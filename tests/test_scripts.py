"""The scripts under scripts/ run against the package as it stands."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_profile_roundtrip_recovers_the_measured_grid(capsys):
    runpy.run_path(str(SCRIPTS / "profile_roundtrip.py"))["main"]()
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.startswith("worst relative error: ")
    assert float(last.split(":")[1]) < 1e-8
