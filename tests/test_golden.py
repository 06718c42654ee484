"""Whole CLI outputs pinned byte for byte.

Each file under ``tests/golden/`` is the exact stdout of one ``synto``
command, so any change to the computed tables, page logs or series shows up
here as a byte difference.  A file is regenerated by running its command
from the repository root with ``PYTHONPATH=src``, ``SYNTO_COLOR=never`` and
stdout redirected to the file, e.g.

    PYTHONPATH=src SYNTO_COLOR=never python -m synto syntomic --prime 2 \\
        --format csv > tests/golden/syntomic-p2.csv
"""

from pathlib import Path

import pytest

from helpers import run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    **{f"syntomic-p{p}.csv": ["syntomic", "--prime", str(p), "--format", "csv"]
       for p in (2, 3, 5, 7, 11)},
    **{f"syntomic-p3-{unit}.json": ["syntomic", "--prime", "3", "--format",
                                    "json", "--frobenius-unit", unit]
       for unit in ("one", "alt")},
    "syntomic-p13.json": ["syntomic", "--prime", "13", "--format", "json"],
    "syntomic-p5.txt": ["syntomic", "--prime", "5", "--format", "table"],
    **{f"ss-{preset}-p{p}.txt": ["ss", "--preset", preset, "--prime", str(p),
                                 "-v"]
       for preset in ("tp", "tcminus") for p in (3, 5)},
    "fgl-p-series-p3.txt": ["fgl", "p-series", "--prime", "3", "--mod",
                            "p,v1", "--trunc", "12"],
    "fgl-right-unit-p2.json": ["fgl", "right-unit", "--prime", "2",
                               "--trunc", "8", "--format", "json"],
    # the truncations of the benchmark's fgl_series queries, where the
    # shrinking Horner window of fgl.compose prunes the most
    "fgl-right-unit-p3-t28.json": ["fgl", "right-unit", "--prime", "3",
                                   "--trunc", "28", "--format", "json"],
    "fgl-p-series-p2-t22.txt": ["fgl", "p-series", "--prime", "2",
                                "--trunc", "22"],
}


def test_every_golden_file_has_a_case():
    assert sorted(f.name for f in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    code, out, err = run_cli(CASES[name])
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
