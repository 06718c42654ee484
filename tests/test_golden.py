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

from helpers import load_grid, run_cli

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    **{f"syntomic-p{p}.csv": ["syntomic", "--prime", str(p), "--format", "csv"]
       for p in (2, 3, 5, 7, 11)},
    "syntomic-p3.json": ["syntomic", "--prime", "3", "--format", "json"],
    "syntomic-p13.json": ["syntomic", "--prime", "13", "--format", "json"],
    "syntomic-p31.json": ["syntomic", "--prime", "31", "--format", "json"],
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
    # quotients taken before the series arithmetic: the window t^{p^2+2p}
    # of the certificate's p-th power, a rational quotient with no
    # reduction mod p, and a quotient by two generators
    "fgl-right-unit-p5-mod-p-v1.json": ["fgl", "right-unit", "--prime", "5",
                                        "--mod", "p,v1", "--trunc", "35",
                                        "--format", "json"],
    "fgl-p-series-p3-mod-v1.txt": ["fgl", "p-series", "--prime", "3",
                                   "--mod", "v1", "--trunc", "20"],
    "fgl-right-unit-p2-mod-v1-v2.txt": ["fgl", "right-unit", "--prime", "2",
                                        "--mod", "v1,v2", "--trunc", "16"],
    # the fgl_series benchmark queries not pinned above, and a right unit
    # deeper than any of them, where Z[1/p] normalization matters most
    "fgl-p-series-p3-t50.txt": ["fgl", "p-series", "--prime", "3",
                                "--trunc", "50"],
    "fgl-p-series-p5-t60.txt": ["fgl", "p-series", "--prime", "5",
                                "--trunc", "60"],
    "fgl-right-unit-p2-t16.json": ["fgl", "right-unit", "--prime", "2",
                                   "--trunc", "16", "--format", "json"],
    "fgl-right-unit-p2-t24.txt": ["fgl", "right-unit", "--prime", "2",
                                  "--trunc", "24"],
}

# sha256 lines of the 288-command fgl grid, the 97-command ss grid and the
# 52-command syntomic grid, written and checked by scripts/grid.py (CI steps
# run the whole checks)
GRIDS = ("fgl-grid.sha256", "ss-grid.sha256", "syntomic-grid.sha256")


def _lines(name):
    return (GOLDEN / f"{name}-grid.sha256").read_text(
        encoding="utf-8").splitlines()


def _lists_the_grid_commands(name, count):
    argvs = [" ".join(argv) for argv, _text in load_grid().GRIDS[name]()]
    assert len(argvs) == count
    assert [ln.split("\t")[0] for ln in _lines(name)] == argvs


def _sample_is_byte_identical(name, step, monkeypatch, tmp_path):
    grid = load_grid()
    monkeypatch.setenv("SYNTO_COLOR", "never")
    pairs = list(zip(grid.GRIDS[name](), _lines(name)))
    for (argv, text), line in pairs[::step]:
        assert grid.run(argv, text, tmp_path) == line


def test_every_golden_file_has_a_case():
    assert sorted(f.name for f in GOLDEN.iterdir()) == sorted([*CASES, *GRIDS])


def test_grid_file_lists_the_grid_commands():
    _lists_the_grid_commands("fgl", 288)


def test_ss_grid_file_lists_the_grid_commands():
    _lists_the_grid_commands("ss", 97)


def test_syntomic_grid_file_lists_the_grid_commands():
    _lists_the_grid_commands("syntomic", 52)


def test_grid_sample_is_byte_identical(monkeypatch, tmp_path):
    # every 24th command here; the CI step checks all 288
    _sample_is_byte_identical("fgl", 24, monkeypatch, tmp_path)


def test_ss_grid_sample_is_byte_identical(monkeypatch, tmp_path):
    # every 8th command here; the CI step checks all 97
    _sample_is_byte_identical("ss", 8, monkeypatch, tmp_path)


def test_syntomic_grid_sample_is_byte_identical(monkeypatch, tmp_path):
    # every 7th command, so each format is met; the CI step checks all 52
    _sample_is_byte_identical("syntomic", 7, monkeypatch, tmp_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_is_byte_identical(name):
    code, out, err = run_cli(CASES[name])
    assert code == 0, err
    assert out.encode("utf-8") == (GOLDEN / name).read_bytes()
