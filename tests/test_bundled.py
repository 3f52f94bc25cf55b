"""The bundled set (every scripts/configs/*.json, run as its ``experiment``) and
the subcommand records it runs against."""

import contextlib
import importlib.util
import io
from pathlib import Path

from carleman_lab.cli import SUBCOMMANDS

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("run_all_experiments", ROOT / "scripts" / "run_all_experiments.py")
RUN_ALL = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(RUN_ALL)
BUNDLED = RUN_ALL.bundled()


def test_manifest_is_every_config_file_sorted_by_stem():
    paths = sorted((ROOT / "scripts" / "configs").glob("*.json"))
    assert [(stem, path.resolve()) for stem, _, path in BUNDLED] == [(p.stem, p.resolve()) for p in paths]


def test_every_bundled_config_names_a_subcommand():
    assert {stem: sub for stem, sub, _ in BUNDLED if sub not in SUBCOMMANDS} == {}


def test_every_subcommand_has_a_bundled_config():
    assert set(SUBCOMMANDS) - {sub for _, sub, _ in BUNDLED} == set()


def test_run_all_experiments_writes_every_config_under_its_stem(tmp_path):
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        assert RUN_ALL.main([str(tmp_path), "--gnuplot"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == [stem for stem, _, _ in BUNDLED]
    for stem, sub, _ in BUNDLED:
        assert sorted(p.name for p in (tmp_path / stem).iterdir()) == [f"{sub}.csv", f"{sub}.gp", f"{sub}.log"]
        header = (tmp_path / stem / f"{sub}.csv").read_text().splitlines()[0].split(",")
        # the plot columns a record names are columns of its table
        assert set(SUBCOMMANDS[sub].plot or ()) <= set(header), stem
        assert f"[{stem}] exit 0 (" in printed.getvalue()
