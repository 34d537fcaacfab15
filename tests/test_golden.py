"""Golden output: the bundled separation config writes a fixed CSV.

The golden file pins the bench CSV byte for byte, so a refactor of the
loss, risk or estimator layers that moves any sample count, success flag
or risk gap shows up here. The statevector engine runs the same grid
through the full circuit and must write the same bytes. Regenerate the
file only for a deliberate change of results, with `qal bench --config
configs/separation.json --out tests/golden/separation.csv` run from the
repository root.
"""
import dataclasses

import pytest

from qal.bench import load_bench_config, run_bench


@pytest.mark.parametrize("engine", ["analytic", "statevector"])
def test_separation_config_matches_golden_csv(engine, repo_root, tmp_path, monkeypatch):
    # The config names its instance relative to the repository root.
    monkeypatch.chdir(repo_root)
    out = tmp_path / "separation.csv"
    config = dataclasses.replace(load_bench_config("configs/separation.json"), engine=engine)
    run_bench(config, out)
    assert out.read_bytes() == (repo_root / "tests" / "golden" / "separation.csv").read_bytes()
