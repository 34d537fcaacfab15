"""Golden output: the bundled separation config writes a fixed CSV.

The golden file pins the bench CSV byte for byte, so a refactor of the
loss, risk or estimator layers that moves any sample count, success flag
or risk gap shows up here. Regenerate it only for a deliberate change of
results, with `qal bench --config configs/separation.json --out
tests/golden/separation.csv` run from the repository root.
"""
from qal.bench import load_bench_config, run_bench


def test_separation_config_matches_golden_csv(repo_root, tmp_path, monkeypatch):
    # The config names its instance relative to the repository root.
    monkeypatch.chdir(repo_root)
    out = tmp_path / "separation.csv"
    run_bench(load_bench_config("configs/separation.json"), out)
    assert out.read_bytes() == (repo_root / "tests" / "golden" / "separation.csv").read_bytes()
