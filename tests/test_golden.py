"""Golden output: the bundled separation config writes a fixed CSV, and
`qal estimate` and `qal learn` print fixed JSON on instances/demo2.json.

The golden files pin these outputs byte for byte, so a refactor of the
loss, risk or estimator layers that moves any sample count, success flag,
estimate or risk gap shows up here. The statevector engine runs the same
grid through the full circuit and must write the same bytes. Regenerate a
file only for a deliberate change of results, from the repository root:
`qal bench --config configs/separation.json --out tests/golden/separation.csv`
for the CSV, and for each JSON file the command in CLI_GOLDENS with its
stdout redirected to the file.
"""
import dataclasses

import pytest

from qal.bench import load_bench_config, run_bench
from qal.cli import main

DEMO2 = ["--instance", "instances/demo2.json", "--epsilon", "0.1", "--delta", "0.1", "--seed", "1"]
CLI_GOLDENS = {
    "estimate_analytic.json": ["estimate", *DEMO2, "--hypothesis", "identity", "--engine", "analytic"],
    "estimate_statevector.json": ["estimate", *DEMO2, "--hypothesis", "identity", "--engine", "statevector"],
    "learn_quantum.json": ["learn", *DEMO2, "--method", "quantum"],
    "learn_classical.json": ["learn", *DEMO2, "--method", "classical"],
}


@pytest.mark.parametrize("engine", ["analytic", "statevector"])
def test_separation_config_matches_golden_csv(engine, repo_root, tmp_path, monkeypatch):
    # The config names its instance relative to the repository root.
    monkeypatch.chdir(repo_root)
    out = tmp_path / "separation.csv"
    config = dataclasses.replace(load_bench_config("configs/separation.json"), engine=engine)
    run_bench(config, out)
    assert out.read_bytes() == (repo_root / "tests" / "golden" / "separation.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_json_matches_golden(name, repo_root, capsys, monkeypatch):
    # The estimate JSON echoes the instance path, so run from the root.
    monkeypatch.chdir(repo_root)
    assert main(CLI_GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (repo_root / "tests" / "golden" / name).read_bytes()
