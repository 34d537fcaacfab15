"""Golden output: the bundled bench configs write fixed CSVs,
`qal estimate` and `qal learn` print fixed JSON on instances/demo2.json,
and each benchmark workload's seed-1 trace prints a fixed counts line.

The golden files pin these outputs byte for byte, so a refactor of the
loss, risk or estimator layers that moves any sample count, success flag,
estimate or risk gap shows up here. The statevector engine runs the same
grids through the full circuit and must write the same bytes. Every
separation trial picks the best hypothesis, so that CSV cannot see a draw
move; the near-tie grid has hypotheses within epsilon of the best, and its
trials pick different ones, so a moved draw changes a risk gap there.
Regenerate a file only for a deliberate change of results, from the
repository root: `qal bench --config configs/<name>.json --out
tests/golden/<name>.csv` for a CSV, and for each JSON file the command in
CLI_GOLDENS with its stdout redirected to the file. trace-counts.txt
holds, per workload w, "w " and then the `counts` line of
`python3 benchmark/run.py --workload w --seed 1 --trace 1`.
"""
import csv
import dataclasses
import subprocess
import sys

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
@pytest.mark.parametrize("name", ["separation", "near-tie"])
def test_bench_config_matches_golden_csv(name, engine, repo_root, tmp_path, monkeypatch):
    # A config may name its instance relative to the repository root.
    monkeypatch.chdir(repo_root)
    out = tmp_path / f"{name}.csv"
    config = dataclasses.replace(load_bench_config(f"configs/{name}.json"), engine=engine)
    run_bench(config, out)
    assert out.read_bytes() == (repo_root / "tests" / "golden" / f"{name}.csv").read_bytes()


@pytest.mark.parametrize("name", sorted(CLI_GOLDENS))
def test_cli_json_matches_golden(name, repo_root, capsys, monkeypatch):
    # The estimate JSON echoes the instance path, so run from the root.
    monkeypatch.chdir(repo_root)
    assert main(CLI_GOLDENS[name]) == 0
    assert capsys.readouterr().out.encode() == (repo_root / "tests" / "golden" / name).read_bytes()


def test_near_tie_golden_can_see_a_moved_draw(repo_root):
    # Trials that choose hypotheses with different risks write different
    # risk gaps; with one gap only, a moved draw could leave the file as is.
    with open(repo_root / "tests" / "golden" / "near-tie.csv", newline="") as fh:
        gaps = {row["risk_gap"] for row in csv.DictReader(fh) if row["method"] == "quantum"}
    assert len(gaps) >= 2


@pytest.mark.parametrize("workload", ["separation-grid", "wide-class", "statevector-circuit"])
def test_trace_counts_match_golden(workload, repo_root):
    # The laws and draws each workload builds, and the CSV it writes: a
    # regrouping that builds more of either, or a moved CSV, changes the
    # line. The stale zeros (classical.draws, and estimator.state_prep_calls
    # outside statevector-circuit) are pinned as they are.
    golden = (repo_root / "tests" / "golden" / "trace-counts.txt").read_text().splitlines()
    expected = dict(line.split(" ", 1) for line in golden)[workload]
    cmd = [sys.executable, "benchmark/run.py", "--workload", workload, "--seed", "1", "--trace", "1"]
    proc = subprocess.run(cmd, cwd=repo_root, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert [line for line in proc.stdout.splitlines() if line.startswith("counts ")] == [expected]
