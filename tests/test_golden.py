"""Golden outputs: byte-for-byte pins of the CLI's verify table, one run and
single policy trajectories.

The verify table and the run files were written by the program before the
feasible-set table replaced the dense 2^n arrays; a representation change
that moves a verdict, a witness, a benchmark value or a tie-break shows up
here as a byte difference.  ``trajectories.json`` was written before the
policies became one greedy phase and one index loop.  It pins single runs on
a seeded ``random_monotone_submodular`` table: the SHA-256 of
``Trajectory.to_csv()`` and the returned greedy levels, for ETCG commits and
truncation, sub-UCB at every stop level, a horizon that ends inside an
optimistic level and flat UCB, each at sigma 0 and 0.5.  Regenerate these
files only for a deliberate change of output, and say so in the change log.
"""

import hashlib
import json
from pathlib import Path

from conftest import random_monotone_submodular
from submodbandit import BanditEnv, policy_from_json
from submodbandit.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden"


def test_verify_all_stdout_is_golden(capsys):
    code = main(["verify", "all"])
    out = capsys.readouterr().out
    assert code == 1  # the battery includes instances that are not submodular
    assert out == (GOLDEN / "verify_all.txt").read_text()


def test_run_outputs_are_golden(tmp_path, capsys):
    code = main(["run", str(GOLDEN / "config.json"), "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 0
    for name in ("results.csv", "manifest.json"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name


def test_policy_trajectories_are_golden():
    pins = json.loads((GOLDEN / "trajectories.json").read_text())
    k = pins["k"]
    spec = random_monotone_submodular(pins["table_seed"], pins["n"], k)
    for case in pins["cases"]:
        env = BanditEnv(spec, case["sigma"], pins["seed"])
        levels = policy_from_json(case["policy"]).run(env, k, case["T"])
        csv = env.trajectory.to_csv()
        assert [level.render() for level in levels] == case["levels"], case
        assert hashlib.sha256(csv.encode()).hexdigest() == case["csv_sha256"], case
