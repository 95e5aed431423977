"""Golden outputs: byte-for-byte pins of the CLI's verify table and one run.

The files under ``tests/data/golden/`` were written by the program before the
feasible-set table replaced the dense 2^n arrays; a representation change
that moves a verdict, a witness, a benchmark value or a tie-break shows up
here as a byte difference.  Regenerate them only for a deliberate change of
output, and say so in the change log.
"""

from pathlib import Path

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
