import argparse
import builtins
import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import submodbandit
from submodbandit import ItemSet, Tabular
from submodbandit.catalog import harmonic_base
from submodbandit.cli import build_parser, main
from submodbandit.experiments import config_from_json
from submodbandit.svgplot import RESULTS_HEADER

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_text_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "15", "4", "100")
    assert code == 0
    assert "i_star       = 3" in out
    assert "stop level l = 1" in out


def test_bounds_json_output(capsys):
    code, out, _ = run_cli(capsys, "bounds", "15", "4", "1000000", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["i_star"] == 4
    assert doc["l"] == 0
    # ceil(10^4 * 15^{-2/3} * (ln 10^6)^{1/3})
    assert doc["m"] == 3946
    assert doc["lower_bound"] > 0 and doc["upper_bound"] > 0


def test_bounds_invalid_inputs(capsys):
    code, _, err = run_cli(capsys, "bounds", "4", "4", "100")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize(
    "n, k, T", [("20", "5", str(10**400)), (str(10**400), "3", "1000")], ids=["huge-T", "huge-n"]
)
def test_bounds_overflow_exit_2(capsys, n, k, T):
    # exit 1 would claim a failed structural check; an unrepresentable input is an input error
    code, out, err = run_cli(capsys, "bounds", n, k, T)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and f"n={n}" in err and f"T={T}" in err
    assert "Traceback" not in err


def test_bounds_outside_lower_bound_domain(capsys):
    # the lower bound needs k <= n/3; the other evaluators still print
    code, out, _ = run_cli(capsys, "bounds", "4", "2", "10000")
    assert code == 0
    assert "n/a" in out
    assert "upper_bound" in out and "default m" in out


def test_verify_passing_instance(capsys):
    code, out, _ = run_cli(capsys, "verify", "cover15")
    assert code == 0
    assert "PASS" in out and "FAIL" not in out


def test_verify_failing_instance_prints_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "unique-path-8")
    assert code == 1
    assert "submodular" in out and "FAIL" in out
    assert "marginal" in out  # witness detail


def test_verify_non_monotone_table_fails_without_traceback(tmp_path, capsys):
    # submodular but not monotone (f({0,1}) < f({0})): the curvature leaves
    # [0, 1], so the greedy guarantee has no ratio and FAILs instead of raising
    table = {"": 0.0, "0": 0.5, "1": 0.01, "0,1": 0.4}
    path = tmp_path / "spec.json"
    path.write_text(
        json.dumps({"function": {"kind": "tabular", "n": 2, "k_max": 2, "table": table}, "k": 2})
    )
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert err == ""
    rows = {line.split()[0]: line.split(None, 2)[1:] for line in out.splitlines()[1:]}
    assert rows["monotone"][0] == "FAIL" and "drops when adding 1 to {0}" in rows["monotone"][1]
    assert rows["submodular"] == ["PASS"]
    assert rows["curvature_in_range"] == ["FAIL", "c=11"]
    assert rows["greedy_guarantee"][0] == "FAIL" and "c=11 outside [0, 1]" in rows["greedy_guarantee"][1]
    assert rows["benchmark_dp_vs_enum"][0] == "PASS"
    # instance computes no ratio: it reports c = 11 and exits 0
    code, out, err = run_cli(capsys, "instance", str(path))
    assert code == 0
    assert out.splitlines()[-1] == '"0,1",0.40000000000000002'
    assert "curvature    : 11\n" in err
    assert "cheapest chain: {0} > {0,1}  slacks [0.0, 0.0]" in err


@pytest.mark.parametrize("command", ["verify", "instance"])
def test_wide_ground_set_exit_3(tmp_path, capsys, command):
    # 10^6 sets of size <= 1, each mask 999,999 bits wide: refused at once
    function = {"kind": "unique_greedy_path", "n": 999999, "k": 1, "delta": 0.1}
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"function": function, "k": 1}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 3
    assert out == "" and "resource guard" in err


@pytest.mark.parametrize("command", ["verify", "instance"])
@pytest.mark.parametrize("k", [3, -1], ids=["above-k_max", "negative"])
def test_target_k_outside_the_spec_exit_2(tmp_path, capsys, command, k):
    # the spec's k_max is 2: value_table refuses k before any check or dump
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"function": harmonic_base(6, 2).to_json(), "k": k}))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert re.match(r"error: k\b", err)
    assert "Traceback" not in err
    assert out == ""


def test_verify_unknown_name(capsys):
    code, _, err = run_cli(capsys, "verify", "no-such-instance")
    assert code == 2
    assert "built-ins" in err


def test_verify_spec_file(tmp_path, capsys):
    spec = harmonic_base(6, 2)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"function": spec.to_json(), "k": 2}))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert "monotone" in out


def _spec_file_doc(case):
    harmonic = harmonic_base(6, 2).to_json()
    cover = {"kind": "weighted_cover", "n": 2, "blocks": [[0], [1]], "weights": [0.5, 0.5]}
    docs = {
        "no-n": {"function": {key: v for key, v in harmonic.items() if key != "n"}, "k": 2},
        "top-level-list": [1],
        "k-null": {"function": harmonic, "k": None},
        "k-float": {"function": harmonic, "k": 2.0},
        "n-and-k-fractional": {"function": dict(harmonic, n=6.9, k=2.7), "k": 2.7},
        "delta-nan": {"function": dict(harmonic, delta=float("nan")), "k": 2},
        "delta-bool": {"function": dict(harmonic, delta=True), "k": 2},
        "unknown-key": {"function": dict(cover, bogus=1), "k": 1},
        "weight-inf": dict(cover, weights=[0.5, float("inf")]),
        "table-key": {"kind": "tabular", "n": 1, "k_max": 1, "table": {"": 0.0, "00": 0.5}},
        "table-key-text": {"kind": "tabular", "n": 1, "k_max": 1, "table": {"": 0.0, "a": 0.5}},
    }
    # a complete table (n = 3, k_max = 2) with one key or value replaced
    table = {"": 0, "0": 0.1, "1": 0.2, "2": 0.3, "0,1": 0.4, "0,2": 0.5, "1,2": 0.6}
    keys = {
        "leading-zero": "01",
        "unsorted": "1,0",
        "repeated": "0,0",
        "space": " 1",
        "plus": "+1",
        "trailing-comma": "1,",
        "arabic-digit": "\u0661",
        "item-past-n": "3",
        "past-k-max": "0,1,2",
    }
    for name, key in keys.items():
        swapped = {k: v for k, v in table.items() if k != "1,2"}
        swapped[key] = 0.6
        docs[f"table-key-{name}"] = {"kind": "tabular", "n": 3, "k_max": 2, "table": swapped}
    values = {"bool": True, "inf": float("inf"), "nan": float("nan")}
    for name, value in values.items():
        docs[f"table-value-{name}"] = {
            "kind": "tabular", "n": 3, "k_max": 2, "table": dict(table, **{"0,1": value})
        }
    short = {k: v for k, v in table.items() if k != "0,2"}
    docs["table-short"] = {"kind": "tabular", "n": 3, "k_max": 2, "table": short}
    return docs[case]


@pytest.mark.parametrize("command", ["verify", "instance"])
@pytest.mark.parametrize(
    "case, field",
    [
        ("no-n", "'n'"),
        ("top-level-list", "JSON object"),
        ("k-null", "'k'"),
        ("k-float", "'k'"),
        ("n-and-k-fractional", "'n'"),
        ("delta-nan", "'delta'"),
        ("delta-bool", "'delta'"),
        ("unknown-key", "'bogus'"),
        ("weight-inf", "'weights'"),
        ("table-key", "'table'"),
        ("table-key-text", "'table'"),
        ("table-key-leading-zero", "field 'table': key '01'"),
        ("table-key-unsorted", "field 'table': key '1,0'"),
        ("table-key-repeated", "field 'table': key '0,0'"),
        ("table-key-space", "field 'table': key ' 1'"),
        ("table-key-plus", "field 'table': key '+1'"),
        ("table-key-trailing-comma", "field 'table': key '1,'"),
        ("table-key-arabic-digit", "field 'table': key '\u0661'"),
        ("table-key-item-past-n", "field 'table': key '3'"),
        ("table-key-past-k-max", "table key 0,1,2 larger than k_max=2"),
        ("table-value-bool", "field 'table': value of '0,1': need a finite number; got True"),
        ("table-value-inf", "field 'table': value of '0,1': need a finite number; got inf"),
        ("table-value-nan", "field 'table': value of '0,1': need a finite number; got nan"),
        ("table-short", "table has 6 entries; a complete table up to cardinality 2 over n=3"),
    ],
)
def test_malformed_spec_file_exit_2(tmp_path, capsys, command, case, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(_spec_file_doc(case)))
    code, out, err = run_cli(capsys, command, str(path))
    assert code == 2
    assert field in err
    assert "Traceback" not in err
    assert out == ""


def test_instance_dump_and_roundtrip(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "instance", "harmonic-base-6-2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "set,value"
    # 1 empty + 6 singletons + 15 pairs
    assert len(lines) - 1 == 22

    # round-trip: parse the dump back into a Tabular and compare
    spec = harmonic_base(6, 2)
    table = {}
    for line in lines[1:]:
        set_text, value_text = line.rsplit(",", 1)
        mask = ItemSet.parse(set_text.strip('"')).mask
        table[mask] = float(value_text)
    tab = Tabular(6, 2, table)
    for mask, v in tab.table.items():
        assert spec.value_of_mask(mask) == v


def test_instance_cover_row(capsys):
    code, out, _ = run_cli(capsys, "instance", "cover15")
    assert code == 0
    assert '"14",0.59999999999999998' in out


def test_instance_reports_the_benchmark_chain(capsys):
    # the DP's cheapest chain leaves the prefix: {0} > {0,3} > {0,1,3}
    code, out, err = run_cli(capsys, "instance", "harmonic-elevated-9-3")
    assert code == 0
    assert out.startswith("set,value\n") and out.count("\n") == 1 + 130  # sets of size <= 3
    assert err.splitlines() == [
        "optimum      : {3,4,5} = 0.630555555556",
        "greedy chain : {3} > {3,4} > {3,4,5}",
        "greedy value : 0.630555555556",
        "curvature    : 0.407407407407",
        "benchmark B  : 0.612037037037",
        "cheapest chain: {0} > {0,3} > {0,1,3}  slacks [0.0046296296, 0.0046296296, 0.0]",
    ]


def test_plot_svg(tmp_path, capsys):
    results = tmp_path / "results.csv"
    header = "policy,T,trial,seed,checkpoint_t,cum_reward,regret_opt,regret_alpha,regret_gr"
    rows = [header]
    for policy in ("etcg", "ucb_all"):
        for T in (10, 100, 1000):
            for trial in (0, 1):
                regret = {"etcg": 1.0, "ucb_all": 2.0}[policy] * T + trial
                rows.append(f"{policy},{T},{trial},1,{T},0.5,{regret},{regret},{regret}")
    rows.insert(2, "")  # a blank row is skipped
    results.write_text("\n".join(rows) + "\n")
    out_svg = tmp_path / "chart.svg"
    code, _, _ = run_cli(capsys, "plot", str(results), str(out_svg))
    assert code == 0
    svg = out_svg.read_text()
    assert svg.count("<polyline") == 2
    assert "etcg" in svg and "ucb_all" in svg
    assert "<path" in svg  # stderr bands


def test_plot_single_trial_zero_band(tmp_path, capsys):
    results = tmp_path / "results.csv"
    header = "policy,T,trial,seed,checkpoint_t,cum_reward,regret_opt,regret_alpha,regret_gr"
    body = ["etcg,10,0,1,10,0.5,3.0,3.0,3.0", "etcg,100,0,1,100,0.5,9.0,9.0,9.0"]
    results.write_text("\n".join([header] + body) + "\n")
    out_svg = tmp_path / "c.svg"
    code, _, _ = run_cli(capsys, "plot", str(results), str(out_svg))
    assert code == 0
    assert out_svg.read_text().count("<polyline") == 1


def test_plot_empty_csv(tmp_path, capsys):
    results = tmp_path / "results.csv"
    results.write_text("")
    code, _, err = run_cli(capsys, "plot", str(results), str(tmp_path / "x.svg"))
    assert code == 2


def test_plot_malformed_rows(tmp_path, capsys):
    results = tmp_path / "results.csv"
    header = "policy,T,trial,seed,checkpoint_t,cum_reward,regret_opt,regret_alpha,regret_gr"
    row = "etcg,10,0,1,10,0,0,0,0"
    cases = [
        (f"{header}\netcg,notanumber,0,1,10,0,0,0,0\n", "malformed row"),
        (f"{header}\n{row[:-2]}\n", "malformed row"),  # a short row
        (f"{header.replace('trial', 'run')}\n{row}\n", "unexpected results header"),
        (f"{header}\n\n", "no data rows"),  # the blank row is skipped
    ]
    for text, fragment in cases:
        results.write_text(text)
        code, _, err = run_cli(capsys, "plot", str(results), str(tmp_path / "x.svg"))
        assert code == 2
        assert fragment in err


def test_run_end_to_end(tmp_path, capsys):
    spec = harmonic_base(6, 2)
    config = {
        "function": spec.to_json(),
        "n": 6,
        "k": 2,
        "sigma": 1.0,
        "T_grid": [10],
        "policies": [{"kind": "etcg", "m": 1}],
        "trials": 1,
        "base_seed": 5,
        "checkpoints": "log",
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "run", str(path))
    assert code == 0
    results = (tmp_path / "out" / "results.csv").read_text()
    assert len(results.splitlines()) == 1 + 5  # checkpoints 1,2,4,8,10

    # rerun into another directory: byte-identical results
    code, _, _ = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "out2"))
    assert code == 0
    assert (tmp_path / "out2" / "results.csv").read_text() == results


def test_run_config_error_exit_2(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text("{}")
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert "function" in err


def test_run_resource_guard_exit_3(tmp_path, capsys):
    spec = harmonic_base(27, 9)
    config = {
        "function": spec.to_json(),
        "n": 27,
        "k": 9,
        "sigma": 1.0,
        "T_grid": [10],
        "policies": [{"kind": "etcg"}],
        "trials": 1,
        "base_seed": 5,
        "output_dir": str(tmp_path / "out"),
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 3
    assert "resource guard" in err



@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_jobs_below_one_exit_2(tmp_path, capsys, jobs):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_valid_run_config(tmp_path)))
    code, out, err = run_cli(capsys, "run", str(path), "--jobs", jobs)
    assert code == 2
    assert "--jobs" in err and jobs in err
    assert out == ""
    assert not (tmp_path / "out").exists()

def _valid_run_config(tmp_path, **overrides):
    config = {
        "function": harmonic_base(6, 2).to_json(),
        "n": 6,
        "k": 2,
        "sigma": 1.0,
        "T_grid": [16],
        "policies": [{"kind": "etcg", "m": 2}],
        "trials": 1,
        "base_seed": 5,
        "checkpoints": "log",
        "output_dir": str(tmp_path / "out"),
    }
    config.update(overrides)
    return config


@pytest.mark.parametrize(
    "patch, field",
    [
        # policies: not a nonempty list of objects
        ({"policies": {"kind": "etcg"}}, "policies"),
        ({"policies": "etcg"}, "policies"),
        ({"policies": []}, "policies"),
        ({"policies": ["etcg"]}, "policies[0]"),
        ({"policies": [{"kind": "etcg"}, 3]}, "policies[1]"),
        # policies: unknown keys
        ({"policies": [{"kind": "etcg", "mm": 3}]}, "policies[0]"),
        ({"policies": [{"kind": "ucb_all", "m": 3}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": 1, "m": 2, "extra": None}]}, "policies[0]"),
        # policies: l not an integer in [0, k] or "auto"
        ({"policies": [{"kind": "sub_ucb", "l": 1.5}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": True}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": "1"}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": 3}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": -1}]}, "policies[0]"),
        # policies: m not an integer >= 1
        ({"policies": [{"kind": "etcg", "m": 1.5}]}, "policies[0]"),
        ({"policies": [{"kind": "etcg", "m": "3"}]}, "policies[0]"),
        ({"policies": [{"kind": "etcg", "m": 0}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": 1, "m": True}]}, "policies[0]"),
        ({"policies": [{"kind": "etcg", "label": 7}]}, "policies[0]"),
        # top-level integers must be JSON integers
        ({"n": 6.0}, "n"),
        ({"n": "6"}, "n"),
        ({"k": "2"}, "k"),
        ({"k": 2.0}, "k"),
        ({"k": True}, "k"),
        ({"trials": 0.5}, "trials"),
        ({"trials": "1"}, "trials"),
        ({"base_seed": 5.5}, "base_seed"),
        ({"base_seed": "5"}, "base_seed"),
        ({"T_grid": [16.0]}, "T_grid"),
        ({"T_grid": ["16"]}, "T_grid"),
        ({"T_grid": [True]}, "T_grid"),
        ({"T_grid": 16}, "T_grid"),
        ({"checkpoints": [1.0]}, "checkpoints"),
        ({"checkpoints": ["1"]}, "checkpoints"),
        ({"checkpoints": {"1": 2}}, "checkpoints"),
        # sigma must be finite
        ({"sigma": float("nan")}, "sigma"),
        ({"sigma": float("inf")}, "sigma"),
        ({"sigma": "1.0"}, "sigma"),
        ({"sigma": True}, "sigma"),
        # every policy resolves at every horizon during validation
        ({"T_grid": [1], "policies": [{"kind": "etcg"}]}, "policies[0]"),
        ({"T_grid": [1], "checkpoints": [1], "policies": [{"kind": "sub_ucb"}]}, "policies[0]"),
        ({"output_dir": 3}, "output_dir"),
    ],
)
def test_run_malformed_config_exit_2(tmp_path, capsys, patch, field):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(_valid_run_config(tmp_path, **patch)))
    code, _, err = run_cli(capsys, "run", str(path))
    assert code == 2
    assert f"field '{field}'" in err
    if patch.get("T_grid") == [1]:
        assert "T_grid" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


# imported at interpreter start-up: any cell that runs ends the process
_NO_CELLS = """\
from submodbandit import experiments

def _run_group(group):
    raise SystemExit("a cell ran")

experiments._run_group = _run_group
"""


def _run_without_cells(tmp_path, argv):
    """Run the CLI in a fresh interpreter in which any cell that runs ends it."""
    hook = tmp_path / "hook"
    hook.mkdir()
    (hook / "sitecustomize.py").write_text(_NO_CELLS)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(hook), str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, "-m", "submodbandit", *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["verify", "{d}"], "{d}"),
        (["instance", "{d}"], "{d}"),
        (["run", "{d}/config.json", "--out", "{d}/file"], "output_dir"),
        (["run", "{d}/config.json", "--out", "{d}/file/out"], "output_dir"),
        (["plot", "{d}/nan.csv", "{d}/x.svg"], "malformed row"),
        (["plot", "{d}/inf.csv", "{d}/x.svg"], "malformed row"),
        (["plot", "{d}/zero-T.csv", "{d}/x.svg"], "malformed row"),
        (["plot", "{d}/negative-T.csv", "{d}/x.svg"], "malformed row"),
        (["plot", "{d}/good.csv", "{d}/missing/x.svg"], "{d}/missing"),
        (["run", "{d}/typo.json"], "field 'chekpoints'"),
        (["verify", "{d}/target.json"], "{d}/target.json: field 'kk'"),
        (["run", "{d}/huge-T.json"], "field 'T_grid'"),
        (["run", "{d}/many-trials.json"], "field 'trials'"),
    ],
    ids=[
        "verify-dir",
        "instance-dir",
        "run-out-is-a-file",
        "run-out-under-a-file",
        "plot-nan-regret",
        "plot-inf-regret",
        "plot-zero-T",
        "plot-negative-T",
        "plot-out-in-missing-dir",
        "run-unknown-config-key",
        "verify-unknown-target-key",
        "run-T-past-the-step-counters",
        "run-trials-past-the-cell-budget",
    ],
)
def test_malformed_input_exits_2_in_a_fresh_interpreter(tmp_path, argv, fragment):
    # exit 1 would claim a failed structural check: every malformed input is
    # an input error, named on an error: line, with no traceback and no cell run
    (tmp_path / "config.json").write_text(json.dumps(_valid_run_config(tmp_path)))
    typo = _valid_run_config(tmp_path, chekpoints=[1, 2])
    (tmp_path / "typo.json").write_text(json.dumps(typo))
    huge = _valid_run_config(tmp_path, T_grid=[2**63])
    (tmp_path / "huge-T.json").write_text(json.dumps(huge))
    many = _valid_run_config(tmp_path, trials=10**12)
    (tmp_path / "many-trials.json").write_text(json.dumps(many))
    target = {"function": harmonic_base(6, 2).to_json(), "k": 2, "kk": 1}
    (tmp_path / "target.json").write_text(json.dumps(target))
    (tmp_path / "file").write_text("")
    header = ",".join(RESULTS_HEADER)
    rows = {"good": (16, "1.5"), "nan": (16, "nan"), "inf": (16, "inf")}
    rows.update({"zero-T": (0, "1.5"), "negative-T": (-3, "1.5")})
    for name, (T, regret) in rows.items():
        row = f"etcg,{T},0,1,{T},0.5,1.5,1.5,{regret}"
        (tmp_path / f"{name}.csv").write_text(f"{header}\n{row}\n")
    start = time.monotonic()
    proc = _run_without_cells(tmp_path, [a.format(d=tmp_path) for a in argv])
    assert time.monotonic() - start < 10  # refused at once, before any listing
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:") and fragment.format(d=tmp_path) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert "a cell ran" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "out").exists()


def test_bounds_at_large_k_answers_at_once_in_a_fresh_interpreter(tmp_path):
    # i_star at k = 10,000 walks up from i = 1 instead of cubing C(20000, i)
    # for every i from k down; the same call resolves a config's l: "auto"
    start = time.monotonic()
    proc = _run_without_cells(tmp_path, ["bounds", "30000", "10000", "10"])
    assert time.monotonic() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert "i_star       = 2" in proc.stdout


def test_harmonic_level_table_is_not_built_before_the_budget_refuses(tmp_path):
    # a bare spec verifies at k = k_max = 200,000: the table budget refuses it
    # before anything of size k, let alone O(k^2), is built
    spec = {"kind": "unique_greedy_path", "n": 200_000, "k": 200_000, "delta": 0.01}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    start = time.monotonic()
    proc = _run_without_cells(tmp_path, ["verify", str(tmp_path / "spec.json")])
    assert time.monotonic() - start < 60
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("resource guard:")
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_readme_config_and_cli_block_match_the_code():
    readme = (ROOT / "README.md").read_text()
    (config,) = re.findall(r"```json\n(.*?)```", readme, re.S)
    config_from_json(json.loads(config))  # ConfigError if the example drifts from the code
    cli_block = readme.split("## CLI", 1)[1].split("```")[1]
    listed = [line.split()[1] for line in cli_block.splitlines() if line.startswith("submodbandit ")]
    actions = build_parser()._actions
    (commands,) = [a for a in actions if isinstance(a, argparse._SubParsersAction)]
    assert listed == list(commands.choices)
    # every backticked CamelCase name (``Policy`` or ``Policy(...)``) that is
    # not a builtin (an exception, or None) names something a submodbandit
    # module defines
    modules = [
        importlib.import_module(f"submodbandit.{info.name}")
        for info in pkgutil.iter_modules(submodbandit.__path__)
        if info.name != "__main__"
    ]
    named = {
        match.group(1)
        for span in re.findall(r"`([^`\n]+)`", readme)
        if (match := re.match(r"([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)(?:$|[(.])", span))
    }
    stale = [
        name
        for name in sorted(named)
        if not hasattr(builtins, name) and not any(hasattr(module, name) for module in modules)
    ]
    assert stale == []
    assert {"Policy", "ValueError"} <= named  # the pattern finds both kinds of name
