import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submodbandit.catalog import experiment_cover, harmonic_base
from submodbandit.errors import ConfigError, GroundSetTooLarge, TooManyArms
from submodbandit.experiments import (
    checkpoint_grid,
    config_from_json,
    derive_seed,
    load_config,
    run_experiment,
)
from submodbandit.policies import EtcgPolicy, SubUcbPolicy, UcbAllPolicy


def _base_doc(**overrides):
    spec = harmonic_base(6, 2)
    doc = {
        "function": spec.to_json(),
        "n": 6,
        "k": 2,
        "sigma": 1.0,
        "T_grid": [16],
        "policies": [{"kind": "etcg", "m": 2}],
        "trials": 2,
        "base_seed": 7,
        "checkpoints": "log",
        "output_dir": "unused",
    }
    doc.update(overrides)
    return doc


def test_config_roundtrip_and_defaults():
    cfg = config_from_json(_base_doc())
    assert [p.label for p in cfg.policies] == ["etcg"]
    assert cfg.checkpoints == "log"
    assert cfg.to_json()["policies"][0]["label"] == "etcg"


@pytest.mark.parametrize(
    "patch, fragment",
    [
        ({"n": 7}, "n"),
        ({"sigma": -1.0}, "sigma"),
        ({"T_grid": []}, "T_grid"),
        ({"policies": []}, "policies"),
        ({"policies": [{"kind": "nope"}]}, "policies[0]"),
        ({"policies": [{"kind": "sub_ucb", "l": 5}]}, "policies[0]"),
        ({"trials": 0}, "trials"),
        ({"checkpoints": [0]}, "checkpoints"),
        ({"checkpoints": [20]}, "checkpoints"),
        (
            {"policies": [{"kind": "etcg"}, {"kind": "etcg"}]},
            "labels",
        ),
    ],
)
def test_config_validation_errors(patch, fragment):
    with pytest.raises(ConfigError) as err:
        config_from_json(_base_doc(**patch))
    assert fragment in str(err.value)


def test_missing_field_named():
    doc = _base_doc()
    del doc["trials"]
    with pytest.raises(ConfigError, match="trials"):
        config_from_json(doc)


def test_load_config_reports_json_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"function": \n oops}')
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_checkpoint_grid():
    assert checkpoint_grid("log", 10) == (1, 2, 4, 8, 10)
    assert checkpoint_grid("log", 8) == (1, 2, 4, 8)
    assert checkpoint_grid("log", 1) == (1,)
    assert checkpoint_grid((3, 5), 10) == (3, 5)


def test_derive_seed_stable():
    # frozen: stable across runs, platforms and processes
    assert derive_seed(0, 0, 10, 0) == 2768086694675609847
    assert derive_seed(0, 0, 10, 1) != derive_seed(0, 0, 10, 0)
    assert derive_seed(0, 1, 10, 0) != derive_seed(0, 0, 10, 0)


def test_policy_resolve():
    assert SubUcbPolicy(l="auto").resolve(15, 4, 100) == (1, 6)
    assert SubUcbPolicy(l=3, m=9).resolve(15, 4, 100) == (3, 9)
    assert EtcgPolicy().resolve(15, 4, 100) == (None, 6)
    assert UcbAllPolicy().resolve(15, 4, 100) == (None, None)


def test_run_experiment_row_accounting(tmp_path):
    doc = _base_doc(T_grid=[10, 16], trials=3)
    cfg = config_from_json(doc)
    results, manifest = run_experiment(cfg, output_dir=tmp_path)
    lines = results.read_text().splitlines()
    # header + per cell: len(checkpoints(T)) rows
    expected = 3 * (len(checkpoint_grid("log", 10)) + len(checkpoint_grid("log", 16)))
    assert len(lines) == 1 + expected
    assert lines[0] == "policy,T,trial,seed,checkpoint_t,cum_reward,regret_opt,regret_alpha,regret_gr"

    doc_manifest = json.loads(manifest.read_text())
    assert doc_manifest["config"]["n"] == 6
    assert len(doc_manifest["cells"]) == 6
    assert all(cell["m"] == 2 for cell in doc_manifest["cells"])


def test_run_experiment_records_auto_level(tmp_path):
    cover, k = experiment_cover()
    doc = {
        "function": cover.to_json(),
        "n": 15,
        "k": 4,
        "sigma": 0.0,
        "T_grid": [100],
        "policies": [{"kind": "sub_ucb", "l": "auto"}],
        "trials": 1,
        "base_seed": 1,
        "checkpoints": [100],
    }
    cfg = config_from_json(doc)
    _, manifest = run_experiment(cfg, output_dir=tmp_path)
    cells = json.loads(manifest.read_text())["cells"]
    assert cells[0]["l"] == 1  # k - i_star(15, 4, 100)
    assert cells[0]["seed"] == derive_seed(1, 0, 100, 0)


def test_run_experiment_deterministic_across_jobs(tmp_path):
    doc = _base_doc(T_grid=[32], trials=4, policies=[{"kind": "sub_ucb", "l": 1, "m": 2}])
    cfg = config_from_json(doc)
    r1, m1 = run_experiment(cfg, jobs=1, output_dir=tmp_path / "a")
    r2, m2 = run_experiment(cfg, jobs=4, output_dir=tmp_path / "b")
    assert r1.read_bytes() == r2.read_bytes()
    assert m1.read_bytes() == m2.read_bytes()


def test_run_experiment_resource_guards(tmp_path):
    big = harmonic_base(27, 9)
    doc = _base_doc(function=big.to_json(), n=27, k=9)
    cfg = config_from_json(doc)
    with pytest.raises(GroundSetTooLarge):
        run_experiment(cfg, output_dir=tmp_path)

    wide = harmonic_base(24, 12)  # C(24, 12) = 2704156 arms
    doc = _base_doc(
        function=wide.to_json(), n=24, k=12, policies=[{"kind": "ucb_all"}]
    )
    cfg = config_from_json(doc)
    with pytest.raises(TooManyArms):
        run_experiment(cfg, output_dir=tmp_path)


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(min_value=-2, max_value=20)
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["log", "auto", "sub_ucb", "etcg", "ucb_all"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=8,
)

_VALID_POLICIES = [
    {"kind": "sub_ucb", "l": "auto"},
    {"kind": "sub_ucb", "l": 1, "m": 2, "label": "fixed"},
    {"kind": "etcg"},
    {"kind": "ucb_all"},
]


@settings(max_examples=300, deadline=None)
@given(
    field=st.sampled_from(
        ["function", "n", "k", "sigma", "T_grid", "policies", "trials", "base_seed",
         "checkpoints", "output_dir"]
    ),
    value=_json_values,
)
def test_config_from_json_spliced_field_only_raises_config_error(field, value):
    doc = _base_doc(policies=_VALID_POLICIES, checkpoints=[1, 2])
    doc[field] = value
    try:
        config_from_json(doc)
    except ConfigError:
        pass


@settings(max_examples=300, deadline=None)
@given(
    index=st.integers(min_value=0, max_value=len(_VALID_POLICIES) - 1),
    key=st.sampled_from(["kind", "l", "m", "label", "mm"]),
    value=_json_values,
)
def test_config_from_json_spliced_policy_key_only_raises_config_error(index, key, value):
    policies = [dict(p) for p in _VALID_POLICIES]
    policies[index][key] = value
    try:
        config_from_json(_base_doc(policies=policies))
    except ConfigError:
        pass
