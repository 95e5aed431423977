import copy
import json
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_monotone_submodular, tabular_from_spec
from submodbandit import experiments, lockstep
from submodbandit.analysis import benchmark_summary, regret_report
from submodbandit.catalog import experiment_cover, harmonic_base, harmonic_elevated
from submodbandit.envs import BanditEnv
from submodbandit.errors import ConfigError, GroundSetTooLarge
from submodbandit.experiments import (
    checkpoint_grid,
    config_from_json,
    derive_seed,
    load_config,
    run_experiment,
)
from submodbandit.functions import SetFunction, UniqueGreedyPath, WeightedCover
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
        ({"T_grid": [16, 16]}, "T_grid"),
        ({"checkpoints": "lin"}, "checkpoints"),
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
    with pytest.raises(ConfigError, match="a config must be a JSON object"):
        config_from_json([doc])


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
    harmonic = _base_doc(T_grid=[32], trials=4, policies=[{"kind": "sub_ucb", "l": 1, "m": 2}])
    tabular = dict(
        harmonic,
        function=random_monotone_submodular(17, n=8, k=3).to_json(),
        n=8,
        k=3,
        policies=[{"kind": "sub_ucb", "l": 2, "m": 2}, {"kind": "etcg", "m": 1}],
    )
    for name, doc in (("harmonic", harmonic), ("tabular", tabular)):
        cfg = config_from_json(doc)
        r1, m1 = run_experiment(cfg, jobs=1, output_dir=tmp_path / name / "a")
        r2, m2 = run_experiment(cfg, jobs=4, output_dir=tmp_path / name / "b")
        assert r1.read_bytes() == r2.read_bytes()
        assert m1.read_bytes() == m2.read_bytes()


def test_run_experiment_rejects_jobs_below_one(tmp_path, monkeypatch):
    cfg = config_from_json(_base_doc())
    monkeypatch.setattr(experiments, "BanditEnv", lambda *args: pytest.fail("a cell ran"))
    for jobs in (0, -2, True, 1.0):
        with pytest.raises(ValueError, match="jobs"):
            run_experiment(cfg, jobs=jobs, output_dir=tmp_path / "out")
        assert not (tmp_path / "out").exists()


def test_row_cap_splits_groups_without_changing_results(tmp_path, monkeypatch):
    doc = _base_doc(
        T_grid=[20, 45],
        trials=5,
        policies=[{"kind": "sub_ucb", "l": 1, "m": 2}, {"kind": "etcg", "m": 1}, {"kind": "ucb_all"}],
    )
    cfg = config_from_json(doc)
    whole = run_experiment(cfg, output_dir=tmp_path / "whole")
    batches = []
    batch = lockstep.Lockstep

    def spy(envs, *args):
        batches.append(len(envs))
        return batch(envs, *args)

    monkeypatch.setattr(lockstep, "Lockstep", spy)
    # rows of 6 candidates go two to a batch, rows of C(6, 2) = 15 flat arms one
    monkeypatch.setattr(lockstep, "MAX_BATCH_CELLS", 12)
    split = run_experiment(cfg, output_dir=tmp_path / "split")
    assert batches == [2, 2, 1] * 4 + [1] * 10
    for a, b in zip(whole, split):
        assert a.read_bytes() == b.read_bytes()


# on harmonic_base(6, 2) the first three run one program (l = 0: "auto"
# resolves to 0 at these horizons, and m never enters a flat run), and so do
# "a" and "b"; the others each have one of their own
_SHARED_PROGRAMS = [
    {"kind": "sub_ucb", "l": "auto"},
    {"kind": "sub_ucb", "l": 0, "m": 3},
    {"kind": "ucb_all"},
    {"kind": "sub_ucb", "l": 1, "m": 2, "label": "a"},
    {"kind": "sub_ucb", "l": 1, "m": 2, "label": "b"},
    {"kind": "sub_ucb", "l": 1, "m": 3, "label": "l1_m3"},
    {"kind": "etcg", "m": 2},
    {"kind": "sub_ucb", "l": 2, "m": 2},
]


def _cell_seeds(doc):
    return {
        derive_seed(doc["base_seed"], p_idx, T, trial): (p_idx, trial)
        for p_idx in range(len(doc["policies"]))
        for T in doc["T_grid"]
        for trial in range(doc["trials"])
    }


def test_policies_with_one_program_share_a_batch_and_keep_their_solo_lines(
    tmp_path, monkeypatch
):
    doc = _base_doc(T_grid=[16, 40], trials=3, policies=_SHARED_PROGRAMS)
    cfg = config_from_json(doc)
    seeds = _cell_seeds(doc)
    batches = []
    run = experiments.greedy_then_flat

    def spy(envs, k, T, *program):
        batches.append((T, [seeds[env.seed] for env in envs]))
        return run(envs, k, T, *program)

    monkeypatch.setattr(experiments, "greedy_then_flat", spy)
    results, manifest = run_experiment(cfg, output_dir=tmp_path / "one")
    monkeypatch.undo()
    # each batch: every trial of its members, the members in grid order
    for T in (16, 40):
        assert [cells for t, cells in batches if t == T] == [
            [(p, trial) for p in members for trial in range(3)]
            for members in ([0, 1, 2], [3, 4], [5], [6], [7])
        ]

    # every member's lines are those of its own solo batch with the same seeds
    summary = benchmark_summary(cfg.function, cfg.k)
    expected = []
    for p_idx, policy in enumerate(cfg.policies):
        for T in (16, 40):
            envs = [
                BanditEnv(cfg.function, 1.0, derive_seed(7, p_idx, T, trial)) for trial in range(3)
            ]
            policy.run_batch(envs, cfg.k, T)
            for trial, env in enumerate(envs):
                for row in regret_report(env, summary, checkpoint_grid("log", T)).checkpoints:
                    expected.append(
                        f"{policy.label},{T},{trial},{env.seed},{row.t},"
                        f"{row.cum_reward:.17g},{row.regret_opt:.17g},"
                        f"{row.regret_alpha:.17g},{row.regret_gr:.17g}"
                    )
    assert results.read_text().splitlines()[1:] == expected

    again = run_experiment(cfg, jobs=3, output_dir=tmp_path / "three")
    for a, b in zip((results, manifest), again):
        assert a.read_bytes() == b.read_bytes()


def test_a_run_never_evaluates_the_spec_after_set_up(tmp_path, monkeypatch):
    # the exact benchmarks build the feasible table; every cell then takes its
    # arms' values from it, and its regret from the values its trajectory holds
    doc = _base_doc(
        T_grid=[16, 40],
        trials=3,
        policies=[{"kind": "sub_ucb", "l": 1, "m": 2}, {"kind": "etcg", "m": 1}, {"kind": "ucb_all"}],
    )
    expected = run_experiment(config_from_json(doc), output_dir=tmp_path / "a")
    cfg = config_from_json(doc)
    benchmark_summary(cfg.function, cfg.k)

    def evaluated(self, *args):
        pytest.fail("the spec was evaluated")

    monkeypatch.setattr(SetFunction, "value_of_mask", evaluated)
    monkeypatch.setattr(type(cfg.function), "_value", evaluated)
    monkeypatch.setattr(type(cfg.function), "_values", evaluated)
    got = run_experiment(cfg, output_dir=tmp_path / "b")
    for a, b in zip(expected, got):
        assert a.read_bytes() == b.read_bytes()


def test_chunk_ends_change_no_byte(tmp_path, monkeypatch):
    # a run is recorded in chunks of CHUNK_CELLS envs times steps: at 1 every
    # step is a chunk of its own, and at 7 chunk ends fall inside scheduled
    # blocks and index runs, at optimistic closes and before the close at T
    doc = _base_doc(
        T_grid=[16, 45],
        trials=2,
        policies=[
            {"kind": "sub_ucb", "l": 0},
            {"kind": "sub_ucb", "l": 1, "m": 3},
            {"kind": "sub_ucb", "l": 2, "m": 2},
            {"kind": "etcg", "m": 3},
            {"kind": "ucb_all"},
        ],
    )
    cfg = config_from_json(doc)
    expected = run_experiment(cfg, output_dir=tmp_path / "default")
    for cells in (1, 7):
        monkeypatch.setattr(lockstep, "CHUNK_CELLS", cells)
        got = run_experiment(cfg, output_dir=tmp_path / str(cells))
        for a, b in zip(expected, got):
            assert a.read_bytes() == b.read_bytes()


def test_a_runs_memory_does_not_grow_with_its_horizon(tmp_path):
    # each env meters its regret as the run goes and the step record is one
    # chunk long, so ten times the horizon costs no more memory
    def peak(T):
        cfg = config_from_json(_base_doc(T_grid=[T], trials=4, policies=[{"kind": "ucb_all"}]))
        tracemalloc.start()
        try:
            run_experiment(cfg, output_dir=tmp_path / str(T))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(5_000)  # warm-up: imports and first-call set-up
    short = peak(5_000)
    assert peak(50_000) - short <= 256 * 1024


def _spy_on_values(monkeypatch, cls) -> list:
    """Record every evaluation of a ``cls`` spec, one mask at a time or a
    table's masks in bulk."""
    calls = []
    monkeypatch.setattr(cls, "_value", lambda self, mask: calls.append(mask))
    monkeypatch.setattr(cls, "_values", lambda self, masks, k: calls.extend(masks))
    return calls


def test_run_experiment_resource_guards(tmp_path, monkeypatch):
    big = harmonic_base(27, 9)  # 8,192,524 feasible sets, over the budget
    doc = _base_doc(function=big.to_json(), n=27, k=9)
    cfg = config_from_json(doc)
    calls = _spy_on_values(monkeypatch, type(cfg.function))
    with pytest.raises(GroundSetTooLarge):
        run_experiment(cfg, output_dir=tmp_path / "big")
    assert calls == []  # the budget is checked before any value is computed
    assert not (tmp_path / "big").exists()
    monkeypatch.undo()

    # 10^6 sets of size <= 1 with masks 999,999 bits wide: over the budget
    long = UniqueGreedyPath(999_999, 1, 0.1)
    doc = _base_doc(function=long.to_json(), n=999_999, k=1)
    cfg = config_from_json(doc)
    calls = _spy_on_values(monkeypatch, UniqueGreedyPath)
    with pytest.raises(GroundSetTooLarge):
        run_experiment(cfg, output_dir=tmp_path / "long")
    assert calls == []
    assert not (tmp_path / "long").exists()
    monkeypatch.undo()

    # C(24, 12) = 2,704,156 flat arms: the feasible table over them is over
    # the budget, which refuses the run before any value is computed
    wide = harmonic_base(24, 12)
    doc = _base_doc(
        function=wide.to_json(), n=24, k=12, policies=[{"kind": "ucb_all"}]
    )
    cfg = config_from_json(doc)
    calls = _spy_on_values(monkeypatch, type(cfg.function))
    with pytest.raises(GroundSetTooLarge):
        run_experiment(cfg, output_dir=tmp_path / "wide")
    assert calls == []
    assert not (tmp_path / "wide").exists()


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


_VALID_FUNCTIONS = [
    tabular_from_spec(harmonic_base(6, 2), 2).to_json(),
    WeightedCover(6, ((0, 1), (2, 3, 4), (5,)), (0.2, 0.3, 0.5)).to_json(),
    UniqueGreedyPath(6, 2, 0.01).to_json(),
    harmonic_base(6, 2).to_json(),
    harmonic_elevated(6, 2).to_json(),
]


@st.composite
def _spliced_functions(draw):
    """A valid n=6 function doc with arbitrary JSON spliced in at one place."""
    doc = copy.deepcopy(draw(st.sampled_from(_VALID_FUNCTIONS)))
    paths = [(key,) for key in doc] + [("bogus",)]
    for key, value in doc.items():
        if isinstance(value, list):
            paths.append((key, 0))
        if isinstance(value, dict):
            paths += [(key, "0,1"), (key, "1,0"), (key, "")]
    *parents, last = draw(st.sampled_from(paths))
    target = doc
    for step in parents:
        target = target[step]
    target[last] = draw(_json_values)
    return doc


@settings(max_examples=500, deadline=None)
@given(function=_spliced_functions())
def test_config_from_json_spliced_function_key_only_raises_config_error(function):
    try:
        config = config_from_json(_base_doc(function=function))
    except ConfigError:
        return
    assert config.function.to_json() == function
