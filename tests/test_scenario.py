import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import macjam as mj
from macjam.scenario import ScenarioError, SweepRange, UserSpec, parse_scenario, sweep_db_values
from _support import random_config

GOOD = """
block_len: 100
users:
  - train_len: 1
    avg_power_db: 0.0
  - train_len: 2
    train_power_db: 12.0
    data_power_db: 3.0
jammer:
  power_db: 10.0
mc:
  samples: 1000
  seed: 4
output: demo
"""


def test_db_conversions_are_exact_at_round_values():
    assert mj.db_to_linear(10.0) == 10.0
    assert mj.db_to_linear(0.0) == 1.0
    assert mj.db_to_linear(20.0) == 100.0
    assert mj.linear_to_db(10.0) == 10.0
    with pytest.raises(ValueError):
        mj.linear_to_db(0.0)


def test_parse_good_scenario():
    spec = parse_scenario(GOOD)
    assert spec.block_len == 100
    assert spec.users[0].avg_power_db == 0.0
    assert spec.users[1].train_power_db == 12.0
    assert spec.jammer.power_db == 10.0
    assert spec.mc.samples == 1000
    cfg = mj.to_system_config(spec)
    assert cfg.n_users == 2
    assert cfg.users[1].train_power == pytest.approx(10 ** 1.2)


def test_missing_required_field_names_it():
    bad = GOOD.replace("block_len: 100\n", "")
    with pytest.raises(ScenarioError, match="block_len"):
        parse_scenario(bad)


def test_unknown_key_is_an_error():
    with pytest.raises(ScenarioError, match="blocklen"):
        parse_scenario(GOOD + "\nblocklen: 7\n")
    with pytest.raises(ScenarioError, match=r"users\[0\]"):
        parse_scenario(GOOD.replace("avg_power_db", "avgpower_db"))


def test_user_power_forms_are_exclusive():
    with pytest.raises(ScenarioError, match="avg_power_db"):
        UserSpec(train_len=1, train_power_db=3.0, data_power_db=3.0, avg_power_db=5.0)
    with pytest.raises(ScenarioError, match="both"):
        UserSpec(train_len=1, train_power_db=3.0)


def test_jammer_needs_exactly_one_form():
    with pytest.raises(ScenarioError):
        mj.scenario.JammerSpec(power_db=None, sweep=None)
    with pytest.raises(ScenarioError):
        mj.scenario.JammerSpec(power_db=1.0, sweep=SweepRange(0.0, 1.0, 1.0))
    with pytest.raises(ScenarioError):
        SweepRange(min_db=2.0, max_db=1.0, step_db=1.0)
    with pytest.raises(ScenarioError):
        SweepRange(min_db=0.0, max_db=1.0, step_db=0.0)


@pytest.mark.parametrize(
    "pattern, replacement, message",
    [
        ("block_len: 100", "block_len: 1.5", "block_len must be an integer, got 1.5"),
        ("jammer:\n  power_db: 10.0", "jammer: 5", "jammer must be a mapping, got int"),
        ("output: demo", 'output: ""', "output must be a non-empty string"),
        (r"users:\n(  .*\n)+", "users: []\n", "users must be a non-empty list"),
        (r"users:\n(  .*\n)+", "users: {train_len: 1}\n", "users must be a non-empty list"),
    ],
    ids=["block_len_float", "jammer_scalar", "output_empty", "users_empty", "users_mapping"],
)
def test_malformed_fields_are_named(pattern, replacement, message):
    text = re.sub(pattern, replacement, GOOD)
    assert text != GOOD
    with pytest.raises(ScenarioError, match=re.escape(message)):
        parse_scenario(text)


def test_training_longer_than_block_rejected():
    bad = GOOD.replace("block_len: 100", "block_len: 3")
    with pytest.raises(ScenarioError, match="block_len"):
        parse_scenario(bad)


def test_bundled_fig2_scenario():
    spec = mj.load_scenario(mj.bundled_scenario_path("fig2.scenario"))
    assert spec.block_len == 100
    assert len(spec.users) == 4
    assert all(u.train_len == 1 for u in spec.users)
    assert [u.avg_power_db for u in spec.users] == [5.0, 10.0, 15.0, 20.0]
    assert spec.jammer.sweep == SweepRange(-10.0, 60.0, 1.0)
    values = sweep_db_values(spec)
    assert len(values) == 71
    assert values[0] == -10.0 and values[-1] == 60.0
    cfg = mj.to_system_config(spec)
    assert cfg.total_train_len == 4
    with pytest.raises(FileNotFoundError):
        mj.bundled_scenario_path("fig9.scenario")


def test_round_trip_fixed_spec(tmp_path):
    spec = parse_scenario(GOOD)
    assert parse_scenario(mj.dump_scenario(spec)) == spec
    path = tmp_path / "demo.scenario"
    mj.save_scenario(spec, path)
    assert mj.load_scenario(path) == spec


@st.composite
def scenario_specs(draw):
    n = draw(st.integers(1, 4))
    users = []
    for _ in range(n):
        tl = draw(st.integers(1, 3))
        if draw(st.booleans()):
            users.append(UserSpec(train_len=tl, avg_power_db=draw(st.floats(-20, 25))))
        else:
            users.append(
                UserSpec(
                    train_len=tl,
                    train_power_db=draw(st.floats(-20, 25)),
                    data_power_db=draw(st.floats(-20, 25)),
                )
            )
    total = sum(u.train_len for u in users)
    block = draw(st.integers(total + 1, total + 200))
    if draw(st.booleans()):
        jam = mj.scenario.JammerSpec(power_db=draw(st.floats(-30, 60)))
    else:
        lo = draw(st.floats(-30, 30))
        jam = mj.scenario.JammerSpec(
            sweep=SweepRange(lo, lo + draw(st.floats(0, 40)), draw(st.floats(0.25, 10)))
        )
    mc = mj.MonteCarloSettings(
        samples=draw(st.integers(1, 10**6)), seed=draw(st.integers(0, 2**63))
    )
    return mj.scenario.ScenarioSpec(
        block_len=block,
        users=tuple(users),
        jammer=jam,
        mc=mc,
        output=draw(st.text("abcdefgh123_", min_size=1, max_size=12)),
    )


@given(scenario_specs())
@settings(max_examples=40, deadline=None)
def test_round_trip_property(spec):
    assert parse_scenario(mj.dump_scenario(spec)) == spec


def test_budget_split_energy_identity():
    rng = np.random.default_rng(23)
    for _ in range(1000):
        avg = float(10 ** rng.uniform(-1, 3))
        tl = int(rng.integers(1, 5))
        td = int(rng.integers(1, 300))
        block = tl + td
        p_t, p_d = mj.budget_split(avg, tl, block, td)
        assert p_t * tl + p_d * td == pytest.approx(avg * block, rel=1e-9)
        assert p_t > 0.0 and p_d > 0.0


def test_budget_split_matches_grid_scan():
    for avg_db, tl, block in [(5.0, 1, 100), (20.0, 1, 100), (0.0, 2, 50), (10.0, 3, 40)]:
        avg = mj.db_to_linear(avg_db)
        td = block - tl  # single-user scenario
        p_t, _ = mj.budget_split(avg, tl, block, td)
        found = p_t * tl / (avg * block)
        fractions = np.arange(1e-4, 1.0, 1e-4)
        energy = avg * block
        ptr = fractions * energy / tl
        pda = (1.0 - fractions) * energy / td
        s = ptr * tl
        rho = (pda * s / (1.0 + s)) / (1.0 + pda / (1.0 + s))
        best = fractions[int(np.argmax(rho))]
        assert abs(found - best) < 1e-4


def test_split_for_fraction_balanced_block():
    # equal phase lengths and the balanced fraction give equal per-symbol powers
    p_t, p_d = mj.split_for_fraction(3.0, 5, 10, 5, 0.5)
    assert p_t == pytest.approx(3.0, rel=1e-12)
    assert p_d == pytest.approx(3.0, rel=1e-12)
    with pytest.raises(ValueError):
        mj.split_for_fraction(3.0, 5, 10, 5, 0.0)
    with pytest.raises(ValueError):
        mj.budget_split(0.0, 1, 10, 9)


def test_uniform_allocation_values():
    spec = mj.load_scenario(mj.bundled_scenario_path("fig2.scenario"))
    cfg = mj.to_system_config(spec)
    alloc = mj.uniform_allocation(cfg)
    assert alloc.zeta_t == (0.01, 0.01, 0.01, 0.01)
    assert alloc.zeta_d == 0.96
    small = mj.SystemConfig(10, (mj.UserParams(1.0, 1.0, 5),))
    assert mj.uniform_allocation(small).zeta_t == (0.5,)
    assert mj.uniform_allocation(small).zeta_d == 0.5


def test_uniform_allocation_gives_constant_jamming_power():
    rng = np.random.default_rng(40)
    for _ in range(50):
        cfg = random_config(rng)
        budget = mj.JammerBudget(float(10 ** rng.uniform(-1, 3)))
        p_wt, p_wd = mj.phase_jam_powers(mj.uniform_allocation(cfg), cfg, budget)
        assert np.allclose(p_wt, budget.avg_power, rtol=1e-9)
        assert p_wd == pytest.approx(budget.avg_power, rel=1e-9)


def test_sweep_values_respect_step():
    spec = parse_scenario(
        GOOD.replace("power_db: 10.0", "sweep: {min_db: -3.0, max_db: 3.0, step_db: 1.5}")
    )
    assert sweep_db_values(spec) == [-3.0, -1.5, 0.0, 1.5, 3.0]
    with pytest.raises(ScenarioError):
        sweep_db_values(parse_scenario(GOOD))


def test_missing_required_keys_are_named_in_field_order():
    bad = GOOD.replace("block_len: 100\n", "").replace("output: demo\n", "")
    with pytest.raises(ScenarioError, match="missing required key 'block_len' in"):
        parse_scenario(bad)
    bad = GOOD.replace("  samples: 1000\n  seed: 4\n", "  confidence_z: 2.0\n")
    with pytest.raises(ScenarioError, match="missing required key 'samples' in mc"):
        parse_scenario(bad)


@pytest.mark.parametrize("field", ["min_db", "max_db", "step_db"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_sweep_range_rejects_non_finite_fields(field, value):
    bounds = {"min_db": 0.0, "max_db": 1.0, "step_db": 1.0, field: value}
    with pytest.raises(ScenarioError, match=f"sweep {field} must be finite"):
        SweepRange(**bounds)


def test_sweep_range_caps_the_point_count():
    cap = mj.scenario.MAX_SWEEP_POINTS
    SweepRange(min_db=0.0, max_db=cap - 1.0, step_db=1.0)
    with pytest.raises(ScenarioError, match=f"sweep has {cap + 1} points, more than the limit {cap}"):
        SweepRange(min_db=0.0, max_db=float(cap), step_db=1.0)
    with pytest.raises(ScenarioError, match="sweep has 1000000000000001 points"):
        SweepRange(min_db=0.0, max_db=1e12, step_db=1e-3)


@pytest.mark.parametrize(
    "stem", [".", "..", "../up", "a/b", "/abs", "a\\b", 'a"b', "a\nb", "a\tb", "a\x00b", "a\x7fb", "a\x85b"]
)
def test_output_must_be_a_plain_stem(stem):
    # A JSON string is a YAML double-quoted scalar, escapes included.
    with pytest.raises(ScenarioError, match="output .* must be a file name stem"):
        parse_scenario(GOOD.replace("output: demo", f"output: {json.dumps(stem)}"))


def test_integer_beyond_the_digit_limit_is_a_parse_error_naming_the_file(tmp_path):
    path = tmp_path / "big.yaml"
    path.write_text(GOOD.replace("block_len: 100", "block_len: 1" + "0" * 5000))
    with pytest.raises(ScenarioError, match=rf"^{re.escape(str(path))}: parse error: "):
        mj.load_scenario(path)
