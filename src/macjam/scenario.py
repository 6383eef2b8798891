"""Scenario files: parsing, validation, unit conversion, and experiment setup.

A scenario is a small YAML-syntax key/value file describing the block
structure, the users (either explicit pilot/data powers or an average power
budget to be split), the jamming budget (single value or a dB sweep), and the
Monte Carlo settings.  Unknown keys are errors, not warnings; typos in
scientific configs should fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np
import yaml

from .model import SystemConfig, UserParams, uniform_allocation
from .rates import EULER_GAMMA, MonteCarloSettings

__all__ = [
    "ScenarioError",
    "UserSpec",
    "SweepRange",
    "JammerSpec",
    "ScenarioSpec",
    "db_to_linear",
    "linear_to_db",
    "load_scenario",
    "parse_scenario",
    "dump_scenario",
    "save_scenario",
    "to_system_config",
    "split_for_fraction",
    "budget_split",
    "uniform_allocation",
    "sweep_db_values",
    "bundled_scenario_path",
]


class ScenarioError(ValueError):
    """Malformed or invalid scenario content; the message names the field."""


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def linear_to_db(linear: float) -> float:
    if linear <= 0.0:
        raise ValueError(f"cannot express nonpositive power {linear!r} in dB")
    return 10.0 * math.log10(linear)


@dataclass(frozen=True)
class UserSpec:
    """One user: explicit powers (train + data, dB) or an average budget (dB)."""

    train_len: int
    train_power_db: float | None = None
    data_power_db: float | None = None
    avg_power_db: float | None = None

    def __post_init__(self):
        explicit = self.train_power_db is not None
        if explicit != (self.data_power_db is not None):
            raise ScenarioError(
                "user needs both train_power_db and data_power_db when giving explicit powers"
            )
        if explicit == (self.avg_power_db is not None):
            raise ScenarioError(
                "user needs either train_power_db/data_power_db or avg_power_db, not both"
            )


@dataclass(frozen=True)
class SweepRange:
    min_db: float
    max_db: float
    step_db: float

    def __post_init__(self):
        if self.min_db > self.max_db:
            raise ScenarioError(f"sweep min_db {self.min_db} exceeds max_db {self.max_db}")
        if self.step_db <= 0.0:
            raise ScenarioError(f"sweep step_db must be > 0, got {self.step_db}")


@dataclass(frozen=True)
class JammerSpec:
    power_db: float | None = None
    sweep: SweepRange | None = None

    def __post_init__(self):
        if (self.power_db is None) == (self.sweep is None):
            raise ScenarioError("jammer needs exactly one of power_db or sweep")


@dataclass(frozen=True)
class ScenarioSpec:
    block_len: int
    users: tuple[UserSpec, ...]
    jammer: JammerSpec
    mc: MonteCarloSettings
    output: str


def _require_keys(mapping: dict, allowed: set[str], required: set[str], where: str):
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(mapping).__name__}")
    for key in mapping:
        if key not in allowed:
            raise ScenarioError(f"unknown key {key!r} in {where}")
    for key in required:
        if key not in mapping:
            raise ScenarioError(f"missing required key {key!r} in {where}")


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return float(value)


def parse_scenario(text: str, source: str = "<string>") -> ScenarioSpec:
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{source}: parse error: {exc}") from exc
    _require_keys(
        raw,
        allowed={"block_len", "users", "jammer", "mc", "output"},
        required={"block_len", "users", "jammer", "mc", "output"},
        where=source,
    )
    block_len = _as_int(raw["block_len"], "block_len")
    if not isinstance(raw["users"], list) or not raw["users"]:
        raise ScenarioError("users must be a non-empty list")
    users = []
    for idx, entry in enumerate(raw["users"]):
        where = f"users[{idx}]"
        _require_keys(
            entry,
            allowed={"train_len", "train_power_db", "data_power_db", "avg_power_db"},
            required={"train_len"},
            where=where,
        )
        users.append(
            UserSpec(
                train_len=_as_int(entry["train_len"], f"{where}.train_len"),
                train_power_db=(
                    _as_float(entry["train_power_db"], f"{where}.train_power_db")
                    if "train_power_db" in entry
                    else None
                ),
                data_power_db=(
                    _as_float(entry["data_power_db"], f"{where}.data_power_db")
                    if "data_power_db" in entry
                    else None
                ),
                avg_power_db=(
                    _as_float(entry["avg_power_db"], f"{where}.avg_power_db")
                    if "avg_power_db" in entry
                    else None
                ),
            )
        )
    _require_keys(raw["jammer"], allowed={"power_db", "sweep"}, required=set(), where="jammer")
    sweep = None
    if "sweep" in raw["jammer"]:
        _require_keys(
            raw["jammer"]["sweep"],
            allowed={"min_db", "max_db", "step_db"},
            required={"min_db", "max_db", "step_db"},
            where="jammer.sweep",
        )
        sweep = SweepRange(
            min_db=_as_float(raw["jammer"]["sweep"]["min_db"], "jammer.sweep.min_db"),
            max_db=_as_float(raw["jammer"]["sweep"]["max_db"], "jammer.sweep.max_db"),
            step_db=_as_float(raw["jammer"]["sweep"]["step_db"], "jammer.sweep.step_db"),
        )
    jammer = JammerSpec(
        power_db=(
            _as_float(raw["jammer"]["power_db"], "jammer.power_db")
            if "power_db" in raw["jammer"]
            else None
        ),
        sweep=sweep,
    )
    _require_keys(
        raw["mc"], allowed={"samples", "seed", "confidence_z"}, required={"samples", "seed"}, where="mc"
    )
    mc = MonteCarloSettings(
        samples=_as_int(raw["mc"]["samples"], "mc.samples"),
        seed=_as_int(raw["mc"]["seed"], "mc.seed"),
        confidence_z=(
            _as_float(raw["mc"]["confidence_z"], "mc.confidence_z")
            if "confidence_z" in raw["mc"]
            else 1.96
        ),
    )
    if not isinstance(raw["output"], str) or not raw["output"]:
        raise ScenarioError("output must be a non-empty string")
    spec = ScenarioSpec(
        block_len=block_len, users=tuple(users), jammer=jammer, mc=mc, output=raw["output"]
    )
    # Surface structural problems (e.g. training longer than the block) now.
    to_system_config(spec)
    return spec


def load_scenario(path) -> ScenarioSpec:
    path = Path(path)
    return parse_scenario(path.read_text(), source=str(path))


def dump_scenario(spec: ScenarioSpec) -> str:
    users = []
    for u in spec.users:
        entry: dict = {"train_len": u.train_len}
        if u.avg_power_db is not None:
            entry["avg_power_db"] = u.avg_power_db
        else:
            entry["train_power_db"] = u.train_power_db
            entry["data_power_db"] = u.data_power_db
        users.append(entry)
    if spec.jammer.sweep is not None:
        jammer = {
            "sweep": {
                "min_db": spec.jammer.sweep.min_db,
                "max_db": spec.jammer.sweep.max_db,
                "step_db": spec.jammer.sweep.step_db,
            }
        }
    else:
        jammer = {"power_db": spec.jammer.power_db}
    doc = {
        "block_len": spec.block_len,
        "users": users,
        "jammer": jammer,
        "mc": {
            "samples": spec.mc.samples,
            "seed": spec.mc.seed,
            "confidence_z": spec.mc.confidence_z,
        },
        "output": spec.output,
    }
    return yaml.safe_dump(doc, sort_keys=False)


def save_scenario(spec: ScenarioSpec, path) -> None:
    Path(path).write_text(dump_scenario(spec))


def split_for_fraction(
    avg_power: float, train_len: int, block_len: int, data_len: int, train_fraction: float
) -> tuple[float, float]:
    """Powers implied by putting the given fraction of the block energy into pilots.

    By construction ``P_t * train_len + P_d * data_len = avg_power * block_len``.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    energy = avg_power * block_len
    return train_fraction * energy / train_len, (1.0 - train_fraction) * energy / data_len


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def budget_split(
    avg_power: float, train_len: int, block_len: int, data_len: int
) -> tuple[float, float]:
    """Split an average power budget between pilots and data.

    Stand-in policy, not a reproduction of the multiuser training-design
    literature: the training energy fraction is chosen by golden-section
    search to maximize this user's own jamming-free rate lower bound
    ``(T_d/T) log2(1 + rho * exp(-kappa))``, which is equivalent to
    maximizing the single-user SINR scalar
    ``rho = P_d P_t T_t / (1 + P_t T_t + P_d)``.
    """
    if avg_power <= 0.0:
        raise ValueError(f"avg_power must be > 0, got {avg_power}")

    def lb(fraction: float) -> float:
        p_t, p_d = split_for_fraction(avg_power, train_len, block_len, data_len, fraction)
        s = p_t * train_len
        rho = (p_d * s / (1.0 + s)) / (1.0 + p_d / (1.0 + s))
        return data_len / block_len * math.log2(1.0 + rho * math.exp(-EULER_GAMMA))

    a, b = 1e-12, 1.0 - 1e-12
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = lb(c), lb(d)
    while b - a > 1e-13:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = lb(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = lb(d)
    return split_for_fraction(avg_power, train_len, block_len, data_len, 0.5 * (a + b))


def to_system_config(spec: ScenarioSpec) -> SystemConfig:
    """Resolve dB fields and budget-form users into a concrete system config."""
    total_train = sum(u.train_len for u in spec.users)
    data_len = spec.block_len - total_train
    if data_len < 1:
        raise ScenarioError(
            f"total training length {total_train} must be smaller than block_len {spec.block_len}"
        )
    users = []
    for idx, u in enumerate(spec.users):
        if u.avg_power_db is not None:
            p_t, p_d = budget_split(
                db_to_linear(u.avg_power_db), u.train_len, spec.block_len, data_len
            )
        else:
            p_t = db_to_linear(u.train_power_db)
            p_d = db_to_linear(u.data_power_db)
        try:
            users.append(UserParams(train_power=p_t, data_power=p_d, train_len=u.train_len))
        except ValueError as exc:
            raise ScenarioError(f"users[{idx}]: {exc}") from exc
    return SystemConfig(block_len=spec.block_len, users=tuple(users))


def sweep_db_values(spec: ScenarioSpec) -> list[float]:
    if spec.jammer.sweep is None:
        raise ScenarioError("scenario has no jammer sweep range")
    s = spec.jammer.sweep
    count = int(math.floor((s.max_db - s.min_db) / s.step_db + 1e-9)) + 1
    return [s.min_db + i * s.step_db for i in range(count)]


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. ``fig2.scenario``)."""
    candidate = resources.files("macjam").joinpath("scenarios", name)
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise FileNotFoundError(f"no bundled scenario named {name!r}")
        return Path(path)
