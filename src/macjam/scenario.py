"""Scenario files: parsing, validation, unit conversion, and experiment setup.

A scenario is a small YAML-syntax key/value file describing the block
structure, the users (either explicit pilot/data powers or an average power
budget to be split), the jamming budget (single value or a dB sweep), and the
Monte Carlo settings.  The spec dataclasses below are the only statement of
the file layout: parsing checks each section's keys against its dataclass's
fields, and dumping writes the fields back.  Unknown keys are errors, not
warnings; typos in scientific configs should fail loudly.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

import yaml

from .model import SystemConfig, UserParams, _golden_section, _require_lengths
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
    "sweep_db_values",
    "bundled_scenario_path",
]


class ScenarioError(ValueError):
    """Malformed or invalid scenario content; the message names the field."""


# The most grid points a jammer sweep may have.
MAX_SWEEP_POINTS = 10**6


def db_to_linear(db: float) -> float:
    """Linear power of ``db``; a value whose power overflows a float is a ``ValueError``."""
    try:
        return 10.0 ** (db / 10.0)
    except OverflowError:
        raise ValueError(f"{db!r} dB is too large to express as a linear power") from None


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
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ScenarioError(f"sweep {f.name} must be finite, got {value!r}")
        if self.min_db > self.max_db:
            raise ScenarioError(f"sweep min_db {self.min_db} exceeds max_db {self.max_db}")
        if self.step_db <= 0.0:
            raise ScenarioError(f"sweep step_db must be > 0, got {self.step_db}")
        if not math.isfinite((self.max_db - self.min_db) / self.step_db):
            raise ScenarioError(f"sweep (max_db - min_db) / step_db overflows: {self}")
        if (count := _point_count(self)) > MAX_SWEEP_POINTS:
            raise ScenarioError(f"sweep has {count} points, more than the limit {MAX_SWEEP_POINTS}: {self}")


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


def _as_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _as_float(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    return float(value)


def _names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _check_keys(cls, raw, where: str, required=()) -> None:
    """``raw`` must be a mapping of ``cls``'s fields holding the ``required`` ones."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be a mapping, got {type(raw).__name__}")
    names = _names(cls)
    for key in raw:
        if key not in names:
            raise ScenarioError(f"unknown key {key!r} in {where}")
    for name in names:
        if name in required and name not in raw:
            raise ScenarioError(f"missing required key {name!r} in {where}")


def _section(cls, raw, where: str, required=(), ints=()) -> dict:
    """Keyword arguments for ``cls`` from the numeric section ``raw`` at ``where``.

    Keys are checked by :func:`_check_keys`.  The fields present are coerced
    in field order, those in ``ints`` by :func:`_as_int` and the rest by
    :func:`_as_float`; absent fields take the dataclass default.
    """
    _check_keys(cls, raw, where, required)
    return {
        name: (_as_int if name in ints else _as_float)(raw[name], f"{where}.{name}")
        for name in _names(cls)
        if name in raw
    }


def _check_output(stem) -> str:
    """The stem names the sweep's ``.csv`` and ``.plot`` files and is pasted into
    string literals of the plot script, so it must be a plain file-name stem."""
    if not isinstance(stem, str) or not stem:
        raise ScenarioError("output must be a non-empty string")
    # Control characters (Unicode category Cc) are U+0000-U+001F and U+007F-U+009F.
    if stem in (".", "..") or any(ch in '/\\"' or ch < " " or "\x7f" <= ch <= "\x9f" for ch in stem):
        raise ScenarioError(
            f"output {stem!r} must be a file name stem: not . or .., "
            'and no /, \\, " or control characters'
        )
    return stem


def _load_yaml(text: str, source: str):
    """``yaml.safe_load`` of ``text``; any parse failure is a ``ScenarioError`` naming ``source``."""
    try:
        return yaml.safe_load(text)
    except (yaml.YAMLError, ValueError) as exc:
        # ValueError: a scalar the YAML syntax accepts but Python cannot hold,
        # such as an integer beyond the interpreter's digit limit.
        raise ScenarioError(f"{source}: parse error: {exc}") from exc


def parse_scenario(text: str, source: str = "<string>") -> ScenarioSpec:
    raw = _load_yaml(text, source)
    _check_keys(ScenarioSpec, raw, source, required=_names(ScenarioSpec))
    block_len = _as_int(raw["block_len"], "block_len")
    if not isinstance(raw["users"], list) or not raw["users"]:
        raise ScenarioError("users must be a non-empty list")
    users = tuple(
        UserSpec(**_section(UserSpec, entry, f"users[{idx}]", required=("train_len",), ints=("train_len",)))
        for idx, entry in enumerate(raw["users"])
    )
    _check_keys(JammerSpec, raw["jammer"], "jammer")
    sweep = None
    if "sweep" in raw["jammer"]:
        sweep = SweepRange(
            **_section(SweepRange, raw["jammer"]["sweep"], "jammer.sweep", required=_names(SweepRange))
        )
    power_db = None
    if "power_db" in raw["jammer"]:
        power_db = _as_float(raw["jammer"]["power_db"], "jammer.power_db")
    jammer = JammerSpec(power_db=power_db, sweep=sweep)
    counts = ("samples", "seed")
    mc = MonteCarloSettings(**_section(MonteCarloSettings, raw["mc"], "mc", required=counts, ints=counts))
    spec = ScenarioSpec(
        block_len=block_len, users=users, jammer=jammer, mc=mc, output=_check_output(raw["output"])
    )
    # Surface structural problems (e.g. training longer than the block) now.
    to_system_config(spec)
    return spec


def load_scenario(path) -> ScenarioSpec:
    path = Path(path)
    return parse_scenario(path.read_text(), source=str(path))


def dump_scenario(spec: ScenarioSpec) -> str:
    """The scenario file of ``spec``: its fields in order, unset (``None``) ones left out."""
    doc = asdict(spec, dict_factory=lambda items: {k: v for k, v in items if v is not None})
    doc["users"] = list(doc["users"])
    return yaml.safe_dump(doc, sort_keys=False)


def save_scenario(spec: ScenarioSpec, path) -> None:
    Path(path).write_text(dump_scenario(spec))


def split_for_fraction(
    avg_power: float, train_len: int, block_len: int, data_len: int, train_fraction: float
) -> tuple[float, float]:
    """Powers implied by putting the given fraction of the block energy into pilots.

    By construction ``P_t * train_len + P_d * data_len = avg_power * block_len``;
    both lengths must be at least 1.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must lie in (0, 1), got {train_fraction}")
    if train_len < 1 or data_len < 1:
        raise ValueError(f"train_len and data_len must be >= 1, got {train_len} and {data_len}")
    energy = avg_power * block_len
    return train_fraction * energy / train_len, (1.0 - train_fraction) * energy / data_len


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

    a, b, *_ = _golden_section(lambda fraction: -lb(fraction), 1e-12, 1.0 - 1e-12, 1e-13)
    return split_for_fraction(avg_power, train_len, block_len, data_len, 0.5 * (a + b))


def to_system_config(spec: ScenarioSpec) -> SystemConfig:
    """Resolve dB fields and budget-form users into a concrete system config.

    A user that does not resolve (an overflowing dB value, a budget that cannot
    be split, invalid powers) raises :class:`ScenarioError` naming ``users[idx]``.
    """
    total_train = sum(u.train_len for u in spec.users)
    try:
        _require_lengths(spec.block_len, total_train)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    data_len = spec.block_len - total_train
    users = []
    for idx, u in enumerate(spec.users):
        try:
            if u.avg_power_db is not None:
                p_t, p_d = budget_split(
                    db_to_linear(u.avg_power_db), u.train_len, spec.block_len, data_len
                )
            else:
                p_t = db_to_linear(u.train_power_db)
                p_d = db_to_linear(u.data_power_db)
            users.append(UserParams(train_power=p_t, data_power=p_d, train_len=u.train_len))
        except ValueError as exc:
            raise ScenarioError(f"users[{idx}]: {exc}") from exc
    return SystemConfig(block_len=spec.block_len, users=tuple(users))


def _point_count(s: SweepRange) -> int:
    return int(math.floor((s.max_db - s.min_db) / s.step_db + 1e-9)) + 1


def sweep_db_values(spec: ScenarioSpec) -> list[float]:
    if spec.jammer.sweep is None:
        raise ScenarioError("scenario has no jammer sweep range")
    s = spec.jammer.sweep
    return [s.min_db + i * s.step_db for i in range(_point_count(s))]


def bundled_scenario_path(name: str) -> Path:
    """Path of a scenario shipped with the package (e.g. ``fig2.scenario``)."""
    candidate = resources.files("macjam").joinpath("scenarios", name)
    with resources.as_file(candidate) as path:
        if not path.exists():
            raise FileNotFoundError(f"no bundled scenario named {name!r}")
        return Path(path)
