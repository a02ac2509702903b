"""Scenario configuration: the sectioned key-value file the CLI consumes.

Grammar (ASCII text, one entry per line): a `[section]` header, then that
section's `key = value` entries, for the sections and keys of `_SECTIONS`.
Sections may appear in any order but each exactly once; every key is
required, belongs to its section, and may not repeat; unknown keys and
sections are rejected. Values are plain decimal or scientific-notation
numbers ('nan'/'inf' are rejected); scale-like values must be positive,
and each mass at least dynamics.MIN_MASS. Blank lines and lines starting
with '#' are ignored. `serialize_config` writes values with 17 significant
digits, so parse -> serialize -> parse is lossless.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .dynamics import MIN_MASS, MassParams, StageState, Wrench
from .errors import ParseError
from .frames import Calibration

#: Every config key, by section in file order, with the field it sets (of
#: the ScenarioConfig field named after the section, or for [sim] of
#: ScenarioConfig itself) and, if the key must be strictly positive, the
#: reason shown when it is not. `verify` names drawn inputs by these keys.
_SECTIONS: dict[str, dict[str, tuple[str, str | None]]] = {
    "masses": {
        "mx": ("mx", "mass of the x table"),
        "my": ("my", "mass of the y table"),
        "mp": ("mp", "mass of the working plate"),
    },
    "calibration": {
        "alpha": ("alpha", None),
        "dx": ("dx", "origin displacement"),
        "dy": ("dy", "origin displacement"),
        "fx": ("fx", "display resolution"),
        "fy": ("fy", "display resolution"),
    },
    "initial": {
        "x0": ("x", None),
        "y0": ("y", None),
        "xd0": ("xdot", None),
        "yd0": ("ydot", None),
    },
    "wrench": {
        "taux": ("taux", None),
        "tauy": ("tauy", None),
        "fexd": ("fexd", None),
        "feyd": ("feyd", None),
    },
    "sim": {
        "dt": ("dt", "integration step"),
        "t_end": ("t_end", "simulation horizon"),
    },
}

_NUMBER_RE = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\Z")


@dataclass(frozen=True)
class ScenarioConfig:
    """One fully specified simulation scenario."""

    masses: MassParams
    calibration: Calibration
    initial: StageState
    wrench: Wrench
    dt: float
    t_end: float


def parse_config(text: bytes | str) -> ScenarioConfig:
    """Parse scenario text; raise ParseError (with line and key) on any defect."""
    if isinstance(text, bytes):
        try:
            text = text.decode("ascii")
        except UnicodeDecodeError as exc:
            raise ParseError(f"config must be ASCII text: {exc}", line=0) from exc

    values: dict[str, float] = {}
    lines: dict[str, int] = {}
    seen_sections: dict[str, int] = {}
    current: str | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError(f"malformed section header {line!r}", lineno)
            name = line[1:-1].strip()
            if name not in _SECTIONS:
                raise ParseError(f"unknown section [{name}]", lineno)
            if name in seen_sections:
                raise ParseError(
                    f"duplicate section [{name}] (first at line {seen_sections[name]})",
                    lineno,
                )
            seen_sections[name] = lineno
            current = name
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {line!r}", lineno)
        if current is None:
            raise ParseError(f"entry {line!r} before any section header", lineno)
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in _SECTIONS[current]:
            raise ParseError(f"unknown key {key!r} in section [{current}]", lineno, key)
        if key in values:
            raise ParseError(
                f"duplicate key {key!r} (first at line {lines[key]})", lineno, key
            )
        if not _NUMBER_RE.match(value_text):
            raise ParseError(f"malformed number {value_text!r} for {key!r}", lineno, key)
        value = float(value_text)
        if not math.isfinite(value):
            raise ParseError(f"{key!r} overflows to {value!r}", lineno, key)
        reason = _SECTIONS[current][key][1]
        if reason is not None and not value > 0.0:
            raise ParseError(
                f"{key} must be positive ({reason}), got {value_text}", lineno, key
            )
        if current == "masses" and value < MIN_MASS:
            raise ParseError(
                f"{key} must be >= {MIN_MASS:g}, got {value!r}", lineno, key
            )
        values[key] = value
        lines[key] = lineno

    for section, keys in _SECTIONS.items():
        if section not in seen_sections:
            raise ParseError(f"missing section [{section}]", line=0)
        for key in keys:
            if key not in values:
                raise ParseError(
                    f"missing key {key!r} in section [{section}]",
                    seen_sections[section],
                    key,
                )

    def fields(section: str) -> dict[str, float]:
        return {field: values[key] for key, (field, _) in _SECTIONS[section].items()}

    return ScenarioConfig(
        masses=MassParams(**fields("masses")),
        calibration=Calibration(**fields("calibration")),
        initial=StageState(t=0.0, **fields("initial")),
        wrench=Wrench(**fields("wrench")),
        **fields("sim"),
    )


def key_values(section: str, value) -> dict[str, float]:
    """Each config key of `section`, in file order, with its field of value."""
    return {key: getattr(value, field) for key, (field, _) in _SECTIONS[section].items()}


def serialize_config(config: ScenarioConfig) -> str:
    """Canonical text form; parses back to an equal ScenarioConfig."""
    chunks = []
    for section in _SECTIONS:
        chunks.append(f"[{section}]")
        source = config if section == "sim" else getattr(config, section)
        for key, value in key_values(section, source).items():
            chunks.append(f"{key} = {value:.17g}")
        chunks.append("")
    return "\n".join(chunks)
