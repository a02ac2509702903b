import math

import pytest

from cellstage.errors import ParseError
from cellstage.scenario import ScenarioConfig, parse_config, serialize_config

from conftest import REFERENCE_CONFIG

VALID = """\
[masses]
mx = 0.5
my = 0.3
mp = 0.2
[calibration]
alpha = 0.1
dx = 1.0
dy = 2.0
fx = 1.5
fy = 2.5
[initial]
x0 = 0.0
y0 = 1.0
xd0 = -1.0
yd0 = 0.5
[wrench]
taux = 0.5
tauy = -0.5
fexd = 0.25
feyd = 0.0
[sim]
dt = 1e-2
t_end = 2.0
"""


def test_reference_config_parses(reference_config_text):
    config = parse_config(reference_config_text)
    assert config.masses.x_effective == 1.0
    assert config.masses.y_effective == 0.5
    assert config.calibration.fx == 2.0
    assert config.initial.t == 0.0
    assert config.initial.xdot == 1.0
    assert config.wrench.taux == 0.0
    assert config.dt == 0.01
    assert config.t_end == 2.0


def test_accepts_bytes_and_str():
    assert parse_config(VALID) == parse_config(VALID.encode("ascii"))


def test_values_parse_in_scientific_notation():
    config = parse_config(VALID)
    assert config.dt == 0.01


def test_sections_in_any_order():
    blocks = VALID.split("[")
    reordered = "[" + "[".join([blocks[5], blocks[1], blocks[2], blocks[3], blocks[4]])
    assert parse_config(reordered) == parse_config(VALID)


def test_serialize_round_trips():
    config = parse_config(VALID)
    assert parse_config(serialize_config(config)) == config


def test_serialize_round_trips_awkward_floats():
    config = parse_config(VALID.replace("alpha = 0.1", f"alpha = {math.pi/7:.17g}"))
    again = parse_config(serialize_config(config))
    assert again.calibration.alpha == config.calibration.alpha


def test_reference_file_round_trips():
    config = parse_config(REFERENCE_CONFIG.read_bytes())
    assert parse_config(serialize_config(config)) == config


class TestParseErrors:
    def expect(self, text, match, line=None, key=None):
        with pytest.raises(ParseError, match=match) as excinfo:
            parse_config(text)
        if line is not None:
            assert excinfo.value.line == line
        if key is not None:
            assert excinfo.value.key == key
        return excinfo.value

    def test_zero_resolution_cites_positivity(self):
        self.expect(VALID.replace("fx = 1.5", "fx = 0"), "fx must be positive", key="fx")

    def test_negative_mass_cites_positivity(self):
        err = self.expect(VALID.replace("mx = 0.5", "mx = -1"), "mx must be positive")
        assert err.line == 2

    @pytest.mark.parametrize(
        "entry, line", [("mx = 0.5", 2), ("my = 0.3", 3), ("mp = 0.2", 4)],
        ids=["mx", "my", "mp"],
    )
    def test_mass_below_floor(self, entry, line):
        key = entry.split(" = ")[0]
        text = VALID.replace(entry, f"{key} = 1e-13")
        message = rf"^line {line}: {key} must be >= 1e-12, got 1e-13$"
        self.expect(text, message, line=line, key=key)

    def test_zero_displacement(self):
        self.expect(VALID.replace("dx = 1.0", "dx = 0.0"), "dx must be positive")

    def test_duplicate_section(self):
        text = VALID + "[masses]\n"
        self.expect(text, r"duplicate section \[masses\]", line=24)

    def test_duplicate_key(self):
        text = VALID.replace("my = 0.3", "my = 0.3\nmx = 0.5")
        self.expect(text, "duplicate key 'mx'", key="mx")

    def test_unknown_key(self):
        text = VALID.replace("mp = 0.2", "mp = 0.2\nmq = 1.0")
        self.expect(text, "unknown key 'mq'", line=5)

    def test_key_in_wrong_section(self):
        text = VALID.replace("dt = 1e-2", "dt = 1e-2\nmx = 0.5")
        self.expect(text, "unknown key 'mx'")

    def test_unknown_section(self):
        self.expect(VALID + "[extras]\n", r"unknown section \[extras\]")

    def test_missing_key(self):
        self.expect(VALID.replace("mp = 0.2\n", ""), "missing key 'mp'", key="mp")

    def test_missing_section(self):
        text = VALID.replace("[wrench]", "#[wrench]")
        self.expect(text, "unknown key 'taux'")

    def test_missing_section_entirely(self):
        start = VALID.index("[wrench]")
        end = VALID.index("[sim]")
        self.expect(
            VALID[:start] + VALID[end:], r"missing section \[wrench\]", line=0
        )

    @pytest.mark.parametrize("bad", ["abc", "1.2.3", "nan", "inf", "0x10", "1,5", ""])
    def test_malformed_numbers(self, bad):
        self.expect(VALID.replace("tauy = -0.5", f"tauy = {bad}"), "malformed number")

    def test_value_overflowing_to_infinity(self):
        self.expect(VALID.replace("tauy = -0.5", "tauy = 1e999"), "overflows")

    def test_entry_before_section(self):
        self.expect("mx = 1\n" + VALID, "before any section", line=1)

    def test_line_without_equals(self):
        self.expect(VALID.replace("mx = 0.5", "mx 0.5"), "expected 'key = value'")

    def test_malformed_section_header(self):
        self.expect(VALID.replace("[masses]", "[masses"), "malformed section header")

    def test_non_ascii_bytes(self):
        # A UTF-16 byte order mark leads line 1.
        assert self.expect(VALID.encode("utf-16"), "^line 1: .*ASCII", line=1).key is None
        # Byte 373 of the reference config, the d of "dt = 0.01", is on line 28.
        data = bytearray(REFERENCE_CONFIG.read_bytes())
        assert data[:373].count(b"\n") == 27 and data[373:374] == b"d"
        data[373] = 0xB2
        self.expect(bytes(data), "^line 28: config must be ASCII text: .* position 373", line=28)

    @pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"])
    def test_non_ascii_byte_is_named_by_the_parsers_line(self, ending):
        # The byte on line 3 (first in it, and after a blank line) under
        # each line ending splitlines takes.
        text = "[masses]" + ending + ending + "\u00b5x = 0.5" + ending
        self.expect(text.encode("latin-1"), "^line 3: ", line=3)

    def test_non_positive_dt(self):
        self.expect(VALID.replace("dt = 1e-2", "dt = 0"), "dt must be positive")

    def test_non_positive_horizon(self):
        self.expect(VALID.replace("t_end = 2.0", "t_end = -1"), "t_end must be positive")


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + VALID.replace(
        "[masses]", "[masses]\n# the x table is the heavy one"
    )
    assert parse_config(text) == parse_config(VALID)


def test_config_is_plain_dataclass():
    config = parse_config(VALID)
    assert isinstance(config, ScenarioConfig)
    assert config == parse_config(VALID)
