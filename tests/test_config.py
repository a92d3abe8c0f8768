"""Config ranges: each knob's interval is declared once, on its dataclass field
(``util.bounded``), and building the config checks every one
(``util.check_ranges``), so an out-of-range config cannot exist.

The tables here pin the declared intervals, so loosening a bound is a visible
edit, and a guard fails any new numeric knob that declares none.
"""

import math
import re
from dataclasses import dataclass, fields

import pytest

from augqual.corpus import CorruptionProfile
from augqual.finetune import HeadConfig
from augqual.forge import ForgeConfig
from augqual.qa import QaConfig, WeightMapConfig
from augqual.util import ValidationError, bounded, check_ranges

CONFIG_CLASSES = (CorruptionProfile, QaConfig, WeightMapConfig, HeadConfig,
                  ForgeConfig)

INTERVALS = {
    "CorruptionProfile": {"sigma_benign": "[0, inf)", "p_swap": "[0, 1]",
                          "p_degrade": "[0, 1]", "degrade_mask_rate": "[0, 1]",
                          "p_label_noise": "[0, 1]"},
    "QaConfig": {"alpha": "[0, inf)", "rho": "[0, 1]", "batch_size": "[2, inf)",
                 "steps": "[0, inf)", "lr": "(0, inf)", "hidden": "[1, inf)"},
    "WeightMapConfig": {"w_min": "[0, inf)", "w_max": "[0, inf)",
                        "gamma": "(0, inf)"},
    "HeadConfig": {"hidden": "[1, inf)", "t_max": "[1, inf)", "lr": "(0, inf)",
                   "steps": "[0, inf)", "batch_size": "[1, inf)"},
    "ForgeConfig": {"mask_rate": "[0, 1]"},
}

_NUMBER = r"(-?\d+(?:\.\d+)?|-inf|inf)"
_INTERVAL = re.compile(rf"^([\[(]){_NUMBER}, {_NUMBER}([\])])$")


def _intervals(cls) -> dict:
    return {f.name: f.metadata["interval"] for f in fields(cls)
            if "interval" in f.metadata}


def _outside(interval: str) -> list:
    """Values just outside each finite end of interval, and NaN and +-inf."""
    lo, hi = (float(x) for x in interval[1:-1].split(","))
    values = [math.nan, -math.inf, math.inf]
    if math.isfinite(lo):
        values.append(math.nextafter(lo, -math.inf) if interval[0] == "[" else lo)
    if math.isfinite(hi):
        values.append(math.nextafter(hi, math.inf) if interval[-1] == "]" else hi)
    return values


def _cases():
    return [(cls, name, interval, value)
            for cls in CONFIG_CLASSES
            for name, interval in _intervals(cls).items()
            for value in _outside(interval)]


class TestDeclaredIntervals:
    def test_intervals_as_declared(self):
        assert {cls.__name__: _intervals(cls) for cls in CONFIG_CLASSES} == INTERVALS

    def test_every_numeric_knob_declares_an_interval(self):
        # annotations are strings (postponed evaluation), e.g. "int | None"
        for cls in CONFIG_CLASSES:
            for f in fields(cls):
                if f.name != "seed" and re.search(r"\b(int|float|tuple)\b", f.type):
                    assert "interval" in f.metadata, f"{cls.__name__}.{f.name}"

    def test_intervals_well_formed(self):
        for cls in CONFIG_CLASSES:
            for name, interval in _intervals(cls).items():
                where = f"{cls.__name__}.{name}: {interval!r}"
                m = _INTERVAL.match(interval)
                assert m, where
                opening, lo, hi, closing = m.groups()
                assert float(lo) <= float(hi), where
                assert lo != "-inf" or opening == "(", where
                assert hi != "inf" or closing == ")", where


class TestCheckedAtConstruction:
    @pytest.mark.parametrize("cls, name, interval, value", _cases(),
                             ids=[f"{c.__name__}.{n}={v}" for c, n, _, v in _cases()])
    def test_out_of_range_refused(self, cls, name, interval, value):
        if name == "alpha":
            value = (1.0, value, 1.0, 1.0)
            shown = value[1]
        else:
            shown = value
        message = f"{cls.__name__}.{name} must be in {interval}, got {shown}"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            cls(**{name: value})

    def test_ends_of_each_interval_accepted(self):
        for cls in CONFIG_CLASSES:
            for name, interval in _intervals(cls).items():
                lo, hi = (float(x) for x in interval[1:-1].split(","))
                inner = ([lo] if interval[0] == "[" else []) + (
                    [hi] if interval[-1] == "]" else [])
                for value in inner:   # w_max at 0 needs w_min there too
                    cls(**{name: (value, 1.0, 1.0, 1.0) if name == "alpha"
                           else value, **({"w_min": value} if name == "w_max" else {})})

    def test_cross_field_rules(self):
        with pytest.raises(ValidationError, match="w_min <= w_max, got 1.0 > 0.5"):
            WeightMapConfig(w_min=1.0, w_max=0.5)
        WeightMapConfig(w_min=0.5, w_max=0.5)
        with pytest.raises(ValidationError, match="sum to"):
            CorruptionProfile(p_swap=0.5, p_degrade=0.3, p_label_noise=0.3)
        for alpha in ((1.0, 1.0, 1.0), (0.0, 0.0, 0.0, 0.0)):
            message = (f"QaConfig.alpha needs one weight per family, not all zero, "
                       f"got {alpha}")
            with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
                QaConfig(alpha=alpha)
        with pytest.raises(ValidationError, match="nonzero weight besides mix"):
            QaConfig(alpha=(0.0, 2.0, 0.0, 0.0))
        QaConfig(alpha=(0.0, 2.0, 0.0, 0.5))


@dataclass(frozen=True)
class _Knobs:
    closed: float = bounded(0.0, "[0, 1]")
    half_open: int = bounded(1, "(0, inf)")
    many: tuple = bounded((0.5, 0.5), "[0, 1)")
    maybe: object = bounded(None, "[1, inf)")
    free: float = -7.0


class TestCheckRanges:
    def test_inside_passes(self):
        check_ranges(_Knobs())
        check_ranges(_Knobs(closed=1.0, half_open=10 ** 30, many=(0.0, 0.999),
                            maybe=1))

    @pytest.mark.parametrize("change, message", [
        ({"closed": -0.0 - 1e-300}, "_Knobs.closed must be in [0, 1], got -1e-300"),
        ({"closed": math.nan}, "_Knobs.closed must be in [0, 1], got nan"),
        ({"half_open": 0}, "_Knobs.half_open must be in (0, inf), got 0"),
        ({"half_open": math.inf}, "_Knobs.half_open must be in (0, inf), got inf"),
        ({"many": (0.5, 1.0)}, "_Knobs.many must be in [0, 1), got 1.0"),
        ({"many": (math.nan,)}, "_Knobs.many must be in [0, 1), got nan"),
        ({"maybe": 0}, "_Knobs.maybe must be in [1, inf), got 0"),
    ])
    def test_outside_named(self, change, message):
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            check_ranges(_Knobs(**change))

    def test_first_bounded_field_in_declaration_order(self):
        with pytest.raises(ValidationError, match=r"^_Knobs\.closed "):
            check_ranges(_Knobs(closed=2.0, half_open=0))

    def test_unbounded_field_unchecked(self):
        check_ranges(_Knobs(free=math.nan))
