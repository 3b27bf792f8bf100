"""Technology / design-rule descriptions."""

from repro.tech.technology import CMOS65, CMOS90, Technology, default_technology

__all__ = [
    "Technology",
    "CMOS90",
    "CMOS65",
    "default_technology",
]
