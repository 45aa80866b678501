"""Shared helpers: unit formatting/conversion and argument validation."""

from repro._lazy import lazy_exports

_EXPORTS = {
    "GIGA": "repro.utils.units",
    "KIBI": "repro.utils.units",
    "MEBI": "repro.utils.units",
    "MEGA": "repro.utils.units",
    "MILLI": "repro.utils.units",
    "bytes_to_kib": "repro.utils.units",
    "bytes_to_mib": "repro.utils.units",
    "format_bytes": "repro.utils.units",
    "format_energy": "repro.utils.units",
    "format_frequency": "repro.utils.units",
    "format_gops": "repro.utils.units",
    "format_power": "repro.utils.units",
    "format_time": "repro.utils.units",
    "gops": "repro.utils.units",
    "gops_per_watt": "repro.utils.units",
    "seconds_to_ms": "repro.utils.units",
    "check_in_range": "repro.utils.validation",
    "check_non_negative": "repro.utils.validation",
    "check_positive": "repro.utils.validation",
    "check_positive_int": "repro.utils.validation",
    "check_probability": "repro.utils.validation",
}

__all__ = list(_EXPORTS)
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
