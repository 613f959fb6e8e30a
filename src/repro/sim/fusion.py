"""Provenance stub for the retired delay-fusion switch.

Delay fusion (same-deadline rider merging, lazy core charges, parked
link drainers and fused RDMA verb chains) was removed: the stepwise
engine path is the only one (docs/PERFORMANCE.md, "Reverted designs").
This module exists only so the benchmark's provenance line, which
records the engine leg of every run, keeps importing
:func:`selected_fusion`.
"""

__all__ = ["selected_fusion"]


def selected_fusion() -> str:
    """The delay-fusion leg of this build: always ``"off"``."""
    return "off"
