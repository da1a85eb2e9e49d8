"""``StackSpec`` under its assembly-layer name, and ``spec_diff``.

The spec itself — one frozen, serialisable description of a full storage
stack, handed unchanged to ``PatsySimulator`` and ``PegasusFileSystem`` — is
defined next to the section dataclasses it is made of, in
:mod:`repro.config`, whose presets return it.
"""

from __future__ import annotations

from dataclasses import fields, is_dataclass
from typing import Any, Dict

from repro.config import StackSpec

__all__ = ["StackSpec", "spec_diff"]


def spec_diff(a: StackSpec, b: StackSpec) -> Dict[str, Any]:
    """The fields on which two specs differ, as a nested dict.

    Returns ``{section: {field: (a_value, b_value)}}`` for every differing
    sub-config field and ``{"seed": (a, b)}`` for the top-level seed.  An empty dict means the
    specs describe the same stack.  Experiments use this to print manifest
    deltas — the exact knobs that separate two runs — instead of two full
    specs.
    """
    diff: Dict[str, Any] = {}
    for name in (f.name for f in fields(StackSpec)):
        value_a, value_b = getattr(a, name), getattr(b, name)
        if value_a == value_b:
            continue
        if is_dataclass(value_a):
            diff[name] = {
                f.name: (getattr(value_a, f.name), getattr(value_b, f.name))
                for f in fields(value_a)
                if getattr(value_a, f.name) != getattr(value_b, f.name)
            }
        else:  # the seed
            diff[name] = (value_a, value_b)
    return diff
