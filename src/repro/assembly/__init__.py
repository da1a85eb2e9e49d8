"""The assembly layer: one declarative way to build a storage stack.

The paper's thesis is that the simulator and the file system are the *same
components* under different helper bindings — "the difference between a
simulated cache and a real cache is the lack of a data pointer."  This
package is where that thesis lives in code:

* :mod:`repro.assembly.registry` — named, pluggable factories for every
  policy family (replacement, flush, I/O scheduling, layout, placement,
  cleaner), populated by the built-in modules and open to third parties.
* :mod:`repro.assembly.spec` — :class:`StackSpec` (defined in
  :mod:`repro.config`), a frozen, serialisable description of a full storage
  stack (cache, flush policy, layouts, array/placement, cleaner)
  independent of which world runs it, and ``spec_diff``.
* :mod:`repro.assembly.bindings` — the helper-component bundles that *do*
  pick a world: :class:`SimulatedBinding` (simulated disks and buses, no
  data buffers) and :class:`OnlineBinding` (memory- or file-backed drivers
  moving real bytes).
* :mod:`repro.assembly.builder` — :func:`build_stack`, which assembles a
  :class:`StorageStack` from a spec and a binding.  Both
  :class:`~repro.patsy.simulator.PatsySimulator` and
  :class:`~repro.pfs.filesystem.PegasusFileSystem` are thin consumers of
  this one builder.

Everything except the registry is imported lazily (PEP 562): core modules
import ``repro.assembly.registry`` at import time to self-register their
built-in policies, so this ``__init__`` must not import anything that
imports those modules back.
"""

from __future__ import annotations

from repro.assembly.registry import ComponentRegistry, registry

__all__ = [
    "ComponentRegistry",
    "registry",
    "StackSpec",
    "spec_diff",
    "Binding",
    "SimulatedBinding",
    "OnlineBinding",
    "StorageStack",
    "build_stack",
]

_LAZY = {
    "StackSpec": "repro.assembly.spec",
    "spec_diff": "repro.assembly.spec",
    "Binding": "repro.assembly.bindings",
    "SimulatedBinding": "repro.assembly.bindings",
    "OnlineBinding": "repro.assembly.bindings",
    "StorageStack": "repro.assembly.builder",
    "build_stack": "repro.assembly.builder",
}


def __getattr__(name: str):
    module_name = _LAZY.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
