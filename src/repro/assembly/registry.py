"""The component registry: one ``register``/``create`` API for every policy.

The paper organises the framework as a taxonomy of *base*, *derived* and
*helper* components, each replaceable at start-up ("the log-cleaner can be
replaced and is plugged into the LFS component when the system starts up").
The registry is a single two-level namespace of named factories, keyed
first by component *kind* and then by policy *name*; call sites build a
component with ``registry.create(kind, name, ...)``.
Built-in policies self-register when their module is imported; third-party
code registers the same way, without touching any core module::

    from repro.assembly import registry

    class EagerFlushPolicy(FlushPolicy):
        name = "eager"
        ...

    registry.register("flush", "eager", EagerFlushPolicy)
    FlushConfig(policy="eager")          # now a valid configuration

This module deliberately has no dependencies beyond ``repro.errors``: every
core module imports it to self-register, so it must sit below all of them
in the import graph.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

from repro.errors import ConfigurationError

__all__ = ["ComponentRegistry", "registry"]

#: the component kinds the built-in modules populate; purely documentary —
#: registering a brand-new kind is allowed and creates the namespace.
KNOWN_KINDS = (
    "replacement",  # cache replacement policies        (core.replacement)
    "flush",        # delayed-write / persistency       (core.flush)
    "iosched",      # disk-queue scheduling             (core.iosched)
    "layout",       # storage layouts (LFS / FFS)       (core.storage.lfs/ffs)
    "placement",    # array file/block placement        (core.storage.array)
    "cleaner",      # LFS segment cleaners              (core.storage.cleaner)
)


class ComponentRegistry:
    """Named, pluggable component factories, keyed by (kind, name).

    A *factory* is any callable returning a component instance; its
    signature is whatever the kind's call sites pass (documented per kind
    in the module that owns the built-ins).  ``create`` forwards all
    positional and keyword arguments verbatim.
    """

    def __init__(self) -> None:
        self._factories: Dict[str, Dict[str, Callable[..., Any]]] = {}

    def register(
        self,
        kind: str,
        name: str,
        factory: Callable[..., Any],
        replace: bool = False,
    ) -> Callable[..., Any]:
        """Register ``factory`` under ``(kind, name)``.

        Re-registering an existing name raises unless ``replace=True`` —
        silently shadowing a built-in is almost always an accident.
        Returns the factory so the call can be used as a decorator.
        """
        if not callable(factory):
            raise ConfigurationError(f"factory for {kind}/{name} must be callable")
        family = self._factories.setdefault(kind, {})
        if name in family and not replace:
            raise ConfigurationError(
                f"{kind} component {name!r} is already registered "
                f"(pass replace=True to shadow it)"
            )
        family[name] = factory
        return factory

    def unregister(self, kind: str, name: str) -> None:
        """Remove a registration (mostly for tests un-shadowing built-ins)."""
        family = self._factories.get(kind, {})
        if name not in family:
            raise ConfigurationError(f"no {kind} component named {name!r}")
        del family[name]

    def get(self, kind: str, name: str) -> Callable[..., Any]:
        """The factory registered under ``(kind, name)``."""
        factory = self._factories.get(kind, {}).get(name)
        if factory is None:
            raise ConfigurationError(
                f"unknown {kind} component {name!r}; "
                f"registered: {self.names(kind) or 'none'}"
            )
        return factory

    def create(self, kind: str, name: str, *args: Any, **kwargs: Any) -> Any:
        """Instantiate the component registered under ``(kind, name)``."""
        return self.get(kind, name)(*args, **kwargs)

    def has(self, kind: str, name: str) -> bool:
        return name in self._factories.get(kind, {})

    def names(self, kind: str) -> List[str]:
        """Registered component names for one kind, sorted."""
        return sorted(self._factories.get(kind, {}))

    def kinds(self) -> List[str]:
        """Component kinds with at least one registration, sorted."""
        return sorted(kind for kind, family in self._factories.items() if family)

    def __repr__(self) -> str:
        families = ", ".join(
            f"{kind}={len(self._factories[kind])}" for kind in self.kinds()
        )
        return f"ComponentRegistry({families})"


#: the process-wide registry all built-in modules populate.
registry = ComponentRegistry()
