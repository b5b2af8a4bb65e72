"""Plugin cache: reusing plugins across connections (§2.5).

"To limit the injection overhead, we introduce a cache storing the plugin
associated PREs and memory.  When a new connection injects the same
plugin, it can reuse the cached PREs as is, without verifying or compiling
the pluglets again.  The plugin heap must be reinitialized to avoid
leaking information between unrelated connections."

Load once per process, instantiate per connection
=================================================

The cache holds :class:`~repro.core.plugin.Plugin` objects.  What
depends only on a pluglet's code is computed once per process, by
content, in the program store (:mod:`repro.vm.programs`), and a plugin
holds references to its programs there
(:meth:`Plugin.load <repro.core.plugin.Plugin.load>`, run by the first
instantiation): the verification verdict and the analyzer's proofs —
both read off one analysis per program — and per program one
JIT-compiled closure: the proof-specialized one with its
``fuel_bound`` / ``helper_bound`` / ``heap_size`` gates, or the
fully-checked one when no proof applies.  A proven pluglet's
fully-checked closure is compiled by the first run whose gates are
closed, once, and then shared like the rest.  The generated code takes
its VM as an argument and keeps all state in locals, so connections
share it as is.  The effect summaries, which depend on the plugin's
host binding, are kept on the plugin.  ``store`` only verifies: it runs
the §2.1 rules, or reads their verdict off the analysis the process
already holds for that code.

Every connection gets its own :class:`~repro.core.plugin.PluginInstance`:
a zeroed heap and allocator, the helper table, one VM shell per pluglet
with its own counters and budgets (the gates are evaluated per VM),
built by the pluglet's first run, the profiler and the containment
state.  The plugin's anchors are its content's: attaching the instance
splices them into the connection's table without copying them.  Nothing one connection's pluglets
write is reachable from another connection, and no instance outlives its
connection — there is no pool of idle instances to reset.

A plugin's pluglet list must not change once it is stored; ``store`` of a
different plugin under the same name replaces the old one together with
its code.
"""

from __future__ import annotations

from typing import Optional

from .containment import QuarantineRegistry
from .plugin import Plugin, PluginInstance


class PluginCache:
    """Holds verified plugins and instantiates them on connections.

    When built with a :class:`~repro.core.containment.QuarantineRegistry`,
    the cache is also the cross-connection enforcement point for plugin
    quarantine: :meth:`instantiate` refuses plugins that are backing off
    or blocklisted (raising
    :class:`~repro.core.containment.PluginQuarantined`)."""

    def __init__(self, quarantine: Optional[QuarantineRegistry] = None) -> None:
        self._plugins: dict[str, Plugin] = {}
        self.quarantine = quarantine
        #: Instantiations that found the plugin's code loaded in the
        #: process / that had to load it first.
        self.hits = 0
        self.misses = 0

    def store(self, plugin: Plugin) -> None:
        """Add a plugin to the local cache (verifies its code once per
        process, shallowly unless it was analyzed already; code not yet
        compiled is compiled by the first connection that instantiates
        it)."""
        plugin.verify_all()
        self._plugins[plugin.name] = plugin

    def has(self, name: str) -> bool:
        return name in self._plugins

    def get(self, name: str) -> Optional[Plugin]:
        return self._plugins.get(name)

    @property
    def names(self) -> list:
        return sorted(self._plugins)

    def instantiate(self, name: str, conn) -> PluginInstance:
        """A fresh instance of a cached plugin for ``conn``: new heap and
        VM shells around the code the process loaded once."""
        plugin = self._plugins.get(name)
        if plugin is None:
            raise KeyError(f"plugin {name!r} not in cache")
        if self.quarantine is not None:
            self.quarantine.check(name, getattr(conn, "now", 0.0))
        if plugin.loaded:
            self.hits += 1
        else:
            self.misses += 1
        return PluginInstance(plugin, conn)


class FieldPolicy:
    """Host policy over plugin field access (§2.3: "a host could reject
    plugins based on the fields that it wishes to access")."""

    def __init__(self, forbidden_reads: Optional[set] = None,
                 forbidden_writes: Optional[set] = None):
        self.forbidden_reads = forbidden_reads or set()
        self.forbidden_writes = forbidden_writes or set()

    def check(self, plugin_name: str, field_name: str, write: bool) -> None:
        from .api import ApiViolation

        if write and field_name in self.forbidden_writes:
            raise ApiViolation(
                f"policy forbids plugin {plugin_name} writing {field_name}"
            )
        if not write and field_name in self.forbidden_reads:
            raise ApiViolation(
                f"policy forbids plugin {plugin_name} reading {field_name}"
            )
