"""Protocol operations: the gray-box interface of PQUIC (§2.2, §2.3).

A protocol operation (protoop) is a named, specified subroutine of the
protocol workflow.  Each protoop exposes three anchors:

* ``replace`` — the actual implementation; by default the built-in
  function, overridable by at most one pluglet per (protoop, parameter);
* ``pre`` / ``post`` — passive observation points run just before/after
  the operation, any number of pluglets, read-only access.

Parameterized protoops (e.g. ``process_frame``) have one behaviour per
parameter value (the frame type), which is how plugins introduce entirely
new frames without touching callers.  Protoops may also be *external*:
callable only by the application (§2.4), the channel through which plugins
extend the application-facing API.

Combining plugins must not create call loops (Figure 3): every
(protoop, parameter) has a re-entry guard that is set while the operation
runs, and the table aborts the connection if a running operation is
entered again.

A connection pays only for what it changes.  Its table is its class's
*census* — the operations and built-in defaults every connection of the
class shares — plus what was registered or attached to that connection.
The call plan of an operation nothing is attached to is built once per
census and shared by all of its tables; only the re-entry guards are
each table's own.  Attaching a whole plugin is one change
(:meth:`ProtoopTable.attach_all`), and so is any group of registrations
and attaches made inside :meth:`ProtoopTable.batch`.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import TransportError, TransportErrorCode


class Anchor(enum.Enum):
    """Pluglet insertion points on a protocol operation."""

    REPLACE = "replace"
    PRE = "pre"
    POST = "post"


class ProtoopError(TransportError):
    """Raised when the protoop machinery must kill the connection."""

    def __init__(self, code: TransportErrorCode, reason: str):
        super().__init__(code, reason)


@dataclass
class ProtocolOperation:
    """One protocol operation and everything attached to it."""

    name: str
    parameterized: bool = False
    external: bool = False
    doc: str = ""
    #: Built-in behaviour per parameter (key None when not parameterized).
    defaults: dict = field(default_factory=dict)
    #: Pluglet overriding the behaviour, per parameter.
    replacements: dict = field(default_factory=dict)
    pre: dict = field(default_factory=dict)
    post: dict = field(default_factory=dict)

    def params(self) -> set:
        keys = set(self.defaults) | set(self.replacements)
        keys |= set(self.pre) | set(self.post)
        return keys

    def behavior(self, param: Any) -> Optional[Callable]:
        if param in self.replacements:
            return self.replacements[param]
        return self.defaults.get(param)


class CallPlan:
    """Everything one run of a (protoop, parameter) needs, resolved once
    per epoch: the anchors as they stood when the plan was built, plus
    the facts the dispatcher would otherwise recompute on every run.

    A plan holds nothing of a connection, so the plan of an operation
    with nothing attached is built once per census and shared by every
    table of it.  ``slot`` indexes the re-entry guard of the plan's
    (protoop, parameter) in each table's own guard list."""

    __slots__ = ("name", "key", "pre", "behavior", "post",
                 "external", "bare", "slot")

    def __init__(self, name: str, key: Any, pre: tuple,
                 behavior: Optional[Callable], post: tuple, external: bool,
                 slot: int) -> None:
        self.name = name
        self.key = key
        self.pre = pre
        self.behavior = behavior
        self.post = post
        self.external = external
        self.bare = not pre and not post  # nothing observes this run
        self.slot = slot


class ProtoopTable:
    """Per-connection registry and dispatcher of protocol operations.

    Built on a *census* (the table of a connection class, whose defaults
    are that class's functions), a table is the census plus what was
    registered or attached to it: its own rows hold only that, and a
    census row is never copied.  Every behaviour is called with the
    connection first, so a census default (an ``_op_*`` method) runs as
    is, bound to nothing.  The plan of an operation the table changed
    nothing on is the census's, built once and shared by every table of
    it; each table keeps its own re-entry guards.  A census is not
    changed once tables are built on it.
    """

    def __init__(self, census: Optional["ProtoopTable"] = None) -> None:
        #: The census rows (read-only here).
        self._shared: dict[str, ProtocolOperation] = (
            census._ops if census is not None else {})
        #: The rows this table owns: its registrations and attachments.
        self._ops: dict[str, ProtocolOperation] = {}
        self.runs = 0  # total protoop invocations (monitoring/benchmarks)
        #: Plans of the census rows with nothing attached, shared by the
        #: census's tables (filled by whichever runs an operation first),
        #: and per parameterized operation the one plan of every
        #: parameter it has no default for (nothing runs there).
        self._class_plans: dict = {}
        self._null_plans: dict = {}
        self._census_plans: dict = (
            census._class_plans if census is not None else {})
        self._census_nulls: dict = (
            census._null_plans if census is not None else {})
        #: (name, key) -> index of its re-entry guard: the census numbers
        #: its own operations once, so that shared plans can carry the
        #: index; any other (name, key) — an extension event, a parameter
        #: the census has no default for, such as a frame type off the
        #: wire — is numbered by the table, after those.
        self._census_slots: dict = (
            census._numbered() if census is not None else {})
        self._own_slots: dict = {}
        #: Run keys of the census operations this table registered or
        #: attached something to: their plans are the table's own.
        self._touched: set = set()
        #: Re-entry guards, by slot: set while the operation runs.  Never
        #: cleared, only grown in place: an operation stays "running"
        #: across a mid-run attach/detach/quarantine.
        self._running: list = [False] * len(self._census_slots)
        self._numbering: Optional[dict] = None  # see _numbered
        #: Dispatch cache: one :class:`CallPlan` per (name, param), keyed
        #: by ``name`` alone when ``param is None`` so the common run
        #: builds no tuple.  A plan found here is current: every anchor
        #: change empties it, and the next miss refills it with the
        #: shared plans (:meth:`_refill`).
        self._plans: dict = self._census_plans.copy()
        self._stale = False
        self._params_cache: dict[str, frozenset] = {}
        #: names tuple -> :meth:`untouched` verdict, dropped with the plans.
        self._untouched: dict[tuple, bool] = {}
        self._epoch = 0  # bumped on every invalidation
        self._deferring = False  # inside batch()
        self.plan_builds = 0  # plans built here, shared or own (tests)
        #: Per-operation run counts, populated only after
        #: :meth:`enable_run_counting` (profiling) — the default dispatch
        #: path carries no counting branch.
        self.run_counts: dict[str, int] = {}
        self._count_runs = False  # whether plans embed a counting observer

    def _invalidate(self) -> None:
        """Drop every cached call plan (an anchor or default changed)."""
        self._epoch += 1
        self._plans = {}
        self._stale = True
        self._params_cache.clear()
        self._untouched.clear()

    def _refill(self) -> None:
        """Start the epoch's plans from the census's shared ones, less
        those of the operations this table changed."""
        plans = self._plans = {} if self._count_runs \
            else self._census_plans.copy()
        for run_key in self._touched:
            plans.pop(run_key, None)
        self._stale = False
        self._fit_guards()

    def _numbered(self) -> dict:
        """As a census: the guard slot of each of its (name, key) — the
        parameters it has defaults for, or None — numbered once, when the
        first table is built on it.  Slot 0 is no operation's: the null
        plans carry it, and nothing ever sets it."""
        if self._numbering is None:
            pairs = [(None, None)] + [
                (name, key) for name, op in self._ops.items()
                for key in (op.defaults if op.parameterized else (None,))]
            self._numbering = {pair: slot for slot, pair in enumerate(pairs)}
        return self._numbering

    def _fit_guards(self) -> None:
        missing = (len(self._census_slots) + len(self._own_slots)
                   - len(self._running))
        if missing > 0:
            self._running.extend([False] * missing)

    def _slot(self, name: str, key: Any) -> int:
        slot = self._census_slots.get((name, key))
        if slot is None:
            slot = self._own_slots.get((name, key))
            if slot is None:
                slot = self._own_slots[(name, key)] = (
                    len(self._census_slots) + len(self._own_slots))
        return slot

    def _touch(self, name: str, key: Any) -> None:
        """This table now has its own anchors or default on a census
        operation: its plan is the table's own from the next epoch on."""
        if name in self._shared:
            self._touched.add(name if key is None else (name, key))

    def _behavior(self, name: str, key: Any) -> Optional[Callable]:
        """What runs for *name*[*key*] now: the replacement, else the
        default this table registered, else the census default."""
        own = self._ops.get(name)
        if own is not None:
            func = own.replacements.get(key) or own.defaults.get(key)
            if func is not None:
                return func
        row = self._shared.get(name)
        return None if row is None else row.defaults.get(key)

    def _post(self, name: str, key: Any) -> tuple:
        own = self._ops.get(name)
        return () if own is None else tuple(own.post.get(key, ()))

    def _build_plan(self, name: str, param: Any) -> CallPlan:
        run_key = name if param is None else (name, param)
        if self._stale:
            self._refill()
            plan = self._plans.get(run_key)
            if plan is not None:
                return plan
        row = self._shared.get(name)
        op = self._ops.get(name) or row or self.get(name)
        key = param if op.parameterized else None
        slot = self._census_slots.get((name, key))
        shared = row is not None and not self._count_runs
        if shared and slot is not None and run_key not in self._touched \
                and (param is None or row.parameterized):
            plan = self._census_plans.get(run_key)
            if plan is None:
                plan = self._census_plans[run_key] = CallPlan(
                    name, key, (), row.defaults.get(key), (), row.external,
                    slot)
                self.plan_builds += 1
        elif shared and slot is None and run_key not in self._touched:
            # A parameter the census has no default for and this table
            # nothing at — e.g. a frame type off the wire: one shared
            # plan per operation, so the census does not grow with them.
            plan = self._census_nulls.get(name)
            if plan is None:
                plan = self._census_nulls[name] = CallPlan(
                    name, None, (), None, (), row.external, 0)
                self.plan_builds += 1
        else:
            slot = self._slot(name, key)
            own = self._ops.get(name)
            pre = () if own is None else tuple(own.pre.get(key, ()))
            if self._count_runs:
                counts = self.run_counts

                def count_run(conn, args, _name=name):
                    counts[_name] = counts.get(_name, 0) + 1

                pre = (count_run,) + pre
            plan = CallPlan(name, key, pre, self._behavior(name, key),
                            self._post(name, key), op.external, slot)
            self.plan_builds += 1
        self._plans[run_key] = plan
        self._fit_guards()
        return plan

    # --- registration -----------------------------------------------------

    def register(
        self,
        name: str,
        func: Optional[Callable] = None,
        param: Any = None,
        parameterized: bool = False,
        external: bool = False,
        doc: str = "",
    ) -> ProtocolOperation:
        """Register a protoop, optionally with a built-in default behaviour.

        Calling again with a new ``param`` adds a behaviour to an existing
        parameterized operation.
        """
        row = self._shared.get(name)
        own = self._ops.get(name)
        known = own or row
        if known is None:
            own = self._ops[name] = ProtocolOperation(
                name=name, parameterized=parameterized, external=external,
                doc=doc or (func.__doc__ or "" if func else ""),
            )
        elif known.parameterized != parameterized:
            raise ValueError(
                f"protoop {name}: parameterized mismatch on re-registration"
            )
        if not parameterized and param is not None:
            raise ValueError(f"protoop {name} is not parameterized")
        if func is not None:
            key = param if parameterized else None
            if self.default(name, key) is not None:
                raise ValueError(f"protoop {name}[{param}] already has a default")
            if own is None:
                own = self._ops[name] = ProtocolOperation(
                    name, row.parameterized, row.external, row.doc)
            own.defaults[key] = func
            self._touch(name, key)
            if known is not None and not self._deferring:
                # A new name has no plan yet: nothing to drop.
                self._invalidate()
        return own or row

    def declare(self, name: str, parameterized: bool = False, doc: str = "") -> ProtocolOperation:
        """Declare an empty-anchor protoop: a pure event hook with no
        default behaviour (§2.2, fourth category)."""
        return self.register(name, None, parameterized=parameterized, doc=doc)

    def get(self, name: str) -> ProtocolOperation:
        """The row of *name* holding this table's registrations and
        anchors — the census row itself while the table has none (read
        it, never change it)."""
        op = self._ops.get(name) or self._shared.get(name)
        if op is None:
            raise ProtoopError(TransportErrorCode.INTERNAL_ERROR, f"unknown protoop {name!r}")
        return op

    def default(self, name: str, param: Any = None) -> Optional[Callable]:
        """The built-in behaviour of *name*[*param*] — what runs when no
        pluglet replaces it — or None for an event hook.  A census
        default is the class's function, called with the connection."""
        key = param if self.get(name).parameterized else None
        own = self._ops.get(name)
        if own is not None and key in own.defaults:
            return own.defaults[key]
        row = self._shared.get(name)
        return None if row is None else row.defaults.get(key)

    @property
    def names(self) -> list[str]:
        return sorted({**self._shared, **self._ops})

    def operation_count(self) -> int:
        return len({**self._shared, **self._ops})

    def parameterized_count(self) -> int:
        return sum(op.parameterized for op in {**self._shared, **self._ops}.values())

    # --- pluglet attachment -------------------------------------------------

    def attach(
        self,
        name: str,
        anchor: Anchor,
        func: Callable,
        param: Any = None,
        external: bool = False,
    ) -> None:
        """Attach a pluglet behaviour. New protoops (or new parameter values
        of existing ones) are created on the fly — PQUIC is "extensible by
        design" (§2.3)."""
        op = self._ops.get(name)
        if op is None:
            row = self._shared.get(name)
            op = self._ops[name] = (
                ProtocolOperation(name, row.parameterized, row.external,
                                  row.doc) if row is not None else
                ProtocolOperation(name=name, parameterized=param is not None,
                                  external=external))
        key = param if op.parameterized else None
        if anchor is Anchor.REPLACE:
            if key in op.replacements:
                raise ProtoopError(
                    TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                    f"protoop {name}[{param}] already replaced",
                )
            op.replacements[key] = func
        elif anchor is Anchor.PRE:
            op.pre.setdefault(key, []).append(func)
        else:
            op.post.setdefault(key, []).append(func)
        self._touch(name, key)
        if not self._deferring:
            self._invalidate()

    def detach(self, name: str, anchor: Anchor, func: Callable, param: Any = None) -> None:
        op = self._ops.get(name)
        if op is None:
            return
        key = param if op.parameterized else None
        if anchor is Anchor.REPLACE:
            if op.replacements.get(key) is func:
                del op.replacements[key]
        elif anchor is Anchor.PRE:
            if key in op.pre and func in op.pre[key]:
                op.pre[key].remove(func)
        else:
            if key in op.post and func in op.post[key]:
                op.post[key].remove(func)
        if not self._deferring:
            self._invalidate()

    @contextmanager
    def batch(self):
        """Make the registrations, attaches and detaches inside the
        ``with`` one change: the plans are dropped once, at its end —
        also when one of them raised."""
        self._deferring = True
        try:
            yield self
        finally:
            self._deferring = False
            self._invalidate()

    def attach_all(self, anchors: list) -> None:
        """Attach ``(name, anchor, func, param, external)`` anchors as one
        change (:meth:`batch`)."""
        with self.batch():
            for name, anchor, func, param, external in anchors:
                self.attach(name, anchor, func, param, external)

    def detach_all(self, anchors: list) -> None:
        """:meth:`detach` every anchor of :meth:`attach_all`'s list (one
        never attached is skipped) as one change."""
        with self.batch():
            for name, anchor, func, param, _external in anchors:
                self.detach(name, anchor, func, param)

    # --- dispatch ----------------------------------------------------------

    def known_params(self, name: str) -> frozenset:
        """Cached ``op.params()`` — the per-call set construction on frame
        dispatch paths is replaced by one dict hit."""
        params = self._params_cache.get(name)
        if params is None:
            keys = self.get(name).params()
            own, row = self._ops.get(name), self._shared.get(name)
            if own is not None and row is not None:
                keys |= row.params()
            params = self._params_cache[name] = frozenset(keys)
        return params

    def has_behavior(self, name: str, param: Any = None) -> bool:
        """Cached ``op.behavior(param) is not None``."""
        plan = self._plans.get(name if param is None else (name, param))
        if plan is None:
            plan = self._build_plan(name, param)
        return plan.behavior is not None

    def untouched(self, names: tuple) -> bool:
        """True while running any of *names* can do nothing but its
        built-in behaviour: no pre / post observer, no replacement, and
        run counting off.  Callers use it to skip a run whose default
        they can prove is a no-op; resolved once per epoch like a plan,
        so any attach / detach / quarantine re-opens the question."""
        verdict = self._untouched.get(names)
        if verdict is None:
            ops = [self._ops[name] for name in names if name in self._ops]
            verdict = self._untouched[names] = not self._count_runs and not any(
                op.replacements or any(op.pre.values()) or any(op.post.values())
                for op in ops)
        return verdict

    def run(self, conn, name: str, param: Any = None, *args: Any, _from_app: bool = False) -> Any:
        """Invoke a protoop: pre anchors, behaviour, post anchors.

        Raises :class:`ProtoopError` on re-entry (call-graph loop, Fig. 3)
        or when an external operation is invoked from within the protocol.
        """
        plan = self._plans.get(name if param is None else (name, param))
        if plan is None:
            plan = self._build_plan(name, param)
        if plan.external and not _from_app:
            raise ProtoopError(
                TransportErrorCode.PROTOCOL_VIOLATION,
                f"external protoop {name!r} called from protocol code",
            )
        running = self._running
        slot = plan.slot
        if running[slot]:
            raise ProtoopError(
                TransportErrorCode.PLUGIN_LOOP_DETECTED,
                f"protocol operation loop through {name}[{param}]",
            )
        self.runs += 1
        behavior = plan.behavior
        bare = plan.bare
        if bare and behavior is None:
            return None  # an event nobody observes
        running[slot] = True
        epoch = self._epoch
        try:
            if bare:
                result = behavior(conn, *args)
                # Post anchors are resolved after the behaviour ran: one
                # it attached itself must still fire.
                if self._epoch != epoch:
                    for observer in self._post(name, plan.key):
                        observer(conn, args, result)
                return result
            # The plan snapshots are exactly the copies an uncached
            # dispatcher would iterate over; if a failing pluglet detaches
            # its plugin mid-run the epoch moves and we re-resolve the
            # stale parts, matching the anchor-by-anchor timeline.
            post_chain = plan.post
            for observer in plan.pre:  # passive, read-only
                observer(conn, args)
            if self._epoch != epoch:
                behavior = self._behavior(name, plan.key)
            result = behavior(conn, *args) if behavior is not None else None
            if self._epoch != epoch:
                post_chain = self._post(name, plan.key)
            for observer in post_chain:
                observer(conn, args, result)
            return result
        finally:
            running[slot] = False

    def run_external(self, conn, name: str, param: Any = None, *args: Any) -> Any:
        """Entry point for the application (§2.4)."""
        return self.run(conn, name, param, *args, _from_app=True)

    def emit(self, conn, name: str, *args: Any,
             default: Optional[Callable] = None) -> Any:
        """Run an *extension* operation — one outside the paper's
        census (lifecycle, migration, fault and exchange events, the
        spurious-loss undo).  It is declared on its first run, with
        ``default`` as its behaviour if given, so a connection that never
        emits it never counts it."""
        if (name not in self._ops and name not in self._shared) or (
                default is not None and self.default(name) is None):
            self.register(name, default)
        return self.run(conn, name, None, *args)

    # --- profiling ---------------------------------------------------------

    def enable_run_counting(self) -> None:
        """Count runs per operation name into :attr:`run_counts`.

        Implemented by rebuilding call plans with a counting observer
        at the head of the pre chain — counting lives in the plan, the
        dispatcher itself carries no branch, so tables that never
        profile (or profiled and stopped) keep the zero-cost path.
        Method objects are never shadowed: an instance attribute over
        :meth:`run` would de-specialize CPython's per-instruction
        attribute caches for the whole dispatch loop.  Idempotent.
        """
        if self._count_runs:
            return
        self._count_runs = True
        self._invalidate()

    def disable_run_counting(self) -> None:
        if not self._count_runs:
            return
        self._count_runs = False
        self._invalidate()
