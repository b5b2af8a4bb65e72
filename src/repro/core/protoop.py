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
"""

from __future__ import annotations

import enum
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


class _Guard:
    """Re-entry guard of one (protoop, parameter): set while it runs."""

    __slots__ = ("running",)

    def __init__(self) -> None:
        self.running = False


class CallPlan:
    """Everything one run of a (protoop, parameter) needs, resolved once
    per epoch: the anchors as they stood when the plan was built, plus
    the facts the dispatcher would otherwise recompute on every run."""

    __slots__ = ("op", "key", "pre", "behavior", "post",
                 "external", "bare", "epoch", "guard")

    def __init__(self, op: ProtocolOperation, key: Any, pre: tuple,
                 behavior: Optional[Callable], post: tuple, epoch: int,
                 guard: _Guard) -> None:
        self.op = op
        self.key = key
        self.pre = pre
        self.behavior = behavior
        self.post = post
        self.external = op.external
        self.bare = not pre and not post  # nothing observes this run
        self.epoch = epoch
        self.guard = guard


class ProtoopTable:
    """Per-connection registry and dispatcher of protocol operations."""

    def __init__(self) -> None:
        self._ops: dict[str, ProtocolOperation] = {}
        self.runs = 0  # total protoop invocations (monitoring/benchmarks)
        #: Dispatch cache: one :class:`CallPlan` per (name, param), keyed
        #: by ``name`` alone when ``param is None`` so the common run
        #: builds no tuple.  Invalidated as a whole whenever any anchor
        #: changes (register/attach/detach): a plan found here was built
        #: at the current epoch.
        self._plans: dict = {}
        #: (name, key) -> re-entry guard.  Never cleared: an operation
        #: stays "running" across a mid-run attach/detach/quarantine.
        self._guards: dict = {}
        self._params_cache: dict[str, frozenset] = {}
        #: names tuple -> :meth:`untouched` verdict, dropped with the plans.
        self._untouched: dict[tuple, bool] = {}
        self._epoch = 0  # bumped on every invalidation
        self.plan_builds = 0  # cache fills (tests/monitoring)
        #: Per-operation run counts, populated only after
        #: :meth:`enable_run_counting` (profiling) — the default dispatch
        #: path carries no counting branch.
        self.run_counts: dict[str, int] = {}
        self._count_runs = False  # whether plans embed a counting observer

    def _invalidate(self) -> None:
        """Drop every cached call plan (an anchor or default changed)."""
        self._epoch += 1
        self._plans.clear()
        self._params_cache.clear()
        self._untouched.clear()

    def _build_plan(self, name: str, param: Any) -> CallPlan:
        op = self.get(name)
        key = param if op.parameterized else None
        guard = self._guards.get((name, key))
        if guard is None:
            guard = self._guards[(name, key)] = _Guard()
        pre = tuple(op.pre.get(key, ()))
        if self._count_runs:
            counts = self.run_counts

            def count_run(conn, args, _name=name):
                counts[_name] = counts.get(_name, 0) + 1

            pre = (count_run,) + pre
        plan = CallPlan(op, key, pre, op.behavior(key),
                        tuple(op.post.get(key, ())), self._epoch, guard)
        self._plans[name if param is None else (name, param)] = plan
        self.plan_builds += 1
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
        op = self._ops.get(name)
        if op is None:
            op = ProtocolOperation(
                name=name, parameterized=parameterized, external=external,
                doc=doc or (func.__doc__ or "" if func else ""),
            )
            self._ops[name] = op
        else:
            if op.parameterized != parameterized:
                raise ValueError(
                    f"protoop {name}: parameterized mismatch on re-registration"
                )
        if not parameterized and param is not None:
            raise ValueError(f"protoop {name} is not parameterized")
        if func is not None:
            key = param if parameterized else None
            if key in op.defaults:
                raise ValueError(f"protoop {name}[{param}] already has a default")
            op.defaults[key] = func
        self._invalidate()
        return op

    def declare(self, name: str, parameterized: bool = False, doc: str = "") -> ProtocolOperation:
        """Declare an empty-anchor protoop: a pure event hook with no
        default behaviour (§2.2, fourth category)."""
        return self.register(name, None, parameterized=parameterized, doc=doc)

    def exists(self, name: str) -> bool:
        return name in self._ops

    def get(self, name: str) -> ProtocolOperation:
        try:
            return self._ops[name]
        except KeyError:
            raise ProtoopError(
                TransportErrorCode.INTERNAL_ERROR, f"unknown protoop {name!r}"
            )

    @property
    def names(self) -> list[str]:
        return sorted(self._ops)

    def operation_count(self) -> int:
        return len(self._ops)

    def parameterized_count(self) -> int:
        return sum(1 for op in self._ops.values() if op.parameterized)

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
            op = ProtocolOperation(
                name=name, parameterized=param is not None, external=external
            )
            self._ops[name] = op
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
        self._invalidate()

    # --- dispatch ----------------------------------------------------------

    def known_params(self, name: str) -> frozenset:
        """Cached ``op.params()`` — the per-call set construction on frame
        dispatch paths is replaced by one dict hit."""
        params = self._params_cache.get(name)
        if params is None:
            params = frozenset(self.get(name).params())
            self._params_cache[name] = params
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
        guard = plan.guard
        if guard.running:
            raise ProtoopError(
                TransportErrorCode.PLUGIN_LOOP_DETECTED,
                f"protocol operation loop through {name}[{param}]",
            )
        self.runs += 1
        behavior = plan.behavior
        bare = plan.bare
        if bare and behavior is None:
            return None  # an event nobody observes
        guard.running = True
        try:
            if bare:
                result = behavior(conn, *args)
                # Post anchors are resolved after the behaviour ran: one
                # it attached itself must still fire.
                if self._epoch != plan.epoch:
                    for observer in tuple(plan.op.post.get(plan.key, ())):
                        observer(conn, args, result)
                return result
            # The plan snapshots are exactly the copies an uncached
            # dispatcher would iterate over; if a failing pluglet detaches
            # its plugin mid-run the epoch moves and we re-resolve the
            # stale parts, matching the anchor-by-anchor timeline.
            epoch = plan.epoch
            post_chain = plan.post
            for observer in plan.pre:  # passive, read-only
                observer(conn, args)
            if self._epoch != epoch:
                behavior = plan.op.behavior(plan.key)
            result = behavior(conn, *args) if behavior is not None else None
            if self._epoch != epoch:
                post_chain = tuple(plan.op.post.get(plan.key, ()))
            for observer in post_chain:
                observer(conn, args, result)
            return result
        finally:
            guard.running = False

    def run_external(self, conn, name: str, param: Any = None, *args: Any) -> Any:
        """Entry point for the application (§2.4)."""
        return self.run(conn, name, param, *args, _from_app=True)

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
