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
A plugin's anchors are content, not connection state: an
:class:`AnchorSet` holds them once per plugin content, with behaviours
that reach the connection's instance through the connection they are
called with, and :meth:`ProtoopTable.attach_set` splices the whole set
into a table as one change.  What a sequence of anchor sets puts on a
census (a :class:`_Splice`) and the call plans it makes are kept once
per census and sequence: every table of the census that attached the
same plugin contents in the same order runs the same plans, whether the
operation is touched by a plugin or not.  Only the re-entry guards, and
the plans of operations the table registered or attached something to
itself, are each table's own.  Any group of registrations and attaches
made inside :meth:`ProtoopTable.batch` is one change too.
"""

from __future__ import annotations

import enum
from contextlib import contextmanager
from dataclasses import dataclass, field
from operator import itemgetter
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
    nothing connection-specific is attached to is built once per census
    and anchor-set sequence and shared by every table of it.  ``slot``
    indexes the re-entry guard of the plan's (protoop, parameter) in
    each table's own guard list."""

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


class AnchorSet:
    """The anchors of one plugin content: ``(name, anchor, func, param,
    external)`` rows whose behaviours hold nothing of a connection.  Made
    once per content and spliced whole into a table
    (:meth:`ProtoopTable.attach_set`); its identity names the content in
    the splices built from it."""

    __slots__ = ("rows",)

    def __init__(self, rows) -> None:
        self.rows = tuple(rows)


#: Positions of the pre chain, the replacement and the post chain in the
#: anchors a splice holds per (name, key).
_PRE, _REPLACE, _POST = 0, 1, 2
_NOTHING = ((), None, ())

#: Most sequences a splice keeps below it, one per next anchor set.
MAX_SPLICES = 64


class _Splice:
    """What a sequence of anchor sets puts on the operations of one
    census, kept once per census and sequence: the anchors per (name,
    key), the operations the sets introduced, and the plans built from
    them — shared by every table of the census that attached the same
    sets in the same order.  The root (no set) holds the census's plans
    of its own operations; :meth:`child` walks to a longer sequence."""

    __slots__ = ("parent", "anchors", "own", "ops", "params", "plans",
                 "_rows", "_children")

    def __init__(self, rows: dict, plans: Optional[dict] = None,
                 parent: Optional["_Splice"] = None,
                 layer: Optional[AnchorSet] = None) -> None:
        self._rows = rows
        self.parent = parent
        self._children: dict = {}
        #: (name, key) -> (pre chain, replacement, post chain) of the
        #: whole sequence, and of its last set alone.
        self.anchors: dict = dict(parent.anchors) if parent else {}
        self.own: dict = {}
        #: Rows of the operations the sets introduced (flags only).
        self.ops: dict = dict(parent.ops) if parent else {}
        if layer is not None:
            self._add(layer)
        #: name -> the keys the sets anchored something at.
        self.params: dict = {}
        for name, key in self.anchors:
            self.params.setdefault(name, set()).add(key)
        #: run key -> plan, for the tables at this splice: the root's are
        #: the census's own, a child's its parent's less those of the
        #: operations its set touches.
        self.plans: dict = plans if parent is None else {
            run_key: plan for run_key, plan in parent.plans.items()
            if ((run_key, None) if type(run_key) is str else run_key)
            not in self.own}

    def _add(self, layer: AnchorSet) -> None:
        anchors, own, ops = self.anchors, self.own, self.ops
        for name, anchor, func, param, external in layer.rows:
            op = self._rows.get(name) or ops.get(name)
            if op is None:
                op = ops[name] = ProtocolOperation(
                    name, parameterized=param is not None, external=external)
            pair = (name, param if op.parameterized else None)
            for entries in (own, anchors):
                pre, replace, post = entries.get(pair, _NOTHING)
                if anchor is Anchor.REPLACE:
                    if replace is not None:
                        raise ProtoopError(
                            TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                            f"protoop {name}[{param}] already replaced")
                    replace = func
                elif anchor is Anchor.PRE:
                    pre += (func,)
                else:
                    post += (func,)
                entries[pair] = (pre, replace, post)

    def child(self, layer: AnchorSet) -> "_Splice":
        """This sequence followed by ``layer``; raises
        :class:`ProtoopError` when it replaces what is replaced already."""
        splice = self._children.get(layer)
        if splice is None:
            splice = _Splice(self._rows, parent=self, layer=layer)
            if len(self._children) >= MAX_SPLICES:
                self._children.clear()
            self._children[layer] = splice
        return splice


class ProtoopTable:
    """Per-connection registry and dispatcher of protocol operations.

    Built on a *census* (the table of a connection class, whose defaults
    are that class's functions), a table is the census, the anchor sets
    of the plugins attached to it (:meth:`attach_set`) and what was
    registered or attached to it directly: its own rows hold only that
    last part, and neither a census row nor a plugin's anchors are
    copied.  Every behaviour is called with the connection first, so a
    census default (an ``_op_*`` method) runs as is, bound to nothing,
    and a plugin's behaviour finds its instance through the connection.
    The plan of an operation the table changed nothing on itself belongs
    to its census and anchor-set sequence, built once and shared by
    every table that attached the same plugin contents in the same
    order; each table keeps its own re-entry guards.  A census is not
    changed once tables are built on it, beyond numbering the guards of
    the operations its tables use and declaring the extension events
    they emit.
    """

    def __init__(self, census: Optional["ProtoopTable"] = None) -> None:
        #: The census rows (read-only here).
        self._shared: dict[str, ProtocolOperation] = (
            census._ops if census is not None else {})
        #: The rows this table owns: its registrations and attachments.
        self._ops: dict[str, ProtocolOperation] = {}
        self.runs = 0  # total protoop invocations (monitoring/benchmarks)
        #: As a census: the plans of its rows with nothing attached,
        #: shared by its tables (filled by whichever runs an operation
        #: first); per operation the one plan of every parameter it has
        #: no default for, and of every extension event nothing observes
        #: (nothing runs there); the extension events its tables emitted,
        #: declared once; and the root of its splices.
        self._class_plans: dict = {}
        self._null_plans: dict = {}
        self._extensions: dict = {}
        self._splices: Optional[_Splice] = None
        self._census_nulls: dict = (
            census._null_plans if census is not None else {})
        self._census_events: dict = (
            census._extensions if census is not None else self._extensions)
        #: The anchor sets attached, in order — ``[owner, set, seq]`` —
        #: and the splice they make on the census, from its root (whose
        #: plans are the census's own).
        self._base: _Splice = (census._splice_root() if census is not None
                               else _Splice({}, {}))
        self._splice: _Splice = self._base
        self._layers: list = []
        #: Attach order of the anchor sets and of the table's own pre /
        #: post anchors ((name, key, position) -> seq per function), which
        #: a chain mixing both follows.
        self._seq = 0
        self._own_seq: dict = {}
        #: Extension events this table emitted (listed in :attr:`names`).
        self._events: set = set()
        #: (name, key) -> index of its re-entry guard, one numbering per
        #: census so that shared plans can carry the index: the census's
        #: own operations first, then any other (name, key) a plan of one
        #: of its tables needs.  A parameter nothing is registered or
        #: attached at — e.g. a frame type off the wire — is numbered by
        #: no one.
        self._slots: dict = (census._numbered() if census is not None
                             else {(None, None): 0})
        #: Run keys of the operations this table registered or attached
        #: something to itself: their plans are the table's own.
        self._touched: set = set()
        #: Re-entry guards, by slot: set while the operation runs.  Never
        #: cleared, only grown in place: an operation stays "running"
        #: across a mid-run attach/detach/quarantine.
        self._running: list = [False] * len(self._slots)
        self._numbering: Optional[dict] = None  # see _numbered
        #: Dispatch cache: one :class:`CallPlan` per (name, param), keyed
        #: by ``name`` alone when ``param is None`` so the common run
        #: builds no tuple.  A plan found here is current: every anchor
        #: change empties it, and the next miss refills it with the
        #: shared plans (:meth:`_refill`).
        self._plans: dict = self._base.plans.copy()
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
        """Start the epoch's plans from the shared ones of the table's
        splice, less those of the operations the table changed."""
        if self._count_runs:
            plans = self._plans = {}
        else:
            splice = self._splice
            plans = self._plans = splice.plans.copy()
            for run_key in self._touched:
                plans.pop(run_key, None)
            clash = splice.ops.keys() & self._ops.keys()
            if clash:  # operations a set introduced and the table owns
                for run_key in [k for k in plans if (
                        k if type(k) is str else k[0]) in clash]:
                    del plans[run_key]
        self._stale = False
        self._fit_guards()

    def _numbered(self) -> dict:
        """As a census: the guard slot of each (name, key) its tables
        guard — its own operations (the parameters it has defaults for,
        or None) numbered when the first table is built on it, then any
        other in the order its tables first need one.  Slot 0 is no
        operation's: the null plans carry it, and nothing ever sets it."""
        if self._numbering is None:
            pairs = [(None, None)] + [
                (name, key) for name, op in self._ops.items()
                for key in (op.defaults if op.parameterized else (None,))]
            self._numbering = {pair: slot for slot, pair in enumerate(pairs)}
        return self._numbering

    def _splice_root(self) -> _Splice:
        """As a census: the splice of no anchor set, holding its plans."""
        if self._splices is None:
            self._splices = _Splice(self._ops, self._class_plans)
        return self._splices

    def _fit_guards(self) -> None:
        missing = len(self._slots) - len(self._running)
        if missing > 0:
            self._running.extend([False] * missing)

    def _slot(self, name: str, key: Any) -> int:
        slots = self._slots
        slot = slots.get((name, key))
        if slot is None:
            slot = slots[(name, key)] = len(slots)
        return slot

    def _next_seq(self) -> int:
        self._seq += 1
        return self._seq

    def _touch(self, name: str, key: Any) -> None:
        """This table now has its own anchors or default on an
        operation: its plan is the table's own from the next epoch on."""
        self._touched.add(name if key is None else (name, key))

    def _row(self, name: str) -> Optional[ProtocolOperation]:
        """The row stating what *name* is (parameterized, external): the
        table's own, the census's, an attached set's or an extension
        event's; None for a name the table does not know."""
        row = self._ops.get(name) or self._shared.get(name) \
            or self._splice.ops.get(name)
        if row is None and name in self._events:
            row = self._census_events[name]
        return row

    def _known(self, name: str) -> ProtocolOperation:
        row = self._row(name)
        if row is None:
            raise ProtoopError(TransportErrorCode.INTERNAL_ERROR,
                               f"unknown protoop {name!r}")
        return row

    def _behavior(self, name: str, key: Any) -> Optional[Callable]:
        """What runs for *name*[*key*] now: the replacement, else the
        default this table registered, else the census default."""
        own = self._ops.get(name)
        if own is not None:
            func = own.replacements.get(key)
            if func is not None:
                return func
        func = self._splice.anchors.get((name, key), _NOTHING)[_REPLACE]
        if func is not None:
            return func
        if own is not None:
            func = own.defaults.get(key)
            if func is not None:
                return func
        row = self._shared.get(name)
        return None if row is None else row.defaults.get(key)

    def _chain(self, name: str, key: Any, position: int) -> tuple:
        """The pre (``_PRE``) or post (``_POST``) chain of *name*[*key*]:
        the table's own observers and the attached sets', in the order
        they were attached."""
        own = self._ops.get(name)
        funcs = () if own is None else (
            own.pre if position == _PRE else own.post).get(key, ())
        spliced = self._splice.anchors.get((name, key), _NOTHING)[position]
        if not spliced:
            return tuple(funcs)
        if not funcs:
            return spliced
        seqs = self._own_seq.get((name, key, position), ())
        if len(seqs) != len(funcs):  # the row was edited in place
            seqs = [0] * len(funcs)
        items = list(zip(seqs, funcs))
        node = self._splice
        for _owner, _anchors, seq in reversed(self._layers):
            mine = node.own.get((name, key))
            if mine:
                items += [(seq, func) for func in mine[position]]
            node = node.parent
        items.sort(key=itemgetter(0))  # stable: a set's own order stays
        return tuple(func for _, func in items)

    def _post(self, name: str, key: Any) -> tuple:
        return self._chain(name, key, _POST)

    def _build_plan(self, name: str, param: Any) -> CallPlan:
        run_key = name if param is None else (name, param)
        if self._stale:
            self._refill()
            plan = self._plans.get(run_key)
            if plan is not None:
                return plan
        op = self._known(name)
        row = self._shared.get(name)
        key = param if op.parameterized else None
        plan = None
        if not self._count_runs and run_key not in self._touched \
                and (row is not None or name not in self._ops) \
                and (param is None or op.parameterized):
            plan = self._shared_plan(name, key, run_key, op, row)
        if plan is None:
            pre = self._chain(name, key, _PRE)
            if self._count_runs:
                counts = self.run_counts

                def count_run(conn, args, _name=name):
                    counts[_name] = counts.get(_name, 0) + 1

                pre = (count_run,) + pre
            plan = CallPlan(name, key, pre, self._behavior(name, key),
                            self._chain(name, key, _POST), op.external,
                            self._slot(name, key))
            self.plan_builds += 1
        self._plans[run_key] = plan
        self._fit_guards()
        return plan

    def _shared_plan(self, name: str, key: Any, run_key: Any,
                     op: ProtocolOperation,
                     row: Optional[ProtocolOperation]) -> Optional[CallPlan]:
        """The plan of *name*[*key*] every table at this table's splice
        shares — None when there is none to share."""
        splice = self._splice
        spliced = splice.anchors.get((name, key))
        if spliced is not None:
            plan = splice.plans.get(run_key)
            if plan is None:
                behavior = spliced[_REPLACE] or (
                    None if row is None else row.defaults.get(key))
                plan = splice.plans[run_key] = CallPlan(
                    name, key, spliced[_PRE], behavior, spliced[_POST],
                    op.external, self._slot(name, key))
                self.plan_builds += 1
            return plan
        if row is not None and (key in row.defaults or not row.parameterized):
            plan = self._base.plans.get(run_key)
            if plan is None:
                plan = self._base.plans[run_key] = CallPlan(
                    name, key, (), row.defaults.get(key), (), row.external,
                    self._slot(name, key))
                self.plan_builds += 1
            if splice is not self._base:
                splice.plans[run_key] = plan
            return plan
        if row is not None or (name in self._events
                               and name not in splice.ops):
            # A parameter the census has no default for, or an extension
            # event, with nothing at it — e.g. a frame type off the wire:
            # one shared plan per operation, so the census does not grow
            # with them.
            plan = self._census_nulls.get(name)
            if plan is None:
                plan = self._census_nulls[name] = CallPlan(
                    name, None, (), None, (), op.external, 0)
                self.plan_builds += 1
            return plan
        return None

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
        own = self._ops.get(name)
        known = own or self._row(name)
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
                    name, known.parameterized, known.external, known.doc)
            own.defaults[key] = func
            self._touch(name, key)
            if known is not None and not self._deferring:
                # A new name has no plan yet: nothing to drop.
                self._invalidate()
        return own or known

    def declare(self, name: str, parameterized: bool = False, doc: str = "") -> ProtocolOperation:
        """Declare an empty-anchor protoop: a pure event hook with no
        default behaviour (§2.2, fourth category)."""
        return self.register(name, None, parameterized=parameterized, doc=doc)

    def get(self, name: str) -> ProtocolOperation:
        """The row of *name* holding this table's registrations and
        anchors — the census row itself while the table has none (read
        it, never change it).  While an attached plugin has anchors on
        *name* it is a fresh copy showing them too, not kept."""
        row = self._known(name)
        keys = self._splice.params.get(name)
        if keys is None:
            return row
        op = ProtocolOperation(name, row.parameterized, row.external, row.doc)
        for source in (self._shared.get(name), self._ops.get(name)):
            if source is not None:
                op.defaults.update(source.defaults)
                keys = keys | source.params()
        own = self._ops.get(name)
        for key in keys:
            replacement = (own and own.replacements.get(key)) or \
                self._splice.anchors.get((name, key), _NOTHING)[_REPLACE]
            if replacement is not None:
                op.replacements[key] = replacement
            for position, chains in ((_PRE, op.pre), (_POST, op.post)):
                chain = self._chain(name, key, position)
                if chain:
                    chains[key] = list(chain)
        return op

    def default(self, name: str, param: Any = None) -> Optional[Callable]:
        """The built-in behaviour of *name*[*param*] — what runs when no
        pluglet replaces it — or None for an event hook.  A census
        default is the class's function, called with the connection."""
        key = param if self._known(name).parameterized else None
        own = self._ops.get(name)
        if own is not None and key in own.defaults:
            return own.defaults[key]
        row = self._shared.get(name)
        return None if row is None else row.defaults.get(key)

    def _all_names(self) -> set:
        return (self._shared.keys() | self._ops.keys()
                | self._splice.ops.keys() | self._events)

    @property
    def names(self) -> list[str]:
        return sorted(self._all_names())

    def operation_count(self) -> int:
        return len(self._all_names())

    def parameterized_count(self) -> int:
        return sum(self._row(name).parameterized for name in self._all_names())

    # --- pluglet attachment -------------------------------------------------

    def attach(
        self,
        name: str,
        anchor: Anchor,
        func: Callable,
        param: Any = None,
        external: bool = False,
    ) -> None:
        """Attach a behaviour of this table's own. New protoops (or new
        parameter values of existing ones) are created on the fly — PQUIC
        is "extensible by design" (§2.3)."""
        op = self._ops.get(name)
        if op is None:
            row = self._row(name)
            op = self._ops[name] = (
                ProtocolOperation(name, row.parameterized, row.external,
                                  row.doc) if row is not None else
                ProtocolOperation(name=name, parameterized=param is not None,
                                  external=external))
        key = param if op.parameterized else None
        if anchor is Anchor.REPLACE:
            if key in op.replacements or self._splice.anchors.get(
                    (name, key), _NOTHING)[_REPLACE] is not None:
                raise ProtoopError(
                    TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                    f"protoop {name}[{param}] already replaced",
                )
            op.replacements[key] = func
        else:
            position, chains = ((_PRE, op.pre) if anchor is Anchor.PRE
                                else (_POST, op.post))
            chains.setdefault(key, []).append(func)
            self._own_seq.setdefault((name, key, position), []).append(
                self._next_seq())
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
        else:
            position, chains = ((_PRE, op.pre) if anchor is Anchor.PRE
                                else (_POST, op.post))
            funcs = chains.get(key)
            if funcs and func in funcs:
                index = funcs.index(func)
                del funcs[index]
                seqs = self._own_seq.get((name, key, position))
                if seqs is not None and index < len(seqs):
                    del seqs[index]
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

    def attach_set(self, owner: Any, anchors: AnchorSet) -> None:
        """Splice a plugin's anchor set in after those attached, as one
        change, on behalf of ``owner`` (what :meth:`detach_set` names).
        Raises :class:`ProtoopError`, changing nothing, when it replaces
        an operation something replaces already."""
        splice = self._splice.child(anchors)
        for name, op in self._ops.items():
            for key in op.replacements:
                if splice.own.get((name, key), _NOTHING)[_REPLACE]:
                    raise ProtoopError(
                        TransportErrorCode.PLUGIN_VALIDATION_FAILED,
                        f"protoop {name}[{key}] already replaced")
        self._layers.append([owner, anchors, self._next_seq()])
        self._splice = splice
        if not self._deferring:
            self._invalidate()

    def detach_set(self, owner: Any) -> None:
        """Take out the anchor set ``owner`` attached, if it attached
        one, as one change."""
        for index, layer in enumerate(self._layers):
            if layer[0] is owner:
                break
        else:
            return
        del self._layers[index]
        splice = self._base
        for _owner, anchors, _seq in self._layers:
            splice = splice.child(anchors)
        for name, row in self._splice.ops.items():
            if name not in splice.ops and name not in self._ops:
                # An operation the set introduced stays known, with
                # nothing at it, as an attach of the table's own leaves it.
                self._ops[name] = ProtocolOperation(
                    name, row.parameterized, row.external, row.doc)
        self._splice = splice
        if not self._deferring:
            self._invalidate()

    # --- dispatch ----------------------------------------------------------

    def known_params(self, name: str) -> frozenset:
        """Cached ``op.params()`` — the per-call set construction on frame
        dispatch paths is replaced by one dict hit."""
        params = self._params_cache.get(name)
        if params is None:
            keys = set(self._splice.params.get(name, ()))
            for op in (self._ops.get(name), self._shared.get(name)):
                if op is not None:
                    keys |= op.params()
            if not keys:
                self._known(name)
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
            spliced = self._splice.params
            ops = [self._ops[name] for name in names if name in self._ops]
            verdict = self._untouched[names] = not self._count_runs and not any(
                name in spliced for name in names) and not any(
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
        emits it never counts it.  One with no default is declared once
        per census and only listed per table: emitting it makes no row."""
        if default is not None:
            if self._row(name) is None or self.default(name) is None:
                self.register(name, default)
        elif self._row(name) is None:
            if name not in self._census_events:
                self._census_events[name] = ProtocolOperation(name)
            self._events.add(name)
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
