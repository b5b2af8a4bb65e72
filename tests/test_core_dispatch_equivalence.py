"""Differential test of the protoop dispatcher against a reference walker.

``ProtoopTable.run`` resolves a slotted plan, checks a per-operation
re-entry guard and returns early from events nobody observes.  What it
must *do* is defined by the plan walker it replaced: a tuple plan per
(name, param), a call stack scanned for re-entry, pre chain → behaviour
(re-resolved if the epoch moved) → post chain (re-resolved if the epoch
moved).  That walker lives on below as ``ReferenceTable`` and nowhere
else; random programs run on both tables and must produce the same call
log, results, error codes and ``runs``.

A program is a list of actions — ``register`` / ``declare`` / ``attach``
/ ``detach`` / ``run`` / ``run_external`` over a few plain,
parameterized and external operations.  The functions it registers and
attach have programs of their own as bodies, so behaviours and observers
run other operations, re-enter their own, attach and detach mid-run
(including themselves) and raise.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.protoop import Anchor, ProtoopError, ProtoopTable
from repro.errors import TransportErrorCode


class ReferenceTable(ProtoopTable):
    """The registry of ``ProtoopTable`` under the dispatcher it had
    before slotted plans: kept here as the specification."""

    def __init__(self):
        super().__init__()
        self.ref_stack = []
        self.ref_plans = {}
        self.ref_epoch = 0

    def _invalidate(self):
        super()._invalidate()
        self.ref_epoch += 1
        self.ref_plans.clear()

    def run(self, conn, name, param=None, *args, _from_app=False):
        epoch = self.ref_epoch
        plan = self.ref_plans.get((name, param))
        if plan is None:
            op = self.get(name)
            key = param if op.parameterized else None
            plan = self.ref_plans[(name, param)] = (
                op, key, tuple(op.pre.get(key, ())), op.behavior(key),
                tuple(op.post.get(key, ())))
        op, key, pre_chain, behavior, post_chain = plan
        if op.external and not _from_app:
            raise ProtoopError(TransportErrorCode.PROTOCOL_VIOLATION, name)
        if (name, key) in self.ref_stack:
            raise ProtoopError(TransportErrorCode.PLUGIN_LOOP_DETECTED, name)
        self.ref_stack.append((name, key))
        self.runs += 1
        try:
            for observer in pre_chain:
                observer(conn, args)
            if self.ref_epoch != epoch:
                behavior = op.behavior(key)
            result = behavior(conn, *args) if behavior is not None else None
            if self.ref_epoch != epoch:
                post_chain = tuple(op.post.get(key, ()))
            for observer in post_chain:
                observer(conn, args, result)
            return result
        finally:
            self.ref_stack.pop()


# --- programs ---------------------------------------------------------------

PLAIN = ("a", "b", "evt")          # evt: declared, no default behaviour
PARAMETERIZED = ("pf",)            # parameters 1 and 2
EXTERNAL = ("app", "app_evt")      # app_evt: external, no behaviour
NAMES = PLAIN + PARAMETERIZED + EXTERNAL + ("missing",)
PARAMS = (None, 1, 2)
MAX_STEPS = 300

#: An operation is a (name, param) pair.  Interesting programs touch one
#: operation several times (attach to it, re-enter it, detach from it
#: mid-run), so three actions in four aim at the program's *focus* —
#: written ``None`` in the action, resolved when the program runs.
OPERATION = st.tuples(st.sampled_from(NAMES), st.sampled_from(PARAMS))
TARGET = st.tuples(st.integers(0, 3), OPERATION).map(
    lambda drawn: drawn[1] if drawn[0] == 0 else None)
ANCHOR = st.sampled_from(
    [Anchor.PRE] + [Anchor.REPLACE] * 2 + [Anchor.POST] * 2)
#: Weighted: ``one_of`` draws uniformly from the strategies built below.
KINDS = (["run"] * 3 + ["attach"] * 5
         + ["detach", "detach_self", "register", "declare", "raise"])


class OutOfSteps(Exception):
    """A program that runs too long stops the same way on both tables."""


def bodies(depth, size=4):
    """Lists of actions whose functions nest ``depth`` more levels.  An
    action is one record; each kind reads the fields it needs."""
    nested = bodies(depth - 1) if depth else st.just(())

    def action(kind):
        return st.tuples(
            st.just(kind), TARGET, ANCHOR,
            st.integers(0, 3),                      # run argument, detach index
            st.sampled_from((False, False, True)),  # run: through run_external
            st.booleans(),  # run: catch errors here; register: parameterized
            nested if kind in ("attach", "register") else st.just(()))

    return st.lists(st.one_of([action(kind) for kind in KINDS]),
                    max_size=size).map(tuple)


PROGRAM = st.tuples(OPERATION, bodies(2, size=6))


class Harness:
    """Runs one program on one table and logs everything observable."""

    def __init__(self, table, focus):
        self.table = table
        self.focus = focus
        self.log = []
        self.steps = 0
        self.labels = 0
        self.attached = {}   # (name, anchor, param) -> [functions]
        self.executing = []  # (name, anchor, param, function), innermost last
        table.register("a", self.function("default a", ()))
        table.register("b", self.function("default b", ()))
        table.declare("evt")
        for param in (1, 2):
            table.register("pf", self.function(f"default pf[{param}]", ()),
                           param=param, parameterized=True)
        table.register("app", self.function("default app", ()), external=True)
        table.register("app_evt", None, external=True)

    def function(self, kind, body, site=None):
        """A behaviour or observer that logs its call and runs ``body``."""
        self.labels += 1
        label = f"{kind}#{self.labels}"

        def function(conn, *args):
            self.log.append(("enter", label, args))
            if site is not None:
                self.executing.append(site + (function,))
            try:
                self.execute(body, catch_all=False)
            finally:
                if site is not None:
                    self.executing.pop()
            self.log.append(("leave", label))
            return label

        return function

    def execute(self, program, catch_all):
        for action in program:
            kind, catch = action[0], action[5]
            try:
                self.steps += 1
                if self.steps > MAX_STEPS:
                    raise OutOfSteps()
                self.log.append(("did", kind, self.step(*action)))
            except ProtoopError as exc:
                self.log.append(("protoop error", kind, exc.code))
                if not (catch_all or kind == "run" and catch):
                    raise
            except Exception as exc:
                self.log.append(("error", kind, type(exc).__name__))
                if not catch_all:
                    raise

    def step(self, kind, target, anchor, number, external, flag, body):
        table = self.table
        name, param = target or self.focus
        if kind == "run":
            runner = table.run_external if external else table.run
            return runner("conn", name, param, number)
        if kind == "attach":
            site = (name, anchor, param)
            function = self.function(f"{anchor.value} {name}[{param}]",
                                     body, site)
            table.attach(name, anchor, function, param)
            self.attached.setdefault(site, []).append(function)
        elif kind == "detach":
            candidates = self.attached.get((name, anchor, param), [])
            if candidates:
                table.detach(name, anchor,
                             candidates[number % len(candidates)], param)
        elif kind == "detach_self":
            if self.executing:
                name, anchor, param, function = self.executing[-1]
                table.detach(name, anchor, function, param)
        elif kind == "register":
            table.register(name, self.function(f"default {name}[{param}]", body),
                           param=param, parameterized=flag)
        elif kind == "declare":
            table.declare(name)
        else:
            raise RuntimeError("pluglet failure")
        return None


def action(kind, anchor=Anchor.PRE, external=False, flag=False, body=()):
    """A hand-written action on the program's focus."""
    return (kind, None, anchor, 0, external, flag, body)


def observe(table_class, program):
    """Run ``program`` action by action, probing its focus after each:
    whatever an action attached, registered or left behind gets run."""
    focus, body = program
    harness = Harness(table_class(), focus)
    probe = action("run", external=focus[0] in EXTERNAL, flag=True)
    for step in body:
        harness.execute((step, probe), catch_all=True)
    return harness.log, harness.table.runs


#: One program per branch the dispatcher must not lose — a guard that
#: outlives invalidation, the epoch compare on the bare path, the
#: external check ahead of the early return.  Run first on every build,
#: so the property does not depend on the search finding them again.
REENTER_AFTER_INVALIDATION = (("a", None), (
    action("attach", Anchor.PRE,
           body=(action("detach_self"), action("run", flag=True))),
))
POST_ATTACHED_BY_BARE_BEHAVIOUR = (("late", None), (
    action("register", body=(action("attach", Anchor.POST),)),
))
EXTERNAL_EVENT_FROM_PROTOCOL = (("app_evt", None), (action("run"),))


@settings(max_examples=500, deadline=None)
@given(PROGRAM)
@example(REENTER_AFTER_INVALIDATION)
@example(POST_ATTACHED_BY_BARE_BEHAVIOUR)
@example(EXTERNAL_EVENT_FROM_PROTOCOL)
def test_dispatcher_matches_reference_walker(program):
    assert observe(ProtoopTable, program) == observe(ReferenceTable, program)


def test_pinned_programs_show_what_they_are_named_for():
    def codes(program):
        log, _ = observe(ProtoopTable, program)
        return [entry[2] for entry in log if entry[0] == "protoop error"]

    assert codes(REENTER_AFTER_INVALIDATION) == [
        TransportErrorCode.PLUGIN_LOOP_DETECTED]
    assert codes(EXTERNAL_EVENT_FROM_PROTOCOL) == [
        TransportErrorCode.PROTOCOL_VIOLATION]
    log, _ = observe(ProtoopTable, POST_ATTACHED_BY_BARE_BEHAVIOUR)
    assert any(entry[0] == "enter" and entry[1].startswith("post late")
               for entry in log)
