"""Anchor sets spliced whole against the same anchors attached one by one.

A plugin's anchors are spliced into a table as one set
(``ProtoopTable.attach_set``), shared with every table that attached the
same sets in the same order.  What that must *do* is what attaching each
anchor of the set in turn did, rolled back whole when one of them is
refused: random programs of set attaches and detaches, the table's own
attaches and detaches, and runs are played on two tables of one census —
one splicing, one attaching anchor by anchor — and must log the same
calls, results and errors.  A third table splicing the same program
checks that sharing plans changes nothing either.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.protoop import Anchor, AnchorSet, ProtoopError, ProtoopTable

LOG: list = []


def observer(label):
    def observe(conn, args, *result):
        LOG.append((label, args, result))

    return observe


def behaviour(label):
    def behave(conn, *args):
        LOG.append((label, args))
        return label

    return behave


def census() -> ProtoopTable:
    table = ProtoopTable()
    table.register("a", behaviour("default a"))
    table.register("pf", None, parameterized=True)
    table.register("pf", behaviour("default pf1"), param=1, parameterized=True)
    table.declare("evt")
    return table


def row(name, anchor, label, param=None):
    func = behaviour(label) if anchor is Anchor.REPLACE else observer(label)
    return (name, anchor, func, param, False)


SETS = [
    AnchorSet([row("a", Anchor.POST, "s0 post a"),
               row("pf", Anchor.REPLACE, "s0 pf2", 2),
               row("evt", Anchor.PRE, "s0 pre evt")]),
    AnchorSet([row("a", Anchor.PRE, "s1 pre a"),
               row("a", Anchor.POST, "s1 post a"),
               row("new", Anchor.REPLACE, "s1 new")]),
    # Replaces pf[2] as set 0 does: refused while set 0 is attached.
    AnchorSet([row("evt", Anchor.POST, "s2 post evt"),
               row("pf", Anchor.REPLACE, "s2 pf2", 2)]),
]

OPERATIONS = [("a", None), ("pf", 1), ("pf", 2), ("pf", 3), ("evt", None),
              ("new", None)]
ANCHORS = [Anchor.PRE, Anchor.POST, Anchor.REPLACE]

ACTION = st.one_of(
    st.tuples(st.just("set"), st.integers(0, len(SETS) - 1)),
    st.tuples(st.just("unset"), st.integers(0, len(SETS) - 1)),
    st.tuples(st.just("own"), st.sampled_from(OPERATIONS),
              st.sampled_from(ANCHORS)),
    st.tuples(st.just("unown"), st.integers(0, 5)),
    st.tuples(st.just("run"), st.sampled_from(OPERATIONS)),
)


class Splicing:
    def __init__(self, table):
        self.table = table

    def attach_set(self, owner, anchors):
        self.table.attach_set(owner, anchors)

    def detach_set(self, owner):
        self.table.detach_set(owner)


class OneByOne:
    """The reference: each anchor of a set attached in turn, the whole
    set detached again when one is refused."""

    def __init__(self, table):
        self.table = table
        self.owned = {}

    def attach_set(self, owner, anchors):
        done = []
        try:
            with self.table.batch():
                for name, anchor, func, param, external in anchors.rows:
                    self.table.attach(name, anchor, func, param, external)
                    done.append((name, anchor, func, param))
        except ProtoopError:
            with self.table.batch():
                for name, anchor, func, param in done:
                    self.table.detach(name, anchor, func, param)
            raise
        self.owned[owner] = done

    def detach_set(self, owner):
        with self.table.batch():
            for name, anchor, func, param in self.owned.pop(owner, ()):
                self.table.detach(name, anchor, func, param)


def play(program, make, shared=None) -> list:
    """The log of ``program`` on a table of ``shared`` (a fresh census by
    default) driven through ``make(table)``."""
    LOG.clear()
    player = make(ProtoopTable(shared or census()))
    table = player.table
    owners = {}
    own = []
    for step, action in enumerate(program):
        kind = action[0]
        try:
            if kind == "set" and action[1] not in owners:
                owner = object()
                player.attach_set(owner, SETS[action[1]])
                owners[action[1]] = owner
            elif kind == "unset" and action[1] in owners:
                player.detach_set(owners.pop(action[1]))
            elif kind == "own":
                (name, param), anchor = action[1], action[2]
                label = f"own {step}"
                func = (behaviour(label) if anchor is Anchor.REPLACE
                        else observer(label))
                table.attach(name, anchor, func, param)
                own.append((name, anchor, func, param))
            elif kind == "unown" and action[1] < len(own):
                table.detach(*own.pop(action[1]))
            elif kind == "run":
                name, param = action[1]
                LOG.append(("result", table.run(None, name, param, step)))
        except ProtoopError as exc:
            LOG.append(("error", kind, exc.code))
    return list(LOG)


@settings(max_examples=400, deadline=None)
@given(st.lists(ACTION, max_size=40))
def test_a_spliced_set_runs_as_its_anchors_attached_one_by_one(program):
    assert play(program, Splicing) == play(program, OneByOne)


@settings(max_examples=200, deadline=None)
@given(st.lists(ACTION, max_size=40))
def test_a_table_sharing_the_splices_runs_the_same(program):
    """A table of a census whose splices another table built and ran
    finds their plans; it must run as if it had built them itself."""
    alone = play(program, Splicing)
    shared = census()
    warm = ProtoopTable(shared)
    for index, anchors in enumerate(SETS[:2]):
        warm.attach_set(index, anchors)
    for name, param in OPERATIONS:
        try:
            warm.run(None, name, param)
        except ProtoopError:
            pass
    assert play(program, Splicing, shared) == alone
