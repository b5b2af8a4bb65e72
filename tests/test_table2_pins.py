"""Table 2 pinned without pytest-benchmark: a compiler or plugin change
that moves a pluglet count, loses a termination proof or grows the PRE
code fails here, not only under ``benchmarks/``.

The table comes from ``tools/gen_table2.py``, the generator of
``results/table2_plugin_stats.txt``.
"""

import importlib.util
from pathlib import Path

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "gen_table2.py"
_spec = importlib.util.spec_from_file_location("gen_table2", _TOOL)
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)

#: Plugin -> (pluglets, proven terminating): every bundled pluglet is
#: proven.
COUNTS = {
    "Monitoring": (14, 14),
    "Datagram": (6, 6),
    "Multipath": (22, 22),
    "FEC": (36, 36),
}
#: PRE instructions over the whole table (741 with the register back
#: end; 2568 when every local and temporary lived in a frame slot).
MAX_INSTRUCTIONS = 760


def test_pluglet_and_proven_counts():
    table = gen.build_table()
    assert {e["label"]: (e["pluglets"], e["proven"]) for e in table} == COUNTS


def test_total_instructions_stay_under_the_ceiling():
    total = sum(e["instructions"] for e in gen.build_table())
    assert total <= MAX_INSTRUCTIONS


def test_committed_table_lists_the_same_counts():
    """The result file holds the rows the generator renders (sizes
    aside, which depend on the zlib build)."""
    committed = gen.RESULT.read_text().splitlines()
    assert committed[0] == gen.HEADER
    columns = [row.split()[:4] for row in committed[1:]]
    assert columns == [row.split()[:4] for row in gen.render(gen.build_table())]
