"""PRE profiler: per-pluglet attribution, JIT/interpreter paths, merge,
and zero-residue detach."""

import pytest

from repro.experiments import run_quic_transfer
from repro.plugins.fec import build_fec_plugin
from repro.plugins.monitoring import build_monitoring_plugin
from repro.trace import PreProfiler, ProfileRecord


def profiled_transfer(**kwargs):
    result = run_quic_transfer(
        60_000, d_ms=5, bw_mbps=20,
        client_plugins=[build_monitoring_plugin,
                        lambda: build_fec_plugin("xor", "full")],
        profile=True, **kwargs)
    assert result.completed
    assert result.profile is not None
    return result.profile


class TestAttribution:
    def test_attributes_fuel_time_helpers_per_pluglet(self):
        profiler = profiled_transfer()
        rows = profiler.summary()
        assert rows, "profiled transfer recorded no pluglet executions"
        plugins = {row["plugin"] for row in rows}
        # Both attached plugins actually executed and were attributed.
        assert any("monitoring" in p for p in plugins)
        assert any("fec" in p for p in plugins)
        for row in rows:
            assert row["invocations"] > 0
            assert row["fuel"] > 0
            assert row["wall_ms"] > 0
            assert row["protoop"]
            assert row["pluglet"]
            assert row["path"] in ("jit", "interp", "mixed")
        # Rows are sorted costliest-fuel first.
        fuels = [row["fuel"] for row in rows]
        assert fuels == sorted(fuels, reverse=True)

    def test_totals_are_consistent_with_rows(self):
        profiler = profiled_transfer()
        rows = profiler.summary()
        totals = profiler.totals()
        assert totals["invocations"] == sum(r["invocations"] for r in rows)
        assert totals["fuel"] == sum(r["fuel"] for r in rows)
        assert totals["helper_calls"] == sum(r["helper_calls"]
                                             for r in rows)

    def test_interpreter_path_attributed(self, monkeypatch):
        monkeypatch.setenv("REPRO_JIT", "0")
        profiler = profiled_transfer()
        for row in profiler.summary():
            assert row["path"] == "interp"
            assert row["jit_runs"] == 0

    def test_protoop_run_counts_collected(self):
        profiler = profiled_transfer()
        runs = profiler.protoop_runs()
        assert runs.get("packet_sent_event", 0) > 0
        assert sum(runs.values()) > 0

    def test_format_table_is_readable(self):
        profiler = profiled_transfer()
        text = profiler.format_table()
        assert "plugin" in text and "fuel" in text and "wall-ms" in text
        assert "total:" in text
        top1 = profiler.format_table(max_rows=1)
        assert len(top1.splitlines()) < len(text.splitlines())


class TestMerge:
    def test_merge_accumulates_across_profilers(self):
        a = PreProfiler()
        a.record("p", "l", "op", fuel=10, helper_calls=2, wall_s=0.5,
                 jit=True)
        b = PreProfiler()
        b.record("p", "l", "op", fuel=5, helper_calls=1, wall_s=0.25,
                 jit=False, fault=True)
        b.record("q", "m", "op2", fuel=7, helper_calls=0, wall_s=0.1,
                 jit=True)
        a.merge(b)
        rows = {((r["plugin"], r["pluglet"], r["protoop"])): r
                for r in a.summary()}
        merged = rows[("p", "l", "op")]
        assert merged["invocations"] == 2
        assert merged["fuel"] == 15
        assert merged["helper_calls"] == 3
        assert merged["wall_ms"] == pytest.approx(750.0)
        assert merged["faults"] == 1
        assert merged["path"] == "mixed"
        assert rows[("q", "m", "op2")]["path"] == "jit"

    def test_shared_profiler_spans_connections(self):
        shared = PreProfiler()
        for _ in range(2):
            result = run_quic_transfer(
                30_000, d_ms=5, bw_mbps=20,
                client_plugins=[build_monitoring_plugin],
                profile=shared)
            assert result.completed
            assert result.profile is shared
        totals = shared.totals()
        assert totals["invocations"] > 0

    def test_profile_record_path_labels(self):
        rec = ProfileRecord("p", "l", "op")
        rec.jit_runs = 1
        assert rec.path == "jit"
        rec.interp_runs = 1
        assert rec.path == "mixed"


class TestDetach:
    def test_detach_leaves_no_observable_residue(self):
        from repro.quic import QuicConfiguration
        from repro.quic.connection import QuicConnection

        conn = QuicConnection(QuicConfiguration(is_client=True))
        table = conn.protoops
        profiler = PreProfiler().attach(conn)
        assert conn.profiler is profiler
        table.run(conn, "packet_sent_event", None)
        assert table.run_counts.get("packet_sent_event") == 1
        profiler.detach(conn)
        assert conn.profiler is None
        # Counting stops: further dispatches leave the counts untouched.
        table.run(conn, "packet_sent_event", None)
        assert table.run_counts.get("packet_sent_event") == 1
        # A freshly built plan carries no counting observer anymore.
        table._plans.clear()
        plan = table._build_plan("packet_sent_event", None)
        assert plan.pre == ()
        assert plan.bare
