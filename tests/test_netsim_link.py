"""Unit tests for link bandwidth/delay/loss/buffer modelling."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.netsim import IPV4_UDP_OVERHEAD, Link, Simulator
from repro.netsim.link import Pipe, SeededLossGen
from repro.netsim.node import Datagram, DatagramBurst


def make_pipe(sim, **kw):
    received = []
    pipe = Pipe(sim, **kw)
    pipe.connect(lambda pkt: received.append((sim.now, pkt)))
    return pipe, received


def test_propagation_plus_serialization_delay():
    sim = Simulator()
    # 1 Mbps, 100 ms delay; 1000B payload + 28B overhead = 8224 bits.
    pipe, received = make_pipe(sim, delay=0.1, bandwidth=1_000_000.0)
    pipe.send("pkt", 1000)
    sim.run()
    assert len(received) == 1
    t, _ = received[0]
    assert t == pytest.approx(0.1 + (1000 + IPV4_UDP_OVERHEAD) * 8 / 1e6)


def test_back_to_back_packets_serialize_sequentially():
    sim = Simulator()
    pipe, received = make_pipe(sim, delay=0.0, bandwidth=1_000_000.0)
    pipe.send("a", 1000)
    pipe.send("b", 1000)
    sim.run()
    per_pkt = (1000 + IPV4_UDP_OVERHEAD) * 8 / 1e6
    assert received[0][0] == pytest.approx(per_pkt)
    assert received[1][0] == pytest.approx(2 * per_pkt)


def test_throughput_matches_configured_bandwidth():
    sim = Simulator()
    bw = 10_000_000.0
    pipe, received = make_pipe(sim, delay=0.0, bandwidth=bw,
                               buffer_bytes=10_000_000)
    n, size = 100, 1200
    for i in range(n):
        pipe.send(i, size)
    sim.run()
    assert len(received) == n
    total_bits = n * (size + IPV4_UDP_OVERHEAD) * 8
    assert sim.now == pytest.approx(total_bits / bw)


def test_buffer_overflow_drops_tail():
    sim = Simulator()
    pipe, received = make_pipe(sim, delay=0.0, bandwidth=1_000_000.0,
                               buffer_bytes=3000)
    results = [pipe.send(i, 1000) for i in range(5)]
    sim.run()
    # First packet begins transmitting immediately (leaves the queue);
    # then the queue holds at most 2 more x 1028B.
    assert results[0] and results[1] and results[2]
    assert not all(results)
    assert pipe.stats.dropped_buffer >= 1
    assert len(received) == sum(results)


def test_seeded_loss_is_reproducible():
    a = SeededLossGen(0.3, seed=42)
    b = SeededLossGen(0.3, seed=42)
    pat_a = [a.should_drop() for _ in range(200)]
    pat_b = [b.should_drop() for _ in range(200)]
    assert pat_a == pat_b
    assert a.drops > 0 and a.passed > 0


def test_seeded_loss_rate_roughly_honoured():
    gen = SeededLossGen(0.1, seed=7)
    n = 20_000
    drops = sum(gen.should_drop() for _ in range(n))
    assert 0.08 < drops / n < 0.12


def test_loss_rate_bounds_validated():
    with pytest.raises(ValueError):
        SeededLossGen(1.5)
    with pytest.raises(ValueError):
        SeededLossGen(-0.1)


def test_lossy_pipe_drops_packets():
    sim = Simulator()
    pipe, received = make_pipe(sim, delay=0.0, bandwidth=1e9,
                               loss=SeededLossGen(0.5, seed=3),
                               buffer_bytes=10_000_000)
    for i in range(100):
        pipe.send(i, 100)
    sim.run()
    assert 20 < len(received) < 80
    assert pipe.stats.dropped_loss == 100 - len(received)


def test_pipe_requires_connection():
    sim = Simulator()
    pipe = Pipe(sim, delay=0.0, bandwidth=1e6)
    with pytest.raises(RuntimeError):
        pipe.send("x", 10)


def test_invalid_parameters_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Pipe(sim, delay=-1.0, bandwidth=1e6)
    with pytest.raises(ValueError):
        Pipe(sim, delay=0.0, bandwidth=0.0)


def test_link_directions_independent():
    sim = Simulator()
    link = Link(sim, delay=0.01, bandwidth=1e6)
    fwd, bwd = [], []
    link.forward.connect(lambda p: fwd.append(p))
    link.backward.connect(lambda p: bwd.append(p))
    link.forward.send("f", 100)
    link.backward.send("b", 100)
    sim.run()
    assert fwd == ["f"]
    assert bwd == ["b"]


SIZES = st.lists(st.integers(1, 1400), min_size=1, max_size=12)


@settings(max_examples=200, deadline=None)
@given(sizes=SIZES, backlog=SIZES, loss=st.sampled_from([0.0, 0.1, 0.5]),
       seed=st.integers(0, 2**16), buffer_bytes=st.integers(1500, 12_000),
       ecn_threshold=st.none() | st.integers(0, 8000))
def test_burst_admits_like_datagrams_sent_one_by_one(
        sizes, backlog, loss, seed, buffer_bytes, ecn_threshold):
    """Behind a busy transmitter, a burst makes the same drops, ECN marks,
    link statistics and loss-RNG draws as its segments sent one by one."""

    def run(as_burst):
        sim = Simulator()
        delivered = []
        pipe = Pipe(sim, delay=0.001, bandwidth=1e6,
                    buffer_bytes=buffer_bytes, ecn_threshold=ecn_threshold)
        pipe.connect(lambda pkt: delivered.extend(
            d.src_port for d in getattr(pkt, "segments", [pkt])))
        pipe.send(Datagram("c", -1, "s", 443, bytes(1000)), 1000)  # busy
        pipe.loss = SeededLossGen(loss, seed)
        for i, size in enumerate(backlog):
            pipe.send(Datagram("c", 100 + i, "s", 443, bytes(size)), size)
        dgrams = [Datagram("c", i, "s", 443, bytes(size))
                  for i, size in enumerate(sizes)]
        if as_burst:
            burst = DatagramBurst(list(dgrams))
            kept = burst.segments if pipe.send_burst(burst) else []
            admitted = [any(d is k for k in kept) for d in dgrams]
        else:
            admitted = [pipe.send(d, d.size) for d in dgrams]
        sim.run()
        stats = pipe.stats
        return (admitted, [d.ecn_ce for d in dgrams], pipe.ecn_marked,
                (stats.tx_packets, stats.tx_bytes, stats.dropped_buffer,
                 stats.dropped_loss),
                pipe.loss._rng.getstate(), sorted(delivered))

    assert run(as_burst=True) == run(as_burst=False)
