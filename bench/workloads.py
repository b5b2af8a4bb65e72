"""The four benchmark workloads, built from the public ``repro`` API only.

Every workload is a closed loop with one simulated client and one
operation outstanding.  A workload is a sequence of *iterations*; each
iteration builds its fixture from nothing (``setup``, timed as
``setup_s``) and then runs a fixed-shape timed phase (``run``).  The
driver in ``run.py`` repeats iterations until ``--seconds`` is used up,
so a faster program completes more iterations of the same shape instead
of measuring a different shape.

Payloads are seeded pseudo-random bytes.  Client and server apps share
the seeded *pool* by construction (never over the wire): a request names
``(offset, length)`` into the pool, the server answers with that slice,
and the client checks length and SHA-256 of what it received against a
digest computed during setup.  A mismatch or a simulated-time timeout is
a failed operation, never an exception.
"""

from __future__ import annotations

import hashlib
import random
import struct
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Optional

from repro.core import PluginCache, PluginInstance
from repro.core.exchange import PluginExchanger, TrustStore, make_proof_provider
from repro.netsim import Simulator, symmetric_topology
from repro.plugins import build_monitoring_plugin, build_multipath_plugin
from repro.quic import ClientEndpoint, QuicConfiguration, ServerEndpoint
from repro.quic.connection import ConnectionState, reset_instance_counter
from repro.secure import PluginRepository, PluginValidator

REQUEST_HEADER = struct.Struct(">QI")  # pool offset, response length
FORMULA = "PV1 & (PV2 | PV3)"

#: ``conn.stats`` keys summed over every connection of an iteration.
CONN_STATS = ("packets_sent", "bytes_sent", "packets_lost", "pto_fired",
              "probes_sent", "spurious_losses")


@dataclass
class Iteration:
    """What one timed phase produced."""

    wall_s: float
    sim_s: float
    #: Wall latency of each completed operation in ms; a failed operation
    #: contributes to ``failed`` and has no latency.
    latencies_ms: list
    failed: int
    payload_bytes: int
    #: Layer units done: MB of payload (bulk), requests, connections.
    units: float
    #: Deterministic counters read from public attributes afterwards.
    counters: dict = field(default_factory=dict)
    #: Wall-clock observations that belong to one layer (conn-churn).
    layer_wall_ms: dict = field(default_factory=dict)


class Inputs:
    """One iteration's generated inputs: the seeded payload pool and the
    plan of operations, each ``(response length, request bytes, expected
    response digest)``.  Built before set-up is timed: generating inputs
    is the benchmark's work, not the program's."""

    def __init__(self, seed: int, index: int):
        self.seed = seed
        self.rng = random.Random(seed * 1_000_003 + index)
        self.pool = b""
        self.plan: list = []
        self.warm = 0  # leading operations of the plan that go untimed

    def fill_pool(self, size: int) -> None:
        self.pool = self.rng.randbytes(size)

    def add(self, offset: int, length: int, request_size: int) -> None:
        """Plan a request for ``pool[offset:offset + length]``, padded
        with pool bytes the server checks in turn."""
        pad = request_size - REQUEST_HEADER.size
        request = (REQUEST_HEADER.pack(offset, length)
                   + self.pool[offset:offset + pad])
        digest = hashlib.sha256(self.pool[offset:offset + length]).digest()
        self.plan.append((length, request, digest))

    def add_small(self, count: int, request_size: int, response_size: int) -> None:
        """``count`` requests whose response sizes vary ±5 % with the seed."""
        low, high = response_size * 19 // 20, response_size * 21 // 20
        for _ in range(count):
            length = self.rng.randint(low, high)
            self.add(self.rng.randrange(len(self.pool) - high), length,
                     request_size)


class Responder:
    """Server app: answers each request stream with the named pool slice."""

    def __init__(self, pool: bytes, observe: Optional[Callable] = None):
        self.pool = pool
        self.observe = observe
        self.connections: list = []
        self.bad_requests = 0

    def on_connection(self, conn) -> None:
        if self.observe is not None:
            self.observe(conn)
        self.connections.append(conn)
        partial: dict = {}
        conn.on_stream_data = (
            lambda stream_id, data, fin:
            self._on_request_data(conn, partial, stream_id, data, fin))

    def _on_request_data(self, conn, partial: dict, stream_id: int,
                         data: bytes, fin: bool) -> None:
        body = partial.pop(stream_id, b"") + bytes(data)
        if not fin:
            partial[stream_id] = body
            return
        offset, length = REQUEST_HEADER.unpack_from(body)
        pad = body[REQUEST_HEADER.size:]
        if pad != self.pool[offset:offset + len(pad)]:
            self.bad_requests += 1
        # The endpoint pumps after every receive, so no pump here.
        conn.send_stream_data(
            stream_id, self.pool[offset:offset + length], fin=True)


class Requester:
    """Client app: issues one request at a time and verifies the answer."""

    def __init__(self, client: ClientEndpoint):
        self.client = client
        self._pending: dict = {}
        client.conn.on_stream_data = self._on_stream_data

    def _on_stream_data(self, stream_id: int, data: bytes, fin: bool) -> None:
        state = self._pending[stream_id]
        state[0].update(data)
        state[1] += len(data)
        state[2] = fin

    def fetch(self, sim: Simulator, request: bytes, length: int,
              digest: bytes, timeout: float) -> bool:
        """Send one request, run the simulator until the response's FIN
        (or ``timeout`` simulated seconds), and check what arrived."""
        conn = self.client.conn
        stream_id = conn.create_stream()
        state = self._pending[stream_id] = [hashlib.sha256(), 0, False]
        conn.send_stream_data(stream_id, request, fin=True)
        self.client.pump()
        sim.run_until(lambda: state[2], timeout=timeout)
        del self._pending[stream_id]
        return state[2] and state[1] == length and state[0].digest() == digest


def _connection_counters(sim: Simulator, topo, server, conns: list) -> dict:
    counters = {key: sum(c.stats[key] for c in conns) for key in CONN_STATS}
    counters["peak_connections"] = server.stats["peak_connections"]
    counters["protoop_runs"] = sum(c.protoops.runs for c in conns)
    vms = [vm for c in conns for inst in c.plugins.values()
           for vm in inst.vms.values()]
    counters["vm_instructions"] = sum(vm.instructions_executed for vm in vms)
    counters["stream_table_size"] = max(
        len(c.streams_send) + len(c.streams_recv) for c in conns)
    counters["events_fired"] = sim.events_fired
    counters["events_coalesced"] = sim.events_coalesced
    counters["link_drops"] = sum(
        pipe.stats.dropped_loss + pipe.stats.dropped_buffer
        for link in topo.path_links for pipe in (link.forward, link.backward))
    return counters


class Workload:
    """One benchmark workload.  ``scale`` < 1 shrinks the operation
    counts (warm-up and ``--smoke``), never the shape."""

    name = ""
    unit = ""
    #: Extra fixture builds per iteration, so cheap set-ups still give
    #: enough ``setup_s`` samples.
    setup_repeats = 1
    #: Percentile of an iteration's operation latencies reported as
    #: ``op_tail_ms``: the highest with several samples beyond it.
    tail_percentile = 50
    #: Loss patterns the iterations cycle through (1: loss-free path).
    patterns = 1

    @property
    def counted_iterations(self) -> int:
        """Iterations every run completes and takes its simulated-time
        and byte-count metrics from: two rounds of the loss patterns."""
        return 2 * self.patterns

    def inputs(self, seed: int, index: int, scale: float) -> Inputs:
        """Generate iteration ``index``'s inputs from ``seed``."""
        raise NotImplementedError

    def setup(self, inputs: Inputs, index: int, observe: Optional[Callable]):
        """Build the iteration's fixture from nothing, up to the point
        where the first timed byte can be written.  A lossy path's loss
        process is seeded by ``index % patterns`` alone, so every run of
        a workload meets the same few loss patterns (common random
        numbers) and runs differ by what the code does, not by which
        packets happened to be dropped."""
        raise NotImplementedError

    def run(self, fixture) -> Iteration:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# Bulk transfers.


class _Bulk(Workload):
    unit = "MB"
    size = 0
    path = {}
    multipath = False
    plugins: tuple = ()
    timeout = 120.0

    def inputs(self, seed, index, scale):
        # ±1 % size jitter: inputs come from the seed, and the simulated
        # metrics of a loss-free path then still differ between seeds.
        inputs = Inputs(seed, index)
        size = int(self.size * scale * inputs.rng.uniform(0.99, 1.01))
        inputs.fill_pool(size)
        inputs.add(0, size, 64)
        return inputs

    def setup(self, inputs, index, observe):
        reset_instance_counter()
        sim = Simulator()
        topo = symmetric_topology(sim, seed=index % self.patterns,
                                  **self.path)
        responder = Responder(inputs.pool, observe)

        def on_connection(conn):
            for build in self.plugins:
                PluginInstance(build(), conn).attach()
            responder.on_connection(conn)

        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=on_connection)
        client = ClientEndpoint(
            sim, topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(is_client=True, seed=inputs.seed))
        if observe is not None:
            observe(client.conn)
        if self.multipath:
            client.conn.extra_local_addresses = ["client.1"]
        for build in self.plugins:
            PluginInstance(build(), client.conn).attach()
        requester = Requester(client)
        client.connect()
        established = sim.run_until(
            lambda: client.conn.is_established and responder.connections,
            timeout=10)
        return (sim, topo, server, client, responder, requester,
                inputs.plan[0], established)

    def run(self, fixture) -> Iteration:
        (sim, topo, server, client, responder, requester,
         (size, request, digest), established) = fixture
        sim_start = sim.now
        start = perf_counter()
        ok = established and requester.fetch(
            sim, request, size, digest, self.timeout)
        wall = perf_counter() - start
        ok = ok and responder.bad_requests == 0
        conns = [client.conn] + responder.connections
        return Iteration(
            wall_s=wall, sim_s=sim.now - sim_start,
            latencies_ms=[wall * 1e3] if ok else [], failed=0 if ok else 1,
            payload_bytes=size if ok else 0, units=size / 1e6,
            counters=_connection_counters(sim, topo, server, conns))


class BulkClean(_Bulk):
    name = "bulk-clean"
    size = 16_000_000
    # The buffer exceeds the path's 250 kB bandwidth-delay product, so
    # slow start never overflows it: a path on which nothing is lost.
    path = dict(d_ms=10, bw_mbps=100, loss_pct=0.0, buffer_bytes=512 * 1024)


class BulkPluginsLossy(_Bulk):
    name = "bulk-plugins-lossy"
    size = 4_000_000
    path = dict(d_ms=25, bw_mbps=10, loss_pct=1.0)
    multipath = True
    plugins = (build_monitoring_plugin, build_multipath_plugin)
    timeout = 300.0
    patterns = 4


# ---------------------------------------------------------------------------
# Small request/response streams on one long-lived connection.


class RpcSmall(Workload):
    name = "rpc-small"
    unit = "request"
    setup_repeats = 5
    tail_percentile = 99
    warmup_requests = 50
    requests = 600
    request_size = 64
    response_size = 512

    def inputs(self, seed, index, scale):
        inputs = Inputs(seed, index)
        inputs.fill_pool(1 << 16)
        inputs.warm = max(2, int(self.warmup_requests * scale))
        inputs.add_small(inputs.warm + max(10, int(self.requests * scale)),
                         self.request_size, self.response_size)
        return inputs

    def setup(self, inputs, index, observe):
        reset_instance_counter()
        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=1, bw_mbps=1000)
        responder = Responder(inputs.pool, observe)
        server = ServerEndpoint(sim, topo.server, "server.0", 443,
                                on_connection=responder.on_connection)
        client = ClientEndpoint(
            sim, topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(is_client=True, seed=inputs.seed))
        if observe is not None:
            observe(client.conn)
        requester = Requester(client)
        client.connect()
        established = sim.run_until(
            lambda: client.conn.is_established, timeout=10)
        return (sim, topo, server, client, responder, requester, inputs,
                established)

    def run(self, fixture) -> Iteration:
        (sim, topo, server, client, responder, requester, inputs,
         established) = fixture
        plan, warm = inputs.plan, inputs.warm
        latencies: list = []
        failed = 0
        payload = 0
        for length, request, digest in plan[:warm]:
            requester.fetch(sim, request, length, digest, 10.0)
        sim_start = sim.now
        start = perf_counter()
        for length, request, digest in plan[warm:]:
            t0 = perf_counter()
            if established and requester.fetch(sim, request, length, digest, 10.0):
                latencies.append((perf_counter() - t0) * 1e3)
                payload += length
            else:
                failed += 1
        wall = perf_counter() - start
        if responder.bad_requests:
            failed, latencies, payload = len(plan) - warm, [], 0
        conns = [client.conn] + responder.connections
        return Iteration(
            wall_s=wall, sim_s=sim.now - sim_start, latencies_ms=latencies,
            failed=failed, payload_bytes=payload, units=len(plan) - warm,
            counters=_connection_counters(sim, topo, server, conns))


# ---------------------------------------------------------------------------
# Sequential connections that negotiate a plugin.


class ConnChurn(Workload):
    name = "conn-churn"
    unit = "connection"
    setup_repeats = 3
    tail_percentile = 90
    connections = 50
    request_size = 200
    response_size = 1200

    def inputs(self, seed, index, scale):
        inputs = Inputs(seed, index)
        inputs.fill_pool(1 << 16)
        # Connection 0 is the cold one.
        inputs.add_small(1 + max(3, int(self.connections * scale)),
                         self.request_size, self.response_size)
        return inputs

    def setup(self, inputs, index, observe):
        reset_instance_counter()
        plugin = build_monitoring_plugin()
        repo = PluginRepository()
        validators = {f"PV{i}": PluginValidator(f"PV{i}", seed=i)
                      for i in (1, 2, 3)}
        for validator in validators.values():
            repo.register_validator(validator)
        repo.publish("bench", plugin.name, plugin.serialize())
        repo.advance_epoch()
        trust = TrustStore()
        for validator in validators.values():
            trust.trust_validator(validator.validator_id, validator.public_key)
            trust.cache_str(repo.get_str(validator.validator_id))
        client_cache = PluginCache()
        server_cache = PluginCache()
        server_cache.store(plugin)
        provider = make_proof_provider(repo, validators)

        sim = Simulator()
        topo = symmetric_topology(sim, d_ms=5, bw_mbps=50)
        responder = Responder(inputs.pool, observe)

        def on_connection(conn):
            PluginExchanger(conn, server_cache, proof_provider=provider)
            responder.on_connection(conn)

        server = ServerEndpoint(
            sim, topo.server, "server.0", 443,
            configuration_factory=lambda: QuicConfiguration(
                is_client=False, plugins_to_inject=[plugin.name]),
            on_connection=on_connection)
        return (sim, topo, server, responder, client_cache, trust,
                plugin.name, inputs, observe)

    def _connect_once(self, fixture, index: int):
        """connect → negotiate → request/response → close → CLOSED.
        Returns ``(ok, inject wall ms, client conn)``."""
        (sim, topo, server, responder, client_cache, trust, plugin_name,
         inputs, observe) = fixture
        length, request, digest = inputs.plan[index]
        start = perf_counter()
        client = ClientEndpoint(
            sim, topo.client, "client.0", 5000, "server.0", 443,
            configuration=QuicConfiguration(is_client=True,
                                            seed=inputs.seed + index))
        if observe is not None:
            observe(client.conn)
        exchanger = PluginExchanger(client.conn, client_cache, trust=trust,
                                    formula=FORMULA)
        requester = Requester(client)
        client.connect()
        # A plugin received in-band is verified and cached for the next
        # connection; one found in the cache is injected into this one.
        ok = sim.run_until(
            lambda: (plugin_name in client.conn.plugins
                     or plugin_name in exchanger.received), timeout=10)
        inject_ms = (perf_counter() - start) * 1e3
        ok = ok and requester.fetch(sim, request, length, digest, 10.0)
        client.close()
        ok = sim.run_until(
            lambda: client.conn.state is ConnectionState.CLOSED,
            timeout=60) and ok
        return ok, inject_ms, client.conn

    def run(self, fixture) -> Iteration:
        (sim, topo, server, responder, client_cache, trust, plugin_name,
         inputs, observe) = fixture
        plan = inputs.plan
        cold_ok, cold_ms, cold_conn = self._connect_once(fixture, 0)
        conns = [cold_conn]
        latencies: list = []
        inject_ms: list = []
        failed = 0
        payload = 0
        sim_start = sim.now
        start = perf_counter()
        for index in range(1, len(plan)):
            t0 = perf_counter()
            ok, ms, conn = self._connect_once(fixture, index)
            conns.append(conn)
            if ok:
                latencies.append((perf_counter() - t0) * 1e3)
                inject_ms.append(ms)
                payload += plan[index][0]
            else:
                failed += 1
        wall = perf_counter() - start
        sim_s = sim.now - sim_start
        # Let the last drain periods end: a server under churn must hold
        # nothing for connections that are gone.
        sim.run(until=sim.now + 2.0)
        leaked = (len(server.connections) != 0
                  or server.stats["evicted"] != len(plan))
        if leaked or not cold_ok or responder.bad_requests:
            failed, latencies, inject_ms, payload = len(plan) - 1, [], [], 0
        counters = _connection_counters(
            sim, topo, server, conns + responder.connections)
        counters["cache_hits"] = client_cache.hits
        counters["cache_instantiations"] = client_cache.hits + client_cache.misses
        inject_ms.sort()
        return Iteration(
            wall_s=wall, sim_s=sim_s, latencies_ms=latencies, failed=failed,
            payload_bytes=payload, units=len(plan) - 1, counters=counters,
            layer_wall_ms={
                "cold_load": cold_ms,
                "cached_inject": inject_ms[len(inject_ms) // 2]
                if inject_ms else 0.0})


WORKLOADS = {w.name: w for w in (BulkClean(), BulkPluginsLossy(),
                                 RpcSmall(), ConnChurn())}
