"""Exchanging plugins over a QUIC connection (§3.4, Figure 6).

Negotiation uses the two transport parameters (``supported_plugins``,
``plugins_to_inject``).  After the handshake each side knows what the
other offers and wants:

(a) plugins already in the local cache are injected as local plugins, in
    the order of ``plugins_to_inject``;
(b) missing plugins are requested with a PLUGIN_VALIDATE frame carrying
    the peer's required validation formula; the provider answers with
    PLUGIN_PROOF (authentication paths from PVs satisfying the formula)
    and streams the compressed plugin in PLUGIN frames, multiplexed with
    application data through the frame scheduler.

A received plugin is checked against the cached STRs of the trusted PVs;
on success it is stored in the local cache — "Remote plugins are not
activated for the current connection, but rather offered in subsequent
connections".

The exchange is resilient to hostile network conditions: requests are
retried with exponential backoff when the provider stays silent, PLUGIN
chunks may arrive out of order / duplicated / overlapping, the
reassembled binding is integrity-checked against a digest announced in
PLUGIN_PROOF, and when validation definitively fails or the provider
stops responding the exchange *degrades gracefully* — the connection
simply proceeds pluginless.
"""

from __future__ import annotations

import hashlib

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.quic import frames as F
from repro.quic.connection import QuicConnection, ReservedFrame
from repro.quic.wire import Buffer
from repro.vm.analysis import LEGACY_RULES, Severity
from repro.secure.formula import Formula, parse_formula
from repro.secure.merkle import AuthenticationPath, verify_path
from repro.secure.validator import SignedTreeRoot

from .cache import PluginCache
from .containment import PluginQuarantined
from .plugin import Plugin
from .protoop import Anchor, ProtoopError

PLUGIN_VALIDATE_TYPE = 0x60
PLUGIN_PROOF_TYPE = 0x61
PLUGIN_TYPE = 0x62
PLUGIN_CHUNK = 1000
EXCHANGE_QUEUE = "__plugin_exchange__"

#: Request (PLUGIN_VALIDATE) timeout/backoff defaults, in seconds of
#: connection time.  A request not answered within the timeout is retried
#: with the timeout doubled; after ``DEFAULT_MAX_RETRIES`` retries the
#: exchange for that plugin degrades.
DEFAULT_REQUEST_TIMEOUT = 1.0
DEFAULT_RETRY_FACTOR = 2.0
DEFAULT_MAX_RETRIES = 3


@dataclass
class PluginValidateFrame(F.Frame):
    """Client -> server: request a plugin, stating the required formula."""

    plugin_name: str = ""
    formula: str = ""
    type = PLUGIN_VALIDATE_TYPE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint_prefixed_bytes(self.plugin_name.encode("utf-8"))
        buf.push_varint_prefixed_bytes(self.formula.encode("utf-8"))

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PluginValidateFrame":
        return cls(
            plugin_name=buf.pull_varint_prefixed_bytes().decode("utf-8"),
            formula=buf.pull_varint_prefixed_bytes().decode("utf-8"),
        )


def _push_path(buf: Buffer, path: AuthenticationPath) -> None:
    buf.push_varint(path.leaf_index)
    buf.push_varint(path.depth)
    buf.push_varint(len(path.siblings))
    for s in path.siblings:
        buf.push_bytes(s)
    buf.push_varint(len(path.leaf_slots))
    for slot in path.leaf_slots:
        if slot is None:
            buf.push_uint8(0)
        else:
            buf.push_uint8(1)
            buf.push_bytes(slot)


def _pull_path(buf: Buffer) -> AuthenticationPath:
    leaf_index = buf.pull_varint()
    depth = buf.pull_varint()
    siblings = [buf.pull_bytes(32) for _ in range(buf.pull_varint())]
    slots = []
    for _ in range(buf.pull_varint()):
        if buf.pull_uint8():
            slots.append(buf.pull_bytes(32))
        else:
            slots.append(None)
    return AuthenticationPath(leaf_index, depth, siblings, slots)


@dataclass
class ProofEntry:
    validator_id: str
    str_epoch: int
    str_root: bytes
    str_signature: bytes
    path: AuthenticationPath

    @property
    def signed_root(self) -> SignedTreeRoot:
        return SignedTreeRoot(self.validator_id, self.str_epoch,
                              self.str_root, self.str_signature)


@dataclass
class PluginProofFrame(F.Frame):
    """Provider -> requester: one PV's proof of consistency.

    One frame per validator keeps every frame within a packet; the
    requester accumulates proofs until the formula can be evaluated."""

    plugin_name: str = ""
    total_length: int = 0  # compressed plugin length, announced up front
    #: Integrity check over the reassembled binding: SHA-256 of the
    #: compressed plugin bytes (empty = not announced).
    digest: bytes = b""
    proof: Optional[ProofEntry] = None
    type = PLUGIN_PROOF_TYPE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint_prefixed_bytes(self.plugin_name.encode("utf-8"))
        buf.push_varint(self.total_length)
        buf.push_varint_prefixed_bytes(self.digest)
        proof = self.proof
        buf.push_varint_prefixed_bytes(proof.validator_id.encode("utf-8"))
        buf.push_varint(proof.str_epoch)
        buf.push_bytes(proof.str_root)
        buf.push_varint_prefixed_bytes(proof.str_signature)
        _push_path(buf, proof.path)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PluginProofFrame":
        name = buf.pull_varint_prefixed_bytes().decode("utf-8")
        total = buf.pull_varint()
        digest = buf.pull_varint_prefixed_bytes()
        vid = buf.pull_varint_prefixed_bytes().decode("utf-8")
        epoch = buf.pull_varint()
        root = buf.pull_bytes(32)
        sig = buf.pull_varint_prefixed_bytes()
        proof = ProofEntry(vid, epoch, root, sig, _pull_path(buf))
        return cls(plugin_name=name, total_length=total, digest=digest,
                   proof=proof)


@dataclass
class PluginFrame(F.Frame):
    """A chunk of the compressed plugin, akin to the crypto stream."""

    plugin_name: str = ""
    offset: int = 0
    data: bytes = b""
    type = PLUGIN_TYPE

    def serialize(self, buf: Buffer) -> None:
        buf.push_varint(self.type)
        buf.push_varint_prefixed_bytes(self.plugin_name.encode("utf-8"))
        buf.push_varint(self.offset)
        buf.push_varint_prefixed_bytes(self.data)

    @classmethod
    def parse(cls, buf: Buffer, frame_type: int) -> "PluginFrame":
        return cls(
            plugin_name=buf.pull_varint_prefixed_bytes().decode("utf-8"),
            offset=buf.pull_varint(),
            data=buf.pull_varint_prefixed_bytes(),
        )


class TrustStore:
    """The requester's trust anchors: PV public keys and cached STRs for
    the current epoch."""

    def __init__(self) -> None:
        self._keys: dict[str, bytes] = {}
        self._strs: dict[str, SignedTreeRoot] = {}

    def trust_validator(self, validator_id: str, public_key: bytes) -> None:
        self._keys[validator_id] = public_key

    def cache_str(self, signed: SignedTreeRoot) -> None:
        if signed.validator_id not in self._keys:
            raise ValueError(f"untrusted validator {signed.validator_id!r}")
        if not signed.verify(self._keys[signed.validator_id]):
            raise ValueError("STR signature invalid")
        self._strs[signed.validator_id] = signed

    def known_str(self, validator_id: str) -> Optional[SignedTreeRoot]:
        return self._strs.get(validator_id)

    def trusted(self, validator_id: str) -> bool:
        return validator_id in self._keys


@dataclass
class _IncomingPlugin:
    total_length: int = -1
    digest: bytes = b""
    proofs: list = field(default_factory=list)
    chunks: dict = field(default_factory=dict)

    def add_chunk(self, offset: int, data: bytes) -> str:
        """Validate and store one chunk.  Returns ``"ok"``, ``"duplicate"``
        or ``"rejected"`` — chunks may arrive out of order or duplicated
        (retransmission), but zero-length, out-of-range and overlapping
        chunks are rejected rather than trusted."""
        if not data:
            return "rejected"
        if self.total_length >= 0 and offset + len(data) > self.total_length:
            return "rejected"
        existing = self.chunks.get(offset)
        if existing is not None:
            return "duplicate" if existing == data else "rejected"
        end = offset + len(data)
        for other_off, other in self.chunks.items():
            if other_off < end and offset < other_off + len(other):
                return "rejected"  # partial overlap: hostile or buggy peer
        self.chunks[offset] = data
        return "ok"

    def complete(self) -> bool:
        """Whether the chunks contiguously cover ``[0, total_length)``.

        Coverage is computed over intervals, not a byte-count sum, so the
        exact-multiple-of-PLUGIN_CHUNK boundary and out-of-order arrival
        are handled and a hole can never be masked by duplicates."""
        if self.total_length < 0:
            return False
        end = 0
        for offset in sorted(self.chunks):
            if offset > end:
                return False  # hole
            end = max(end, offset + len(self.chunks[offset]))
        return end >= self.total_length

    def assemble(self) -> bytes:
        out = bytearray(self.total_length)
        for offset, data in self.chunks.items():
            out[offset:offset + len(data)] = data
        return bytes(out)

    def integrity_ok(self, compressed: bytes) -> bool:
        if not self.digest:
            return True  # provider did not announce one
        return hashlib.sha256(compressed).digest() == self.digest


@dataclass
class _PendingRequest:
    """One outstanding PLUGIN_VALIDATE awaiting proofs + chunks."""

    name: str
    attempts: int = 1
    next_retry: float = 0.0
    timeout: float = DEFAULT_REQUEST_TIMEOUT


class PluginExchanger:
    """Drives plugin negotiation and transfer on one connection."""

    def __init__(
        self,
        conn: QuicConnection,
        cache: PluginCache,
        trust: Optional[TrustStore] = None,
        formula: str = "",
        proof_provider: Optional[Callable] = None,
        auto_inject: bool = True,
        request_timeout: float = DEFAULT_REQUEST_TIMEOUT,
        retry_factor: float = DEFAULT_RETRY_FACTOR,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ):
        self.conn = conn
        self.cache = cache
        self.trust = trust or TrustStore()
        self.formula_text = formula
        self.proof_provider = proof_provider
        self.auto_inject = auto_inject
        self.request_timeout = request_timeout
        self.retry_factor = retry_factor
        self.max_retries = max_retries
        self.injected: list = []
        self.received: list = []
        self.rejected: dict = {}
        #: plugin name -> reason the exchange gave up (graceful degradation).
        self.degraded: dict = {}
        #: Resilience counters (observable in experiments and tests).
        self.stats = {
            "requests": 0,
            "retries": 0,
            "chunks_rejected": 0,
            "chunks_duplicated": 0,
            "integrity_failures": 0,
        }
        self.pending: dict[str, _PendingRequest] = {}
        self._incoming: dict[str, _IncomingPlugin] = {}
        self._register()

    # ------------------------------------------------------------------

    def _register(self) -> None:
        conn = self.conn
        conn.frame_registry.register(PLUGIN_VALIDATE_TYPE, PluginValidateFrame)
        conn.frame_registry.register(PLUGIN_PROOF_TYPE, PluginProofFrame)
        conn.frame_registry.register(PLUGIN_TYPE, PluginFrame)
        table = conn.protoops
        table.register("process_frame", self._process_validate,
                       param=PLUGIN_VALIDATE_TYPE, parameterized=True)
        table.register("process_frame", self._process_proof,
                       param=PLUGIN_PROOF_TYPE, parameterized=True)
        table.register("process_frame", self._process_plugin,
                       param=PLUGIN_TYPE, parameterized=True)
        # Exchange frames are reliable: requeue them when lost.
        for frame_type in (PLUGIN_VALIDATE_TYPE, PLUGIN_PROOF_TYPE,
                           PLUGIN_TYPE):
            table.register("notify_frame", self._notify_exchange_frame,
                           param=frame_type, parameterized=True)
        table.attach("connection_established", Anchor.POST,
                     self._on_established)
        # The sans-io exchanger has no timer of its own; piggyback the
        # retry clock on the send path, which runs on every wakeup, and
        # publish the earliest retry deadline as a wakeup hint so an
        # otherwise idle connection is still pumped when a request times
        # out (e.g. a silent provider after the handshake settles).
        table.attach("before_sending_packet", Anchor.POST, self._on_tick)
        hints = getattr(conn, "wakeup_hints", None)
        if hints is not None:
            hints.append(self._next_deadline)
        # Resilience events (extensions beyond the 72-protoop census).
        for event in ("plugin_exchange_retry", "plugin_exchange_degraded",
                      "plugin_exchange_completed"):
            if not table.exists(event):
                table.declare(event)
        # Advertise the cache contents.
        conn.configuration.supported_plugins = list(self.cache.names)

    def _emit(self, name: str, *args) -> None:
        """Run an observability event protoop; observers must not be able
        to break the exchange."""
        try:
            self.conn.protoops.run(self.conn, name, None, *args)
        except Exception:
            pass

    def _notify_exchange_frame(self, conn, frame, acked: bool, pkt) -> None:
        if not acked:
            self._queue(frame)

    def _on_established(self, conn, args, result) -> None:
        self.negotiate()

    # ------------------------------------------------------------------

    def negotiate(self) -> None:
        """Figure 6, step after handshake: inject what we have, request
        what we miss."""
        peer = self.conn.peer_transport_parameters
        if peer is None:
            return
        for name in peer.plugins_to_inject:
            if self.cache.has(name):
                if self.auto_inject:
                    try:
                        self.inject_local(name)
                    except (PluginQuarantined, ProtoopError) as exc:
                        # Crash-looping plugin, or one the conflict
                        # analyzer / protoop table found incompatible with
                        # the already-attached set: proceed without it
                        # rather than failing the negotiation.
                        self.degraded[name] = str(exc)
                        self._emit("plugin_exchange_degraded", name, str(exc))
            else:
                self._request(name)

    def inject_local(self, name: str) -> None:
        instance = self.cache.instantiate(name, self.conn)
        instance.attach()
        self.injected.append(name)

    def _request(self, name: str) -> None:
        frame = PluginValidateFrame(plugin_name=name, formula=self.formula_text)
        self._queue(frame)
        self.stats["requests"] += 1
        self.pending[name] = _PendingRequest(
            name=name,
            next_retry=self.conn.now + self.request_timeout,
            timeout=self.request_timeout,
        )

    def _next_deadline(self) -> Optional[float]:
        """Earliest pending retry deadline (None when nothing is pending);
        drives the connection's wakeup timer."""
        if not self.pending:
            return None
        return min(req.next_retry for req in self.pending.values())

    def _on_tick(self, conn, args, result) -> None:
        """Retry silent requests with exponential backoff; give up (and
        degrade gracefully) after ``max_retries`` resends."""
        now = conn.now
        for name in list(self.pending):
            req = self.pending[name]
            if now < req.next_retry:
                continue
            if req.attempts > self.max_retries:
                del self.pending[name]
                reason = (
                    f"no response after {req.attempts} attempts; "
                    "proceeding without plugin"
                )
                self.degraded[name] = reason
                self._emit("plugin_exchange_degraded", name, reason)
                continue
            req.attempts += 1
            req.timeout *= self.retry_factor
            req.next_retry = now + req.timeout
            self.stats["retries"] += 1
            self._queue(PluginValidateFrame(plugin_name=name,
                                            formula=self.formula_text))
            self._emit("plugin_exchange_retry", name, req.attempts)

    def _queue(self, frame: F.Frame) -> None:
        self.conn.reserve_frames([
            ReservedFrame(frame=frame, plugin=EXCHANGE_QUEUE,
                          retransmittable=True, congestion_controlled=True)
        ])

    # --- provider side ------------------------------------------------------

    def _process_validate(self, conn, frame: PluginValidateFrame, ctx) -> None:
        if self.proof_provider is None:
            return
        provided = self.proof_provider(frame.plugin_name, frame.formula)
        if provided is None:
            return
        compressed, proofs = provided
        digest = hashlib.sha256(compressed).digest()
        for proof in proofs:
            self._queue(PluginProofFrame(
                plugin_name=frame.plugin_name,
                total_length=len(compressed),
                digest=digest,
                proof=proof,
            ))
        for offset in range(0, len(compressed), PLUGIN_CHUNK):
            self._queue(PluginFrame(
                plugin_name=frame.plugin_name,
                offset=offset,
                data=compressed[offset:offset + PLUGIN_CHUNK],
            ))

    # --- requester side ------------------------------------------------------

    def _touch_pending(self, name: str) -> None:
        """The provider is alive: push the retry deadline out so in-flight
        transfers are not re-requested mid-stream."""
        req = self.pending.get(name)
        if req is not None:
            req.next_retry = self.conn.now + req.timeout

    def _process_proof(self, conn, frame: PluginProofFrame, ctx) -> None:
        state = self._incoming.setdefault(frame.plugin_name, _IncomingPlugin())
        state.total_length = frame.total_length
        # Chunks accepted before the length was known may now be seen to
        # be out of range; drop them so completion cannot stall on them.
        for offset in [o for o, d in state.chunks.items()
                       if o + len(d) > state.total_length]:
            del state.chunks[offset]
            self.stats["chunks_rejected"] += 1
        if frame.digest:
            state.digest = frame.digest
        if frame.proof is not None:
            state.proofs = [
                p for p in state.proofs
                if p.validator_id != frame.proof.validator_id
            ] + [frame.proof]
        self._touch_pending(frame.plugin_name)
        self._maybe_finish(frame.plugin_name)

    def _process_plugin(self, conn, frame: PluginFrame, ctx) -> None:
        state = self._incoming.setdefault(frame.plugin_name, _IncomingPlugin())
        verdict = state.add_chunk(frame.offset, frame.data)
        if verdict == "rejected":
            self.stats["chunks_rejected"] += 1
            return
        if verdict == "duplicate":
            self.stats["chunks_duplicated"] += 1
        self._touch_pending(frame.plugin_name)
        self._maybe_finish(frame.plugin_name)

    def _maybe_finish(self, name: str) -> None:
        state = self._incoming.get(name)
        if state is None or not state.complete():
            return
        compressed = state.assemble()
        if not state.integrity_ok(compressed):
            # The reassembled binding does not hash to the announced
            # digest: throw the chunks away and let the retry clock
            # re-request the plugin from scratch.
            self.stats["integrity_failures"] += 1
            state.chunks.clear()
            return
        # Decoded once: the proof check, the analyzer gate and the cache
        # all work on this one object.
        try:
            plugin = Plugin.decompress(compressed)
        except Exception as exc:
            reason: Optional[str] = f"undecodable plugin: {exc}"
        else:
            reason = (self._verify_incoming(name, plugin, state.proofs)
                      or self._analyze_received(plugin))
        if reason is None:
            del self._incoming[name]
            self.pending.pop(name, None)
            self.rejected.pop(name, None)
            self.cache.store(plugin)
            self.received.append(name)
            self._emit("plugin_exchange_completed", name, len(compressed))
            return
        self.rejected[name] = reason
        if "unsatisfied" not in reason:
            # Definitive failure; a formula-unsatisfied plugin stays
            # pending in case late proof frames arrive (loss reordering).
            del self._incoming[name]
            self.pending.pop(name, None)
            self.degraded[name] = reason
            self._emit("plugin_exchange_degraded", name, reason)

    def _analyze_received(self, plugin: Plugin) -> Optional[str]:
        """Static-analysis gate on a reassembled plugin.

        The attach-time verifier would reject the plugin anyway; running
        the analyzer here keeps statically-broken bytecode out of the
        cache entirely and turns the failure into a graceful degrade with
        a precise diagnostic (rule id + pc) instead of a later attach
        error.  Only the §2.1 acceptance rules reject — deeper analyzer
        findings (unproven memory, loops) stay advisory, matching
        ``Plugin.verify_all``, which takes its verdict from this same
        analysis when the cache stores the plugin.  Returns a rejection
        reason or None."""
        for pluglet_name, report in plugin.analyze_all().items():
            for diag in report.diagnostics:
                if diag.rule in LEGACY_RULES and diag.severity is Severity.ERROR:
                    where = (f" at instruction {diag.pc}"
                             if diag.pc is not None else "")
                    return (f"static analysis: pluglet {pluglet_name}: "
                            f"{diag.severity}[{diag.rule}]: "
                            f"{diag.message}{where}")
        return None

    def _verify_incoming(self, name: str, plugin: Plugin,
                         proofs: list) -> Optional[str]:
        """Check of the proof of consistency (§3.3 / Figure 5).

        Returns a rejection reason, or None on success."""
        if plugin.name != name:
            return "plugin name mismatch"
        code = plugin.serialize()
        satisfied = set()
        str_mismatch: Optional[str] = None
        for proof in proofs:
            vid = proof.validator_id
            if not self.trust.trusted(vid):
                continue
            cached = self.trust.known_str(vid)
            if cached is None:
                continue
            served = proof.signed_root
            if served.root != cached.root or served.epoch != cached.epoch:
                # Either stale or an equivocation attempt: do not accept,
                # and surface it for reporting.
                str_mismatch = f"STR mismatch for {vid} (possible equivocation)"
                continue
            if not verify_path(cached.root, name, code, proof.path):
                continue
            satisfied.add(vid)
        if not self.formula_text:
            if satisfied or not proofs:
                return None
            return str_mismatch or "no valid proofs"
        formula = parse_formula(self.formula_text)
        if formula.evaluate(satisfied):
            self.rejected.pop(name, None)
            return None
        if str_mismatch is not None:
            return str_mismatch  # definitive: a PV served a divergent STR
        return (
            f"validation formula {self.formula_text!r} unsatisfied "
            f"(valid proofs: {sorted(satisfied)})"
        )


def make_proof_provider(repository, validators: dict) -> Callable:
    """Build a provider closure from PR + PV objects.

    ``validators`` maps validator_id -> PluginValidator.  The provider
    compresses the plugin from the PR and gathers authentication paths
    from the PVs named in the requester's formula (one minimal satisfying
    set is enough; we send proofs for every requested PV we know)."""
    import zlib

    from repro.secure.formula import parse_formula as _parse

    def provider(name: str, formula_text: str):
        code = repository.plugin_code(name)
        if code is None:
            return None
        wanted = set(validators)
        if formula_text:
            try:
                wanted = _parse(formula_text).validators() & set(validators)
            except Exception:
                return None
        proofs = []
        for vid in sorted(wanted):
            validator = validators[vid]
            if not validator.validated(name):
                continue
            path = validator.lookup(name)
            signed = validator.current_str
            proofs.append(ProofEntry(vid, signed.epoch, signed.root,
                                     signed.signature, path))
        return zlib.compress(code, level=9), proofs

    return provider
