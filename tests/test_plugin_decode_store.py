"""The §3 supply chain by content: a serialized plugin is decoded once per
process, a validator's epoch over known content parses no container, and
a Merkle tree folds once per state.  What is kept is invisible to a
caller: every decode returns fresh objects, the canonical form is the
re-encoding, failed decodes are not kept, and the store is bounded."""

import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.plugin as plugin_module
import repro.secure.merkle as merkle
from repro.conformance.plugins import PLUGIN_BUILDERS, build_plugin
from repro.core import Plugin, Pluglet
from repro.core.exchange import TrustStore, make_proof_provider
from repro.errors import FrameEncodingError
from repro.plugins import build_monitoring_plugin
from repro.quic.wire import Buffer
from repro.secure import PluginRepository, PluginValidator, verify_path
from repro.vm import assemble, encode_program, programs
from repro.vm.programs import MAX_PLUGINS
from tests.test_core_exchange import build_world, connect_with_exchange


@pytest.fixture
def parses(monkeypatch):
    """The containers parsed, in order: the bytes of each store miss."""
    seen = []
    real = plugin_module._Decoded.__init__

    def counted(entry, data):
        seen.append(data)
        real(entry, data)

    monkeypatch.setattr(plugin_module._Decoded, "__init__", counted)
    return seen


@pytest.fixture
def hashes(monkeypatch):
    """Counts ``merkle.H`` calls."""
    seen = [0]
    real = merkle.H

    def counted(data):
        seen[0] += 1
        return real(data)

    monkeypatch.setattr(merkle, "H", counted)
    return seen


def small_plugin(name="org.store.p", code="exit"):
    return Plugin(name, [Pluglet("x", "packet_sent_event", "post",
                                 assemble(code))])


class TestDecodeByContent:
    def test_known_bytes_are_parsed_once_into_fresh_objects(self, parses):
        wire = build_monitoring_plugin().serialize()
        first, again = Plugin.deserialize(wire), Plugin.deserialize(wire)
        assert parses == [wire]
        assert again is not first and again.pluglets is not first.pluglets
        for mine, theirs in zip(first.pluglets, again.pluglets):
            assert mine is not theirs and mine == theirs
            assert mine.instructions is not theirs.instructions
        assert again.serialize() == first.serialize() == wire

    def test_a_hit_verifies_by_lookup(self, monkeypatch):
        wire = build_monitoring_plugin().serialize()
        Plugin.deserialize(wire).verify_all()
        looked_up = []
        for name in ("program", "plugin"):
            real = getattr(programs, name)
            monkeypatch.setattr(programs, name, lambda *args, _real=real: (
                looked_up.append(args), _real(*args))[1])
        again = Plugin.deserialize(wire)
        again.verify_all()
        assert again._loaded is not None and again._loaded.verified
        assert looked_up == []

    def test_a_mutated_decode_does_not_change_the_next(self):
        wire = build_monitoring_plugin().serialize()
        mutated = Plugin.deserialize(wire)
        mutated.name = "org.other"
        mutated.memory_size = 1
        mutated.pluglets[0].instructions.clear()
        mutated.pluglets[0].param = 99
        mutated.pluglets.pop()
        again = Plugin.deserialize(wire)
        assert again.name == "org.pquic.monitoring"
        assert len(again.pluglets) == len(build_monitoring_plugin().pluglets)
        assert again.pluglets[0].instructions
        assert again.serialize() == wire
        again.verify_all()

    def test_an_edit_to_a_hit_is_its_own(self):
        """A hit is a copy of the kept first decode: editing its pluglet
        changes neither a later hit nor the encoding the store keeps,
        and the edited plugin serializes as it is."""
        wire = build_monitoring_plugin().serialize()
        assert Plugin.deserialize(wire).serialize() == wire
        kept = Plugin.deserialize(wire)._entry()
        hit = Plugin.deserialize(wire)
        hit.pluglets[0].fuel = 77
        hit.pluglets[1].protoop = "connection_closing"
        edited = hit.serialize()
        assert edited != wire and edited == reference_encoding(hit)
        again = Plugin.deserialize(wire)
        assert again.pluglets == build_monitoring_plugin().pluglets
        assert again.serialize() == wire and kept.encoding == wire
        assert again._entry() is kept is not hit._entry()

    def test_the_canonical_form_is_the_re_encoding(self):
        """A name length sent as a two-byte varint decodes to the plugin
        whose re-encoding is the one-byte form; the proof check binds
        that form, once or many times decoded."""
        wire = build_monitoring_plugin().serialize()
        assert wire[0] == len("org.pquic.monitoring")
        padded = b"\x40" + wire
        for _ in range(2):
            assert Plugin.deserialize(padded).serialize() == wire
        tree = merkle.MerklePrefixTree(8)
        tree.insert("org.pquic.monitoring", wire)
        decoded = Plugin.deserialize(padded)
        assert verify_path(tree.root(), decoded.name, decoded.serialize(),
                           tree.prove(decoded.name))

    def test_a_failed_decode_is_parsed_again(self, parses):
        wire = build_monitoring_plugin().serialize()[:-1]
        for _ in range(2):
            with pytest.raises(FrameEncodingError, match="past end"):
                Plugin.deserialize(wire)
        assert parses == [wire, wire]
        assert not programs._DECODED

    def test_one_flipped_byte_is_a_fresh_parse(self, parses):
        wire = build_monitoring_plugin().serialize()
        Plugin.deserialize(wire)
        flipped = bytearray(wire)
        flipped[wire.index(b"monitoring")] ^= 0x20
        other = Plugin.deserialize(bytes(flipped))
        assert other.name == "org.pquic.Monitoring"
        assert parses == [wire, bytes(flipped)]

    def test_a_binding_declared_since_is_taken(self, monkeypatch):
        """The entry of a decode is resolved under the binding the name
        chooses now: a test swapping in a binding sees it."""
        from repro.core.plugin import HostBinding

        wire = small_plugin("org.late.p").serialize()
        bare = Plugin.deserialize(wire)
        monkeypatch.setattr(plugin_module, "HOST_BINDINGS",
                            dict(plugin_module.HOST_BINDINGS))
        late = HostBinding("org.late")
        again = Plugin.deserialize(wire)
        assert again.host is late and bare.host is not late
        assert again._entry() is not bare._entry()
        assert again._loaded is again._entry()


class TestBound:
    def test_the_decoded_containers_keep_at_most_their_cap(self, parses):
        wires = [small_plugin(f"org.bound.{i}").serialize()
                 for i in range(2 * MAX_PLUGINS)]
        first = Plugin.deserialize(wires[0])
        for wire in wires[1:]:
            Plugin.deserialize(wire)
        assert len(programs._DECODED) == MAX_PLUGINS
        again = Plugin.deserialize(wires[0])
        assert parses.count(wires[0]) == 2
        assert again.serialize() == first.serialize() == wires[0]
        assert Plugin.deserialize(wires[-1]) and parses.count(wires[-1]) == 1

    def test_clear_empties_the_decoded_containers(self, parses):
        wire = small_plugin().serialize()
        Plugin.deserialize(wire)
        programs.clear()
        assert not programs._DECODED
        Plugin.deserialize(wire)
        assert parses == [wire, wire]


def publish(plugin, validators):
    repo = PluginRepository()
    for pv in validators:
        repo.register_validator(pv)
    repo.publish("dev", plugin.name, plugin.serialize())
    return repo


class TestValidatorEpoch:
    def test_an_epoch_of_known_content_parses_no_container(self, parses):
        """Decoding every epoch afresh parsed once per PV and epoch."""
        plugin = build_monitoring_plugin()
        repo = publish(plugin, [PluginValidator(f"PV{i}", seed=i)
                                for i in (1, 2, 3)])
        repo.advance_epoch()
        assert len(parses) == 1  # the first PV's, of content never seen
        repo.advance_epoch()
        assert len(parses) == 1
        other = publish(plugin, [PluginValidator(f"PV{i}", seed=i)
                                 for i in (4, 5, 6)])
        other.advance_epoch()
        assert len(parses) == 1

    def test_an_epoch_of_one_binding_hashes_18_times(self, hashes):
        """Without the kept chain: 50 — the chain twice (16 + 16), name
        prefix and binding hash (2), the fold (16).  Now the chain is
        derived once per process: what is left is 2 + the fold."""
        plugin = build_monitoring_plugin()
        wire = plugin.serialize()
        PluginValidator("PV0", seed=0).run_epoch({plugin.name: wire}, 1)
        hashes[0] = 0
        pv = PluginValidator("PV1", seed=1, tree_depth=16)
        pv.run_epoch({plugin.name: wire}, 1)
        assert hashes[0] == 18
        hashes[0] = 0
        pv.lookup(plugin.name)
        pv.developer_lookup(plugin.name)
        assert pv.validated(plugin.name)
        assert hashes[0] == 0

    def test_a_tampered_byte_is_rejected(self):
        """A byte flipped in a pluglet's code still decodes and verifies,
        but no longer hashes to the PV's binding: the exchange rejects it
        whether the genuine bytes were decoded before or not."""
        plugin, repo, validators, trust = build_world(
            plugin=build_monitoring_plugin())
        genuine = plugin.serialize()
        code = plugin.pluglets[0].bytecode
        tampered = bytearray(genuine)
        tampered[genuine.index(code) + 8] ^= 0x01  # first immediate
        tampered = bytes(tampered)
        Plugin.deserialize(tampered).verify_all()
        honest = make_proof_provider(repo, validators)

        def evil(name, formula):
            _compressed, proofs = honest(name, formula)
            return zlib.compress(tampered), proofs

        for _ in range(2):
            _sim, client, exchanger, cache = connect_with_exchange(
                plugin, repo, validators, trust, "PV1", provider=evil)
            assert exchanger.received == [] and not cache.has(plugin.name)
            assert "unsatisfied" in exchanger.rejected[plugin.name]
        _sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1")
        assert exchanger.received == [plugin.name]

    def test_a_receipt_of_validated_bytes_parses_no_container(
            self, parses):
        plugin, repo, validators, trust = build_world(
            plugin=build_monitoring_plugin())
        parses.clear()
        _sim, _client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1 & (PV2 | PV3)")
        assert exchanger.received == [plugin.name] and cache.has(plugin.name)
        assert parses == []  # the validators decoded these bytes


    def test_an_exchanger_parses_its_formula_once(self, monkeypatch):
        import repro.core.exchange as exchange

        parsed = []
        real = exchange.parse_formula
        monkeypatch.setattr(exchange, "parse_formula", lambda text: (
            parsed.append(text), real(text))[1])
        plugin, repo, validators, trust = build_world(
            plugin=build_monitoring_plugin())
        _sim, _client, exchanger, _cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1 & (PV2 | PV3)")
        assert exchanger.received == [plugin.name]
        for _ in range(2):
            assert "unsatisfied" in exchanger._verify_incoming(
                plugin.name, plugin, [])
        assert parsed == ["PV1 & (PV2 | PV3)"]


class TestOneFold:
    def test_prove_after_root_hashes_nothing(self, hashes):
        tree = merkle.MerklePrefixTree(16)
        for i in range(20):
            tree.insert(f"org.p{i}", b"code-%d" % i)
        tree.root()
        hashes[0] = 0
        for i in range(20):
            tree.prove(f"org.p{i}")
        tree.root()
        assert hashes[0] == 0

    def test_a_change_folds_again_once(self, hashes):
        tree = merkle.MerklePrefixTree(16)
        tree.insert("org.a", b"a")
        hashes[0] = 0
        root = tree.root()
        tree.prove("org.a")
        assert hashes[0] == 16
        tree.insert("org.b", b"b")
        assert tree.root() != root
        tree.remove("org.b")
        hashes[0] = 0
        assert tree.root() == root
        tree.prove("org.a")
        assert hashes[0] == 16

    @settings(max_examples=150, deadline=None)
    @given(depth=st.integers(1, 10),
           names=st.lists(st.integers(0, 400), max_size=60),
           removed=st.lists(st.integers(0, 400), max_size=30),
           absent=st.lists(st.integers(401, 800), max_size=5))
    def test_the_fold_is_the_level_by_level_one(self, depth, names, removed,
                                                absent):
        """Against the fold it replaced, kept here: the same levels, root,
        proofs and number of hashes, on trees of co-located bindings,
        runs of siblings and lone chains, after removals."""
        tree = merkle.MerklePrefixTree(depth)
        for n in names:
            tree.insert(f"org.f{n}", b"code-%d" % n)
        for n in removed:
            tree.remove(f"org.f{n}")
        counted = []
        real = merkle.H
        merkle.H = lambda data: (counted.append(data), real(data))[1]
        try:
            levels = tree._levels()
            folded = len(counted)
            reference = reference_levels(tree)
        finally:
            merkle.H = real
        assert len(counted) == 2 * folded
        assert sorted(counted[:folded]) == sorted(counted[folded:])
        assert levels == reference
        proofs = [tree.prove(f"org.f{n}") for n in names
                  if f"org.f{n}" in tree]
        absences = [tree.prove_absence(f"org.f{n}") for n in absent]
        root = tree.root()
        tree._folded = reference
        assert tree.root() == root
        assert proofs == [tree.prove(f"org.f{n}") for n in names
                          if f"org.f{n}" in tree]
        assert absences == [tree.prove_absence(f"org.f{n}") for n in absent]

    def test_a_second_tree_derives_no_empty_subtree_hash(self, hashes):
        merkle.MerklePrefixTree(24, b"\x01" * 32)
        hashes[0] = 0
        merkle.MerklePrefixTree(24, b"\x01" * 32)
        assert hashes[0] == 0


def reference_levels(tree) -> list:
    """The node levels folded level by level, as the tree first did:
    the specification of the fold."""
    level = {idx: tree._leaf_hash(idx) for idx in tree._leaves}
    levels = [level]
    for empty in tree._empty_at[:-1]:
        nxt = {}
        for idx, value in level.items():
            parent = idx >> 1
            if parent in nxt:
                continue
            sib_val = level.get(idx ^ 1, empty)
            nxt[parent] = merkle.H(value + sib_val if idx % 2 == 0
                                   else sib_val + value)
        levels.append(nxt)
        level = nxt
    return levels


# --- the encoding by content ---------------------------------------------------


def reference_encoding(plugin) -> bytes:
    """``pluginname || plugincode`` encoded pluglet by pluglet on every
    call, as :meth:`Plugin.serialize` first did: the specification of
    the bytes."""
    buf = Buffer()
    buf.push_varint_prefixed_bytes(plugin.name.encode("utf-8"))
    buf.push_varint(plugin.memory_size)
    buf.push_varint(len(plugin.pluglets))
    for p in plugin.pluglets:
        buf.push_varint_prefixed_bytes(p.name.encode("utf-8"))
        buf.push_varint_prefixed_bytes(p.protoop.encode("utf-8"))
        buf.push_uint8(plugin_module._ANCHORS[p.anchor])
        if p.param is None:
            buf.push_uint8(0)
        elif isinstance(p.param, int):
            buf.push_uint8(1)
            buf.push_varint(p.param)
        else:
            buf.push_uint8(2)
            buf.push_varint_prefixed_bytes(str(p.param).encode("utf-8"))
        buf.push_varint(p.fuel)
        buf.push_varint(p.helper_budget)
        buf.push_varint(len(p.triggers))
        for trigger in p.triggers:
            buf.push_varint_prefixed_bytes(trigger.encode("utf-8"))
        buf.push_varint_prefixed_bytes(p.bytecode)
    return buf.data()


class TestEncodingByContent:
    @pytest.mark.parametrize("name", sorted(PLUGIN_BUILDERS))
    def test_every_bundled_plugin_encodes_as_before(self, name):
        plugin = build_plugin(name)
        wire = plugin.serialize()
        assert wire == reference_encoding(plugin)
        assert build_plugin(name).serialize() is wire  # kept, not redone
        assert Plugin.deserialize(wire).serialize() == wire

    def test_a_known_content_is_not_encoded_again(self, monkeypatch):
        wire = build_monitoring_plugin().serialize()
        encodes = []
        real = Plugin._encode
        monkeypatch.setattr(Plugin, "_encode", lambda plugin: (
            encodes.append(plugin.name), real(plugin))[1])
        assert build_monitoring_plugin().serialize() == wire
        assert Plugin.deserialize(wire).serialize() == wire
        assert encodes == []

    @pytest.mark.parametrize("field", ["fuel", "helper_budget"])
    def test_plugins_differing_in_one_budget_encode_differently(self, field):
        def plugin(budget):
            return Plugin("org.store.budget", [
                Pluglet("a", "packet_sent_event", "post", assemble("exit")),
                Pluglet("b", "packet_sent_event", "post", assemble("exit"),
                        **{field: budget})])

        plain, tight = plugin(0), plugin(7)
        assert plain.serialize() != tight.serialize()
        assert plain.serialize() == reference_encoding(plain)
        assert tight.serialize() == reference_encoding(tight)
        assert Plugin.deserialize(tight.serialize()).pluglets[1].__dict__[
            field] == 7


    @pytest.mark.parametrize("field, value", [
        ("fuel", 77), ("protoop", "connection_closing"),
        ("_bytecode", encode_program(assemble("exit")))])
    def test_an_edit_to_a_built_plugin_before_use_is_its_own(self, field,
                                                             value):
        """A build of known source is a copy of the first build; editing
        one of its pluglets before its first use makes a content of its
        own — its bytes and its entry — and leaves the next build as it
        was."""
        genuine = build_monitoring_plugin().serialize()
        edited = build_monitoring_plugin()
        setattr(edited.pluglets[0], field, value)
        wire = edited.serialize()
        assert wire != genuine
        assert wire == reference_encoding(edited)
        assert edited._entry() is not build_monitoring_plugin()._entry()
        assert edited._entry().budgets[0][0] == (
            edited.pluglets[0].fuel or plugin_module.DEFAULT_FUEL)
        assert build_monitoring_plugin().serialize() == genuine

    def test_an_edit_after_use_still_serializes_as_it_is(self):
        """A decoded plugin whose pluglet is changed after its first use
        does not serialize as the genuine bytes."""
        wire = build_monitoring_plugin().serialize()
        tampered = Plugin.deserialize(wire)
        assert tampered.serialize() == wire
        tampered.pluglets[0].protoop = "connection_closing"
        assert tampered.serialize() == reference_encoding(tampered) != wire
        assert Plugin.deserialize(wire).serialize() == wire


class TestTrailingBytes:
    def test_bytes_after_the_last_pluglet_are_refused(self, parses):
        wire = build_monitoring_plugin().serialize()
        for _ in range(2):
            with pytest.raises(ValueError, match="1 bytes after"):
                Plugin.deserialize(wire + b"\x00")
        assert parses == [wire + b"\x00"] * 2
        assert not programs._DECODED

    def test_validators_record_the_failure_and_no_one_receives_it(self):
        """Three PVs no longer vouch for a plugin with a byte after its
        last pluglet: each records it as undecodable, and a receiver asking
        for PV1 & (PV2 | PV3) gets no plugin."""
        plugin = build_monitoring_plugin()
        repo = PluginRepository()
        validators = {}
        for i in (1, 2, 3):
            pv = PluginValidator(f"PV{i}", seed=i)
            repo.register_validator(pv)
            validators[pv.validator_id] = pv
        repo.publish("dev", plugin.name, plugin.serialize() + b"\x00")
        repo.advance_epoch()
        for pv in validators.values():
            assert pv.failures[plugin.name].startswith("undecodable plugin")
            assert not pv.validated(plugin.name)
        trust = TrustStore()
        for pv in validators.values():
            trust.trust_validator(pv.validator_id, pv.public_key)
            trust.cache_str(repo.get_str(pv.validator_id))
        sim, client, exchanger, cache = connect_with_exchange(
            plugin, repo, validators, trust, "PV1 & (PV2 | PV3)")
        assert exchanger.received == [] and not cache.has(plugin.name)
        assert plugin.name not in client.conn.plugins
        assert not client.conn.closed
