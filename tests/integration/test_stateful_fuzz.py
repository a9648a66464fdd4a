"""Model-based fuzzing: the distributor vs. an in-memory reference model.

Hypothesis drives random interleavings of upload / download / per-chunk
read / update of one or several chunks / remove / rebalance / provider
outage / recovery / repair, and checks after every step that the
distributor serves exactly what a plain dict of chunk lists would -- under
at most one concurrent provider outage (RAID-5's budget) -- and that its
metadata is in step with itself.
"""

import json

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.distributor import CloudDataDistributor
from repro.core.privacy import ChunkSizePolicy, CostLevel, PrivacyLevel
from repro.core.rebalance import rebalance
from repro.core.tables import ChunkTable
from repro.providers.failures import FailureInjector
from repro.providers.registry import ProviderSpec, build_simulated_fleet
from tests.core.test_journal_recovery import recounted_loads

N_PROVIDERS = 6
WIDTH = 4

payload_st = st.binary(min_size=0, max_size=2000)
name_st = st.sampled_from([f"file{i}" for i in range(5)])
provider_st = st.sampled_from([f"P{i}" for i in range(N_PROVIDERS)])


class DistributorMachine(RuleBasedStateMachine):
    @initialize(seed=st.integers(min_value=0, max_value=2**20))
    def setup(self, seed):
        specs = [
            ProviderSpec(f"P{i}", PrivacyLevel.PRIVATE, CostLevel.CHEAP)
            for i in range(N_PROVIDERS)
        ]
        registry, providers, clock = build_simulated_fleet(specs, seed=seed)
        self.injector = FailureInjector(providers, clock, seed=seed + 1)
        from repro.core.cache import ChunkCache

        self.distributor = CloudDataDistributor(
            registry,
            chunk_policy=ChunkSizePolicy.uniform(256),
            codec=f"raid5@{WIDTH}",
            seed=seed + 2,
            # A small cache so the fuzz also exercises hit/invalidation paths.
            cache=ChunkCache(4 * 1024),
        )
        self.distributor.register_client("C")
        self.distributor.add_password("C", "pw", PrivacyLevel.PRIVATE)
        # name -> its chunks' payloads, by serial
        self.model: dict[str, list[bytes]] = {}
        self.down: set[str] = set()

    # -- mutations --------------------------------------------------------

    @rule(name=name_st, payload=payload_st)
    def upload(self, name, payload):
        if name in self.model:
            return
        self.distributor.upload_file("C", "pw", name, payload, PrivacyLevel.PRIVATE)
        self.model[name] = [
            payload[at : at + 256] for at in range(0, len(payload), 256)
        ] or [b""]

    @precondition(lambda self: self.model and not self.down)
    @rule(data=st.data())
    def remove(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        self.distributor.remove_file("C", "pw", name)
        del self.model[name]

    @precondition(lambda self: self.model and not self.down)
    @rule(data=st.data())
    def update(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        chunks = self.model[name]
        updates = data.draw(st.dictionaries(
            st.integers(min_value=0, max_value=len(chunks) - 1),
            st.binary(min_size=0, max_size=256),
            min_size=1, max_size=3,
        ))
        if len(updates) == 1:
            ((serial, payload),) = updates.items()
            self.distributor.update_chunk("C", "pw", name, serial, payload)
        else:
            self.distributor.update_chunks("C", "pw", name, updates)
        for serial, payload in updates.items():
            chunks[serial] = payload

    @precondition(lambda self: self.model and not self.down)
    @rule(moves=st.integers(min_value=1, max_value=8))
    def rebalance(self, moves):
        rebalance(self.distributor, max_moves=moves)

    # -- failures ----------------------------------------------------------

    @precondition(lambda self: not self.down)
    @rule(name=provider_st)
    def take_down(self, name):
        self.injector.take_down(name)
        self.down.add(name)

    @precondition(lambda self: self.down)
    @rule()
    def bring_up(self):
        for name in sorted(self.down):
            self.injector.bring_up(name)
        self.down.clear()

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def repair(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        report = self.distributor.repair_file("C", "pw", name)
        assert report.chunks_unrecoverable == 0

    # -- observations -------------------------------------------------------

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def download_matches_model(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        got = self.distributor.get_file("C", "pw", name)
        assert got == b"".join(self.model[name])

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def chunk_read_matches_model(self, data):
        name = data.draw(st.sampled_from(sorted(self.model)))
        n = self.distributor.chunk_count("C", name)
        assert n == len(self.model[name])
        serial = data.draw(st.integers(min_value=0, max_value=n - 1))
        got = self.distributor.get_chunk("C", "pw", name, serial)
        assert got == self.model[name][serial]

    # -- invariants -----------------------------------------------------------

    @invariant()
    def table_counts_consistent(self):
        if not hasattr(self, "distributor"):
            return
        # The kept per-provider loads are what a recount of the rows says.
        assert self.distributor.provider_loads() == recounted_loads(self.distributor)
        # The Chunk Table's columns round-trip on their own, through JSON as
        # persistence sends them.
        table = self.distributor.chunk_table
        state, records = table.export_state(), table.export_records()
        again = ChunkTable()
        assert again.import_state(
            json.loads(json.dumps(state)), json.loads(json.dumps(records)),
            self.distributor.provider_table,
        ) == []
        assert again.export_state() == state
        assert again.export_records() == records
        # The metadata document survives a trip through a fresh distributor.
        exported = self.distributor.export_metadata()
        fresh = CloudDataDistributor(self.distributor.registry, seed=0)
        fresh.import_metadata(exported)
        assert fresh.export_metadata() == exported
        # Table III: no shard lives where its chunk's snapshot does.
        for _, entry in self.distributor.chunk_table:
            assert entry.snapshot_index not in entry.provider_indices
        # Client Table quadruples reference live Chunk Table entries.
        client = self.distributor.client_table.get("C")
        for ref in client.chunk_refs:
            self.distributor.chunk_table.get(ref.chunk_index)


TestDistributorStateMachine = DistributorMachine.TestCase
TestDistributorStateMachine.settings = settings(
    max_examples=20, stateful_step_count=25, deadline=None
)
