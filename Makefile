# Convenience targets; see README.md for details.

.PHONY: install test test-dirs paper-smoke loc loc-check bench bench-e2e bench-e2e-smoke bench-pipeline bench-stream bench-obs bench-load bench-codec load-smoke examples reproduce clean

install:
	pip install -e . || python setup.py develop

test:
	PYTHONPATH=src pytest tests/

# Each tests/*/ directory in its own pytest process, run twice over in it: a
# test that passes only because of what the suite ran before it, or did not
# -- say, one that reads a process-wide metric as an absolute value -- fails
# here whatever order the full run happens to use.
test-dirs:
	set -eu; for dir in tests/*/; do \
		echo "== $$dir"; \
		PYTHONPATH=src python -m pytest -x -q -p no:cacheprovider --keep-duplicates "$$dir" "$$dir"; \
	done

# The paper's cheap tables, each asserting its shape (a few seconds; CI
# runs it after tier-1): A3 is the end-to-end guard on the misleading-byte
# draw, A5 on collusion, Tables I-III render the metadata tables from the
# live (columnar) ones, Table IV and Figs 4-6 guard the mining attacks.
# Rewrites their benchmarks/results/*.txt.
paper-smoke:
	PYTHONPATH=src python -m pytest -q -p no:cacheprovider --benchmark-disable \
		benchmarks/test_a3_misleading_data.py benchmarks/test_a5_collusion.py \
		benchmarks/test_table1_provider_table.py \
		benchmarks/test_table2_client_table.py \
		benchmarks/test_table3_chunk_table.py \
		benchmarks/test_table4_bidding_regression.py \
		benchmarks/test_fig456_gps_clustering.py

# Line counts the diet is judged by (ROADMAP item 6).
loc:
	@for d in src tests benchmarks; do \
		printf '%-34s %6d\n' "$$d/" "$$(find $$d -name '*.py' | xargs cat | wc -l)"; done
	@for f in core/distributor.py core/write_window.py core/tables.py core/persistence.py core/journal.py \
			core/rebalance.py core/placement.py core/misleading.py core/virtual_id.py \
			net/remote.py net/protocol.py providers/memory.py raid/reconstruct.py raid/codecs.py \
			dht/client_distributor.py; do \
		printf '%-34s %6d\n' "src/repro/$$f" "$$(wc -l < src/repro/$$f)"; done

# The ratchet CI holds core/distributor.py to: the count the last diet PR
# landed.  The next one lowers it; nothing raises it.
DISTRIBUTOR_MAX_LINES = 1767
# The client-side (DHT) distributor is an adapter over that engine, held to
# the same ratchet: the overlay places, the engine stores and reads.
DHT_DISTRIBUTOR_MAX_LINES = 177
# The wire client speaks the one protocol its servers speak: no cached
# per-server verdict (no downgrade handshake), and one frame encoder, which
# nests an envelope as segments instead of joining the inner frame.
REMOTE_MAX_LINES = 868
PROTOCOL_MAX_LINES = 682
# A chunk's stripe record lives on its Chunk Table row and nowhere else: the
# per-chunk stores the distributor once kept beside the table stay gone.  (The
# \b keeps the distributor_codec_quarantined_total metric out of the net.)
# Every shard hash on the data path goes through providers.base.blob_checksum,
# the one function the benchmark harness counts, so neither the distributor
# nor the in-memory backend may hash on its own: a dropped check cannot pass
# for a speed-up.  Where a shard or snapshot lives is said by its Chunk Table
# row alone: the Provider Table's per-provider key sets stay gone, and only
# core/tables.py (which counts provider loads as it goes) assigns a row's
# placement.  An update is one window of the write engine: no transaction of
# its own beside it, and its snapshot is written and deleted in the engine's
# provider batches, never one object at a time by the distributor.  The
# Chunk Table is columns: no per-chunk fetch job on the read path, and no
# row object built by hand outside core/tables.py (a row comes in through
# ChunkEntry.load or a commit's add_window).  And the DHT path has no data
# path of its own: no misleading-byte code, no id allocator and no provider
# call under src/repro/dht/ -- a second one would trust what providers return.
# A degraded read is decoded a window at a time (ErasureCodec.decode_data):
# the read engine files no stripe in a dict of its own and decodes none alone.
# A write is planned, moved and tabled a window of columns at a time
# (core/write_window.py): no plan object per chunk, and the engine cuts a
# file into payloads (chunking.cut), never into Chunk objects.  A read is
# stripped a slab at a time, one mask and one compress, a lone chunk like
# any other (no np.delete in core/), and its keys are formatted from a
# per-row prefix (no shard_keys call in the Chunk Table).
loc-check:
	@lines=$$(wc -l < src/repro/core/distributor.py); \
	echo "core/distributor.py: $$lines lines (ratchet $(DISTRIBUTOR_MAX_LINES))"; \
	test "$$lines" -le $(DISTRIBUTOR_MAX_LINES)
	@lines=$$(wc -l < src/repro/dht/client_distributor.py); \
	echo "dht/client_distributor.py: $$lines lines (ratchet $(DHT_DISTRIBUTOR_MAX_LINES))"; \
	test "$$lines" -le $(DHT_DISTRIBUTOR_MAX_LINES)
	@lines=$$(wc -l < src/repro/net/remote.py); \
	echo "net/remote.py: $$lines lines (ratchet $(REMOTE_MAX_LINES))"; \
	test "$$lines" -le $(REMOTE_MAX_LINES)
	@lines=$$(wc -l < src/repro/net/protocol.py); \
	echo "net/protocol.py: $$lines lines (ratchet $(PROTOCOL_MAX_LINES))"; \
	test "$$lines" -le $(PROTOCOL_MAX_LINES)
	@! grep -rnE 'repro\.core\.misleading|\bVirtualIdAllocator\b|\.provider\.(put|get|delete)\(' src/repro/dht/
	@! grep -rnE '\._chunk_state\b|_codec_quarantine\b|\._packed\(' src/
	@! grep -nE '^\s*(import|from)\s+hashlib\b|\bimport\s.*\bhashlib\b' \
		src/repro/core/distributor.py src/repro/providers/memory.py
	@! grep -rnE '\brecord_(store|remove)\b' src/
	@! grep -nE '\bvirtual_ids\b' src/repro/core/tables.py
	@! grep -rnE '\.provider_indices(\[[^]]*\])?\s*=[^=]|\.snapshot_index\s*=[^=]' src/ \
		| grep -v '^src/repro/core/tables.py:'
	@! grep -nE '\b_update_chunk_inner\b|\bsnapshots\.(write|drop)\b' src/repro/core/distributor.py
	@! grep -nE 'def drop\b' src/repro/core/snapshots.py
	@! grep -rnE '\b_FetchJob\b' src/
	@! grep -rnE --include='*.py' '\bChunkEntry\(' src/ | grep -v '^src/repro/core/tables.py:'
	@! grep -nE '\brecover_with_parity\b|\bdecode_many\(' src/repro/raid/reconstruct.py
	@! grep -rnE '_server_(traced|deadline|stream)\b|\b_bounced\b|\bframe_segments_multi\b|\b_join_payload\b|\b_wrap_deadline\b' src/repro/net/
	@! grep -rnE '\b_ChunkPlan\b' src/
	@! grep -nE 'chunking\.split\(' src/repro/core/distributor.py src/repro/fleet/shard.py
	@! grep -rnE 'np\.delete\(' src/repro/core/
	@! grep -nE '\bshard_keys\(' src/repro/core/tables.py

bench:
	PYTHONPATH=src pytest benchmarks/ --benchmark-only

# The benchmark every PR is judged by (BENCHMARK.json): every workload end
# to end, each in a fresh subprocess, then the summary table.
bench-e2e:
	python3 benchmarks/e2e/run.py

# The same workloads at smoke size with every read SHA-256 verified (what
# the CI e2e-smoke job runs): fails unless each is correct with 0 failed ops.
bench-e2e-smoke:
	set -eu; for w in $$(python3 -c "import json; print(*[w['name'] for w in json.load(open('BENCHMARK.json'))['workloads']])"); do \
		out=$$(python3 benchmarks/e2e/run.py --workload "$$w" --smoke --trace 0); echo "$$out"; \
		echo "$$out" | tail -n 1 | python3 -c "import json, sys; r = json.load(sys.stdin); sys.exit(not (r['correct'] is True and r['failed'] == 0))"; \
	done

# The data-path gate: regenerates BENCH_pipeline.json and fails if the
# RAID-5 upload does not beat the sequential_baseline recorded at 5eb68ee
# (the deleted one-request-per-shard path) >= 3x.
bench-pipeline:
	PYTHONPATH=src pytest benchmarks/test_pipeline_throughput.py --benchmark-only

# The streaming gate: regenerates BENCH_stream.json and fails if the
# multi-GB case exceeds the 64 MiB RSS ceiling or reads back a different
# SHA-256.
bench-stream:
	PYTHONPATH=src pytest benchmarks/test_pipeline_throughput.py::test_stream_throughput --benchmark-only

# The telemetry gate: regenerates BENCH_obs.json and fails if the
# instrumented data path costs more than 5% of upload throughput (10% for
# download).
bench-obs:
	PYTHONPATH=src pytest benchmarks/test_obs_overhead.py --benchmark-only

# The latency-SLO gate: regenerates BENCH_load.json and fails if the
# fixed-rate run misses p99<250ms@200, achieves less than 95% of the
# offered rate, or the saturation search cannot find the throttled knee.
bench-load:
	PYTHONPATH=src pytest benchmarks/test_load_slo.py --benchmark-only

# The erasure-codec gates: regenerates BENCH_codec.json and fails if
# rs(6,3) encode or degraded decode runs more than 15x slower than raid5
# XOR encode in the same run, or if the AONT transform costs aont-rs more
# than 10 ms/MiB (100 MB/s) on top of plain rs at the same (k, m).
bench-codec:
	PYTHONPATH=src pytest benchmarks/test_codec_throughput.py --benchmark-only

# Schema-only smoke of the load harness (what the CI load-smoke job runs):
# tiny seeded rate, validates the BENCH_load.json shape, gates no numbers.
load-smoke:
	REPRO_BENCH_SMOKE=1 PYTHONPATH=src pytest benchmarks/test_load_slo.py --benchmark-only

examples:
	for f in examples/*.py; do python $$f > /dev/null || exit 1; echo "ok $$f"; done

reproduce:
	python examples/reproduce_paper.py

clean:
	rm -rf .pytest_cache benchmarks/results .hypothesis
	find . -name __pycache__ -type d -exec rm -rf {} +
