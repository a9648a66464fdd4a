from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raid.reed_solomon import RSCode, generator_matrix


def _shards(k, size, seed=0):
    import numpy as np

    rng = np.random.default_rng(seed)
    return [rng.integers(0, 256, size=size, dtype=np.uint8).tobytes() for _ in range(k)]


def test_generator_matrix_systematic():
    import numpy as np

    g = generator_matrix(4, 2)
    assert np.array_equal(g[:4], np.eye(4, dtype=np.uint8))


def test_generator_matrix_bad_params():
    with pytest.raises(ValueError):
        generator_matrix(0, 2)
    with pytest.raises(ValueError):
        generator_matrix(3, -1)
    with pytest.raises(ValueError):
        generator_matrix(200, 100)


def test_encode_shard_count_and_size():
    code = RSCode(k=4, m=2)
    data = _shards(4, 64)
    parity = code.encode(data)
    assert len(parity) == 2
    assert all(len(p) == 64 for p in parity)


def test_encode_wrong_shard_count():
    code = RSCode(k=3, m=1)
    with pytest.raises(ValueError):
        code.encode(_shards(2, 8))


def test_encode_ragged_shards():
    code = RSCode(k=2, m=1)
    with pytest.raises(ValueError):
        code.encode([b"aa", b"bbb"])


def test_zero_parity_code():
    code = RSCode(k=3, m=0)
    assert code.encode(_shards(3, 8)) == []


@pytest.mark.parametrize("k,m", [(2, 1), (3, 2), (4, 2), (5, 3), (8, 4)])
def test_decode_from_every_k_subset(k, m):
    code = RSCode(k=k, m=m)
    data = _shards(k, 32, seed=k * 10 + m)
    parity = code.encode(data)
    everything = dict(enumerate(data + parity))
    for subset in combinations(range(k + m), k):
        available = {i: everything[i] for i in subset}
        assert code.decode(available) == data


def test_decode_insufficient_raises():
    code = RSCode(k=3, m=2)
    data = _shards(3, 16)
    parity = code.encode(data)
    with pytest.raises(ValueError):
        code.decode({0: data[0], 3: parity[0]})


def test_decode_bad_index_raises():
    code = RSCode(k=2, m=1)
    with pytest.raises(ValueError):
        code.decode({0: b"aa", 5: b"bb"})


def test_decode_ragged_shards_names_the_offender():
    code = RSCode(k=3, m=2)
    data = _shards(3, 8)
    parity = code.encode(data)
    ragged = {1: data[1], 2: data[2], 3: parity[0][:-1], 4: parity[1]}
    with pytest.raises(ValueError, match="shard 3 has 7 bytes, expected 8"):
        code.decode(ragged)
    with pytest.raises(ValueError, match="shard 3 has 7 bytes, expected 8"):
        code.reconstruct_shard(0, ragged)


def test_reconstruct_bad_index_raises():
    code = RSCode(k=2, m=1)
    with pytest.raises(ValueError, match="0..2"):
        code.reconstruct_shard(3, {0: b"aa", 1: b"bb"})


def test_generator_of_a_shared_instance_is_read_only():
    # _rs_code caches instances process-wide; an in-place edit of the
    # generator would corrupt every later stripe.
    code = RSCode(k=4, m=2)
    with pytest.raises(ValueError, match="read-only"):
        code.matrix[4, 0] ^= 1
    assert not code.matrix[4:].flags.writeable


def test_reconstruct_each_shard():
    code = RSCode(k=4, m=2)
    data = _shards(4, 16, seed=5)
    parity = code.encode(data)
    everything = dict(enumerate(data + parity))
    for index in range(6):
        survivors = {i: s for i, s in everything.items() if i != index}
        assert code.reconstruct_shard(index, survivors) == everything[index]


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=1, max_value=3),
    st.binary(min_size=0, max_size=64),
)
def test_property_roundtrip_random_losses(k, m, blob):
    size = max(1, -(-len(blob) // k))
    padded = blob + b"\x00" * (k * size - len(blob))
    data = [padded[i * size : (i + 1) * size] for i in range(k)]
    code = RSCode(k=k, m=m)
    parity = code.encode(data)
    everything = dict(enumerate(data + parity))
    # Drop the last m shards (worst case: all data shards if m >= k).
    survivors = {i: everything[i] for i in sorted(everything)[m:]}
    if len(survivors) >= k:
        assert code.decode(survivors) == data
