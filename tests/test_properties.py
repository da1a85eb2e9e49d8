"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import given, settings, strategies as st

from repro.assembly.registry import registry
from repro.core import codec
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind, Inode
from repro.core.scheduler import Delay, FifoSchedulingPolicy, Scheduler
from repro.core.storage.allocator import BlockAllocator
from repro.config import CacheConfig
from repro.core.cache import BlockCache
from repro.core.driver import IOKind, IORequest
from repro.analysis.cdf import cumulative_distribution, fraction_at_or_below
from repro.core.namespace import normalize_path, split_path
from repro.patsy.diskspec import HP97560


# --------------------------------------------------------------------------- codec round trips


@given(
    number=st.integers(min_value=1, max_value=2**31 - 1),
    size=st.integers(min_value=0, max_value=2**40),
    nlink=st.integers(min_value=0, max_value=1000),
    block_map=st.dictionaries(
        st.integers(min_value=0, max_value=2**20),
        st.integers(min_value=0, max_value=2**40),
        max_size=50,
    ),
    kind=st.sampled_from(list(FileKind)),
    target=st.text(max_size=40).filter(lambda s: "\x00" not in s),
)
@settings(max_examples=60, deadline=None)
def test_inode_codec_roundtrip(number, size, nlink, block_map, kind, target):
    inode = Inode(
        number=number, kind=kind, size=size, nlink=nlink, block_map=dict(block_map),
        symlink_target=target,
    )
    unpacked = codec.unpack_inode(codec.pack_inode(inode))
    assert unpacked.number == number
    assert unpacked.size == size
    assert unpacked.block_map == block_map
    assert unpacked.symlink_target == target
    assert unpacked.kind is kind


@given(
    entries=st.dictionaries(
        st.text(
            alphabet=st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=32,
        ),
        st.integers(min_value=1, max_value=2**31 - 1),
        max_size=40,
    )
)
@settings(max_examples=60, deadline=None)
def test_directory_codec_roundtrip(entries):
    assert codec.unpack_directory(codec.pack_directory(entries)) == entries


@given(
    inode_map=st.dictionaries(
        st.integers(min_value=1, max_value=10_000),
        st.tuples(st.integers(min_value=0, max_value=2**40), st.integers(min_value=1, max_value=16)),
        max_size=30,
    ),
    usage=st.dictionaries(
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=2**30),
        max_size=30,
    ),
)
@settings(max_examples=40, deadline=None)
def test_checkpoint_codec_roundtrip(inode_map, usage):
    packed = codec.pack_checkpoint(1.5, 99, 3, inode_map, usage)
    fields = codec.unpack_checkpoint(packed)
    assert fields["inode_map"] == inode_map
    assert fields["segment_usage"] == usage


# --------------------------------------------------------------------------- allocator invariants


@given(st.lists(st.sampled_from(["alloc", "free"]), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_allocator_never_double_allocates(operations):
    allocator = BlockAllocator(first_block=100, num_blocks=32)
    allocated = set()
    for op in operations:
        if op == "alloc" and allocator.free_count > 0:
            address = allocator.allocate()
            assert address not in allocated
            allocated.add(address)
        elif op == "free" and allocated:
            address = allocated.pop()
            allocator.free(address)
        assert allocator.free_count + len(allocated) == 32


# --------------------------------------------------------------------------- I/O schedulers


@given(
    sectors=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=40),
    head=st.integers(min_value=0, max_value=100_000),
    policy=st.sampled_from(["fcfs", "clook", "look", "scan", "cscan", "scan-edf"]),
)
@settings(max_examples=60, deadline=None)
def test_io_schedulers_serve_every_request_exactly_once(sectors, head, policy):
    scheduler = registry.create("iosched", policy)
    requests = [IORequest(kind=IOKind.READ, sector=s, count=1) for s in sectors]
    for request in requests:
        scheduler.add(request)
    served = []
    position = head
    while len(scheduler):
        request = scheduler.next(position)
        assert request is not None
        served.append(request)
        position = request.sector
    assert len(served) == len(requests)
    assert {id(r) for r in served} == {id(r) for r in requests}


# --------------------------------------------------------------------------- scheduler time


@given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=20))
@settings(max_examples=40, deadline=None)
def test_scheduler_time_is_monotone_and_reaches_max_delay(delays):
    scheduler = Scheduler(clock=VirtualClock(), policy=FifoSchedulingPolicy())
    observed = []

    def sleeper(duration):
        yield Delay(duration)
        observed.append(scheduler.now)

    for delay in delays:
        scheduler.spawn(sleeper, delay)
    scheduler.run()
    assert scheduler.now >= max(delays) - 1e-9
    assert all(b >= a - 1e-9 for a, b in zip(observed, observed[1:]))


# --------------------------------------------------------------------------- cache invariants


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["alloc", "dirty", "clean", "invalidate"]),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=7),
        ),
        min_size=1,
        max_size=80,
    )
)
@settings(max_examples=40, deadline=None)
def test_cache_list_accounting_invariant(operations):
    scheduler = Scheduler(clock=VirtualClock(), policy=FifoSchedulingPolicy())
    cache = BlockCache(scheduler, CacheConfig(size_bytes=16 * 4096), with_data=False)

    def writeback(file_id, block_nos):
        return
        yield  # pragma: no cover

    cache.writeback = writeback

    def body():
        for op, file_id, block_no in operations:
            block = cache.peek(file_id, block_no)
            if op == "alloc" and block is None:
                yield from cache.allocate(file_id, block_no)
            elif op == "dirty" and block is not None:
                yield from cache.mark_dirty(block)
            elif op == "clean" and block is not None:
                cache.mark_clean(block)
            elif op == "invalidate" and block is not None:
                cache.invalidate(block)
            assert cache.free_count + cache.clean_count + cache.dirty_count == cache.num_blocks
            assert cache.cached_count == cache.clean_count + cache.dirty_count

    thread = scheduler.spawn(body)
    scheduler.run_until_complete(thread)


# --------------------------------------------------------------------------- misc


@given(st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=200))
@settings(max_examples=50, deadline=None)
def test_cdf_is_monotone_and_complete(values):
    cdf = cumulative_distribution(values, points=50)
    fractions = [f for _, f in cdf]
    xs = [x for x, _ in cdf]
    assert xs == sorted(xs)
    assert fractions == sorted(fractions)
    assert fractions[-1] == 1.0
    assert fraction_at_or_below(values, max(values)) == 1.0


@given(st.integers(min_value=0, max_value=HP97560.num_sectors - 1))
@settings(max_examples=60, deadline=None)
def test_disk_decompose_within_geometry(sector):
    cylinder, head, sector_in_track = HP97560.decompose(sector)
    assert 0 <= cylinder < HP97560.cylinders
    assert 0 <= head < HP97560.heads
    assert 0 <= sector_in_track < HP97560.sectors_per_track


@given(
    st.lists(
        st.text(
            alphabet=st.characters(blacklist_characters="/\x00", blacklist_categories=("Cs",)),
            min_size=1,
            max_size=8,
        ).filter(lambda s: s not in (".", "..")),
        max_size=6,
    )
)
@settings(max_examples=50, deadline=None)
def test_path_normalisation_idempotent(components):
    path = "/" + "/".join(components)
    assert split_path(path) == components
    assert normalize_path(normalize_path(path)) == normalize_path(path)
