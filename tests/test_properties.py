"""Property-based tests (hypothesis) on core data structures and invariants."""

import io

from hypothesis import example, given, settings, strategies as st

from repro.assembly.registry import registry
from repro.core import codec
from repro.core.clock import VirtualClock
from repro.core.inode import FileKind, Inode
from repro.core.scheduler import Delay, FifoSchedulingPolicy, Scheduler
from repro.config import CacheConfig
from repro.core.blocks import BlockId, BlockState
from repro.core.cache import BlockCache
from repro.core.driver import IOKind, IORequest
from repro.analysis.cdf import cumulative_distribution, fraction_at_or_below
from repro.core.client import AbstractClientInterface
from repro.core.filetypes import DirectoryFile, SymlinkFile
from repro.core.namespace import MAX_SYMLINK_DEPTH, Namespace, normalize_path, split_path
from repro.core.replacement import ArcPolicy, _DList
from repro.errors import FileNotFound, FileSystemError, InvalidArgument, NotADirectory, TraceError
from repro.patsy.diskspec import HP97560
from repro.patsy.traces import TRACE_OPERATIONS, TraceReader
from tests.conftest import make_memory_filesystem, run
from tests.test_replacement import make_block


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


# --------------------------------------------------------------------------- I/O schedulers


@given(
    sectors=st.lists(st.integers(min_value=0, max_value=100_000), min_size=1, max_size=40),
    head=st.integers(min_value=0, max_value=100_000),
    policy=st.sampled_from(registry.names("iosched")),
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

    def writeback(batch):
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


def listed(dlist) -> list:
    """The blocks on one of a policy's lists, head to tail, with their links
    and ``segment`` checked on the way."""
    blocks, node = [], dlist
    while (node := node.next) is not dlist:
        assert node.segment is dlist and node.next.prev is node and node.home is None
        blocks.append(node)
    assert len(blocks) == len(dlist)
    return blocks


@given(
    replacement=st.sampled_from(["lru", "arc"]),
    operations=st.lists(
        st.tuples(
            # Inserts, dirtyings and cleanings drawn more often than the
            # events that take blocks away, so the cache stays busy.
            st.sampled_from(["insert"] * 3 + ["access", "evict", "invalidate", "forget"]
                            + ["dirty", "clean"] * 2),
            st.integers(min_value=0, max_value=1),
            st.integers(min_value=0, max_value=4),
        ),
        min_size=10,
        max_size=120,
    ),
)
@example(replacement="lru", operations=[("insert", 0, 0), ("dirty", 0, 0), ("clean", 0, 0)])
# A parked block re-referenced under ARC, cleaned after an eviction, then
# its file's ghosts forgotten.
@example(replacement="arc", operations=[("insert", 0, n) for n in range(5)] + [
    ("insert", 1, 0), ("dirty", 0, 1), ("access", 0, 1), ("evict", 0, 0),
    ("clean", 0, 1), ("forget", 0, 3), ("insert", 0, 0),
])
@settings(max_examples=100, deadline=None)
def test_each_cached_block_is_one_record_in_its_policy(replacement, operations):
    """Each resident block is its own node in its replacement policy: after
    every step of a random history, the policy's lists hold exactly the
    clean residents, the parked blocks (off the lists, with a home) are
    exactly the dirty ones, a free slot is on no list, and the counts
    agree with the cache's."""
    scheduler = Scheduler(clock=VirtualClock(), policy=FifoSchedulingPolicy())
    cache = BlockCache(
        scheduler, CacheConfig(size_bytes=6 * 4096, replacement=replacement), with_data=False
    )
    policy = cache.policy
    lists = [value for value in vars(policy).values() if isinstance(value, _DList)]
    spare = iter(range(1000))  # block numbers of file 9, allocated only to evict

    for op, file_id, block_no in operations:
        block = cache.peek(file_id, block_no)
        if op == "insert" and block is None:
            cache.allocate_now(file_id, block_no)
        elif op == "access" and block is not None:
            cache.lookup(file_id, block_no)
        elif op == "dirty" and block is not None:
            assert cache.mark_dirty_now(block)
        elif op == "clean" and block is not None:
            cache.mark_clean(block)
        elif op == "evict" and cache.free_count == 0:
            # A replacement eviction (with its ghost), then the slot is freed.
            fresh = cache.allocate_now(9, next(spare))
            if fresh is not None:
                cache.invalidate(fresh)
        elif op == "invalidate" and block is not None:
            cache.invalidate(block)
        elif op == "forget":
            cache.invalidate_file(file_id, block_no)

        residents = [slot for slot in cache.blocks() if slot.block_id is not None]
        on_lists = [block for dlist in lists for block in listed(dlist)]
        assert len(on_lists) == len(set(map(id, on_lists)))
        assert {id(b) for b in on_lists} == {id(b) for b in residents if b.is_clean}
        parked = [b for b in residents if b.segment is None]
        assert all(b.home in lists for b in parked)
        assert {id(b) for b in parked} == {id(b) for b in residents if b.is_dirty}
        assert all(b.segment is b.home is None for b in cache.blocks() if b.is_free)
        assert policy.resident_count == cache.cached_count == len(residents)
        assert cache.clean_count == cache.cached_count - cache.dirty_count
        assert cache.clean_count == sum(b.is_clean for b in residents)


#: resident blocks of the ARC history test: small, so ghosts pile up fast.
ARC_CAPACITY = 6


@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["insert", "access", "dirty", "clean", "evict", "invalidate", "forget"]),
            st.integers(min_value=0, max_value=3),
            st.integers(min_value=0, max_value=5),
        ),
        min_size=1,
        max_size=150,
    )
)
# A block cleaned after an eviction pushes T1 + B1 past c until the next trim.
@example(operations=[("insert", 0, n) for n in range(6)]
         + [("dirty", 0, 5), ("insert", 1, 0), ("clean", 0, 5), ("forget", 3, 0), ("insert", 2, 0)])
@settings(max_examples=80, deadline=None)
def test_arc_ghost_index_matches_a_full_scan(operations):
    """After every step of a random history, ARC's per-file ghost index
    holds exactly the ghosts of that file, ``forget_file`` leaves what a
    scan of every ghost would, and the ghost lists keep ARC's bounds.

    ARC trims its ghosts on every insert and every eviction; a cleaned
    block returns to its list without one, so each clean since the last
    trim may hold the sizes one block over their bounds."""
    policy = ArcPolicy(ARC_CAPACITY)
    resident = {}
    cleaned_since_trim = 0

    def evict(incoming=None):
        nonlocal cleaned_since_trim
        victim = policy.victim(incoming=incoming)
        if victim is not None:
            policy.on_evict(victim, ghost=True)
            del resident[victim.block_id]
            cleaned_since_trim = 0
        return victim

    def ghosts():
        b1, b2 = policy.ghost_lists()
        return set(b1) | set(b2)

    for op, file_id, block_no in operations:
        key = BlockId(file_id, block_no)
        block = resident.get(key)
        ghosts_before = ghosts()
        if op == "insert" and block is None:
            if len(resident) < ARC_CAPACITY or evict(incoming=key) is not None:
                resident[key] = make_block(file_id, block_no)
                policy.on_insert(resident[key])
                cleaned_since_trim = 0
        elif op == "access" and block is not None:
            policy.on_access(block)
        elif op == "dirty" and block is not None and block.is_clean:
            block.state = BlockState.DIRTY
            policy.on_dirty(block)
        elif op == "clean" and block is not None and block.is_dirty:
            block.state = BlockState.CLEAN
            policy.on_clean(block)
            cleaned_since_trim += 1
            assert ghosts() == ghosts_before
        elif op == "evict":
            evict()
        elif op == "invalidate" and block is not None:
            policy.on_evict(resident.pop(key), ghost=False)
        elif op == "forget":
            b1, b2 = policy.ghost_lists()

            def survives(k):
                return not (k.file_id == file_id and k.block_no >= block_no)

            policy.forget_file(file_id, block_no)
            assert policy.ghost_lists() == ([k for k in b1 if survives(k)], [k for k in b2 if survives(k)])
            assert ghosts() == {k for k in ghosts_before if survives(k)}

        # The index holds every ghost, once, under its file, and names the
        # list it is on.
        b1, b2 = policy.ghost_lists()
        assert not set(b1) & set(b2)
        everyone = set(b1) | set(b2)
        files = {k.file_id for k in everyone}
        assert set(policy._ghosts_of) == files
        for f in files:
            by_file = policy._ghosts_of[f]
            assert {BlockId(f, no) for no in by_file} == {k for k in everyone if k.file_id == f}
            assert all(BlockId(f, no) in of for no, of in by_file.items())
        snap = policy.snapshot()
        assert snap["t1"] + snap["b1_ghosts"] <= ARC_CAPACITY + cleaned_since_trim
        total = snap["t1"] + snap["t2"] + snap["b1_ghosts"] + snap["b2_ghosts"]
        assert total <= 2 * ARC_CAPACITY + cleaned_since_trim


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


# --------------------------------------------------------------------------- path resolution
#
# ``Namespace.resolve`` walks what is already in memory with plain calls and
# leaves the rest to its generator loop.  The reference below is that loop
# alone, every component through ``DirectoryFile.lookup`` and
# ``FileTable.load``; both must agree on everything a caller can observe.


def reference_resolve(namespace, path, follow_symlinks=True, depth=0):
    if depth > MAX_SYMLINK_DEPTH:
        raise InvalidArgument(f"too many levels of symbolic links resolving {path!r}")
    namespace.lookups += 1
    current = namespace.fs.root_directory()
    components = split_path(path)
    for index, name in enumerate(components):
        if not isinstance(current, DirectoryFile):
            raise NotADirectory(f"{'/'.join(components[:index]) or '/'} is not a directory")
        inode_number = yield from current.lookup(name)
        if inode_number is None:
            raise FileNotFound(f"no such file or directory: {path!r}")
        parent_id = current.file_id
        current = yield from namespace.fs.file_table.load(inode_number)
        if current.parent_id is None:
            current.parent_id = parent_id
        is_last = index == len(components) - 1
        if isinstance(current, SymlinkFile) and (follow_symlinks or not is_last):
            namespace.symlinks_followed += 1
            target = current.target
            if not target.startswith("/"):
                target = "/".join(["/".join(components[:index])] + [target])
            remainder = "/".join(components[index + 1 :])
            full = target if not remainder else target.rstrip("/") + "/" + remainder
            return (yield from reference_resolve(namespace, full, follow_symlinks, depth + 1))
    return current


NAMES = ("a", "b", "c")
TREE_PATHS = st.lists(st.sampled_from(NAMES), min_size=1, max_size=3).map(lambda parts: "/" + "/".join(parts))
LINK_TARGETS = st.one_of(
    TREE_PATHS,  # absolute
    st.lists(st.sampled_from(NAMES + (".",)), min_size=1, max_size=2).map("/".join),  # relative
)
TREE_STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("mkdir"), TREE_PATHS),
        st.tuples(st.just("create"), TREE_PATHS),
        st.tuples(st.just("symlink"), TREE_PATHS, LINK_TARGETS),
    ),
    min_size=1,
    max_size=14,
)
#: a path of its own, or (by index) one the tree was built with; a tail to
#: go on below it; whether to follow a final symbolic link.
QUERIES = st.lists(
    st.tuples(
        st.one_of(
            st.lists(st.sampled_from(NAMES + (".", "")), max_size=5).map(lambda parts: "/" + "/".join(parts)),
            st.integers(0, 30),
        ),
        st.sampled_from(("", "", "/a", "/b/c", "/.")),
        st.booleans(),
    ),
    min_size=1,
    max_size=8,
)


def _tree(steps, dropped_entries, forgotten, reloaded=()):
    """A mounted file system holding ``steps``, synced, with some of it
    pushed back out of memory: directories whose entries must be read again,
    inodes the file table no longer holds, and inodes loaded again by number
    (in the table, but not yet linked to the directory they are in)."""
    scheduler = Scheduler(clock=VirtualClock(), seed=3)
    fs = make_memory_filesystem(scheduler, disk_mb=2)
    run(scheduler, fs.mount, True)
    client = AbstractClientInterface(fs)

    def build():
        for step in steps:
            try:
                if step[0] == "mkdir":
                    yield from client.mkdir(step[1])
                elif step[0] == "create":
                    yield from client.close((yield from client.create(step[1])))
                else:
                    yield from client.symlink(step[2], step[1])
            except FileSystemError:
                pass  # exists already, no such parent, a file in the way
        yield from fs.sync()

    run(scheduler, build)
    loaded = [file for file in fs.file_table.loaded_files if file is not fs.root_directory()]
    for index in dropped_entries:
        file = loaded[index % len(loaded)] if loaded else fs.root_directory()
        if isinstance(file, DirectoryFile):
            file._entries = None
    for index in list(forgotten) + list(reloaded):
        if loaded:
            fs.file_table.forget(loaded[index % len(loaded)].file_id)
    for index in reloaded:
        if loaded:
            run(scheduler, fs.file_table.load, loaded[index % len(loaded)].file_id)
    return scheduler, fs


def _observe(scheduler, fs, resolve, queries):
    seen = []
    for path, follow in queries:
        try:
            file = run(scheduler, resolve, fs.namespace, path, follow)
            outcome = ("file", file.file_id, type(file).__name__)
        except FileSystemError as error:
            outcome = (type(error).__name__, str(error))
        seen.append((
            outcome,
            fs.namespace.lookups,
            fs.namespace.symlinks_followed,
            sorted((file.file_id, file.parent_id) for file in fs.file_table.loaded_files),
        ))
    return seen


@given(
    steps=TREE_STEPS,
    dropped_entries=st.lists(st.integers(0, 20), max_size=3),
    forgotten=st.lists(st.integers(0, 20), max_size=3),
    reloaded=st.lists(st.integers(0, 20), max_size=3),
    queries=QUERIES,
)
@example(  # a loop of links, past MAX_SYMLINK_DEPTH
    steps=[("symlink", "/a", "/b"), ("symlink", "/b", "a")], dropped_entries=[], forgotten=[],
    reloaded=[], queries=[(0, "", True), (0, "", False), (1, "/c", False)],
)
@example(  # a file in the middle of a path; its directory read back from disk
    steps=[("mkdir", "/a"), ("create", "/a/b"), ("symlink", "/c", "a/b")], dropped_entries=[0],
    forgotten=[1], reloaded=[], queries=[(1, "/c", True), (2, "", True), (2, "/a", True), (1, "", True)],
)
@example(  # in the file table, but loaded by number: the walk links it to its directory
    steps=[("mkdir", "/a"), ("create", "/a/b")], dropped_entries=[], forgotten=[], reloaded=[0, 1],
    queries=[(1, "", True)],
)
@settings(max_examples=60, deadline=None)
def test_in_core_walk_resolves_like_the_generator_alone(
    steps, dropped_entries, forgotten, reloaded, queries
):
    queries = [
        ((steps[path % len(steps)][1] if isinstance(path, int) else path) + tail, follow)
        for path, tail, follow in queries
    ]
    evicted = (dropped_entries, forgotten, reloaded)
    walked = _observe(*_tree(steps, *evicted), Namespace.resolve, queries)
    reference = _observe(*_tree(steps, *evicted), reference_resolve, queries)
    assert walked == reference


# --------------------------------------------------------------------------- trace lines
#
# ``TraceReader`` builds the record of a well-formed line itself;
# ``TraceReader.parse_line`` — ``TraceRecord(...)``, the dataclass's own
# constructor and checks — is the reference, also for what to say about a
# malformed one.

FIELD_TEXT = st.text(
    alphabet=st.characters(blacklist_characters="\t\n", blacklist_categories=("Cs",)), max_size=12
)
NUMBER_TEXT = st.one_of(
    st.integers(-5, 10**7).map(str),
    st.floats(allow_nan=True, allow_infinity=True, width=32).map(repr),
    st.floats(min_value=0.0, max_value=1e6).map(lambda value: f"{value:.6f}"),
    st.sampled_from(["", " 7", "0x10", "1_000", "+3", "abc"]),
)
TRACE_LINES = st.one_of(
    # mostly well-formed ...
    st.tuples(
        NUMBER_TEXT, NUMBER_TEXT, st.sampled_from(sorted(TRACE_OPERATIONS) + ["bogus", ""]),
        FIELD_TEXT, NUMBER_TEXT, NUMBER_TEXT, FIELD_TEXT,
    ).map("\t".join),
    # ... and any number of any fields.
    st.lists(st.one_of(NUMBER_TEXT, FIELD_TEXT), max_size=9).map("\t".join),
)


def _read(parse):
    try:
        record = parse()
    except TraceError as error:
        return str(error)
    return type(record), vars(record), [(name, type(value)) for name, value in vars(record).items()]


@given(line=TRACE_LINES)
@settings(max_examples=400, deadline=None)
def test_reader_builds_the_record_parse_line_would(line):
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        assert list(TraceReader(io.StringIO(line + "\n"))) == []
        return
    read = _read(lambda: next(iter(TraceReader(io.StringIO("# header\n" + line + "\n")))))
    reference = _read(lambda: TraceReader.parse_line(stripped, 2))
    # NaN timestamps are accepted by both and compare unequal to themselves.
    assert repr(read) == repr(reference)
    if not isinstance(read, str):
        record = TraceReader.parse_line(stripped, 2)
        if record.timestamp == record.timestamp:
            assert next(iter(TraceReader(io.StringIO(line + "\n")))) == record
            assert hash(next(iter(TraceReader(io.StringIO(line + "\n"))))) == hash(record)
