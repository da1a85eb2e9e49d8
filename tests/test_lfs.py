"""The segmented log-structured layout: log writes, IFILE, checkpoint, cleaning."""

import pytest

from repro.core.blocks import CacheBlock
from repro.core.inode import FileKind, ROOT_INODE_NUMBER
from repro.core.storage.cleaner import CostBenefitCleaner, GreedyCleaner
from repro.core.storage.lfs import LogStructuredLayout
from repro.core.storage.volume import LocalVolume
from repro.errors import StorageError
from repro.pfs.diskfile import MemoryBackedDiskDriver
from repro.units import KB, MB
from tests.conftest import record_write_runs, run


def make_layout(scheduler, simulated=False, disk_mb=8, segment_blocks=8, disks=1, seed=0):
    drivers = [
        MemoryBackedDiskDriver(scheduler, size_bytes=disk_mb * MB, name=f"d{i}")
        for i in range(disks)
    ]
    volume = LocalVolume(drivers, block_size=4 * KB)
    layout = LogStructuredLayout(
        scheduler,
        volume,
        block_size=4 * KB,
        segment_blocks=segment_blocks,
        simulated=simulated,
        seed=seed,
    )
    run(scheduler, layout.format)
    run(scheduler, layout.mount)
    return layout


def data_block(payload=b"", with_data=True):
    block = CacheBlock(0, 4 * KB, with_data=with_data)
    if with_data and payload:
        block.data[: len(payload)] = payload
    return block


def test_geometry(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    assert layout.num_segments >= 2
    assert layout.free_segment_count <= layout.num_segments
    assert layout.segment_of(layout.segment_start(0)) == 0
    assert layout.segment_of(0) == -1  # the superblock is outside any segment


def test_allocate_inode_numbers_increase(scheduler):
    layout = make_layout(scheduler)
    first = layout.allocate_inode(FileKind.REGULAR)
    second = layout.allocate_inode(FileKind.DIRECTORY)
    assert first.number == ROOT_INODE_NUMBER
    assert second.number == first.number + 1
    assert set(layout.known_inode_numbers()) >= {first.number, second.number}


def test_write_and_read_inode_roundtrip(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    inode.size = 12345
    run(scheduler, layout.write_inode, inode)
    assert inode.number in layout.inode_map
    # Force a re-read from disk.
    layout._inode_objects.clear()
    loaded = run(scheduler, layout.read_inode, inode.number)
    assert loaded.size == 12345
    assert loaded.kind is FileKind.REGULAR


def test_read_unknown_inode_raises(scheduler):
    layout = make_layout(scheduler)
    with pytest.raises(StorageError):
        run(scheduler, layout.read_inode, 999)


def test_write_file_blocks_appends_to_log(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    blocks = [(0, data_block(b"zero")), (1, data_block(b"one"))]
    run(scheduler, layout.write_file_blocks, inode, blocks)
    assert inode.get_block_address(0) is not None
    assert inode.get_block_address(1) == inode.get_block_address(0) + 1
    used_segment = layout.segment_of(inode.get_block_address(0))
    assert layout.segment_usage[used_segment] >= 2


def test_file_block_roundtrip_real_data(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, inode, [(0, data_block(b"payload-0"))])
    target = data_block()
    assert run(scheduler, layout.read_file_blocks, inode, [(0, target)]) == 1
    assert bytes(target.data[:9]) == b"payload-0"


def test_hole_read_returns_false_for_real_layout(scheduler):
    layout = make_layout(scheduler, simulated=False)
    inode = layout.allocate_inode(FileKind.REGULAR)
    reads = layout.stats.disk_reads
    assert run(scheduler, layout.read_file_blocks, inode, [(5, data_block())]) == 0
    assert layout.stats.disk_reads == reads


def test_simulated_layout_synthesizes_addresses(scheduler):
    layout = make_layout(scheduler, simulated=True)
    inode = layout.allocate_inode(FileKind.REGULAR)
    block = CacheBlock(0, 4 * KB, with_data=False)
    assert run(scheduler, layout.read_file_blocks, inode, [(3, block)]) == 1
    assert layout.stats.synthesized_addresses == 1
    # The synthesised address is stable across repeated reads.
    address = layout.synthesize_address(inode.number, 3)
    assert layout.synthesize_address(inode.number, 3) == address


def test_synthetic_files_are_extents_drawn_from_seed_and_inode(scheduler):
    """A file the simulator never saw written is placed once, as a file:
    block k sits k blocks behind the base, and the base depends on the seed
    and the inode number only — not on which file was touched first."""
    layout = make_layout(scheduler, simulated=True, seed=5)
    addresses = [layout.synthesize_address(7, k) for k in range(6)]
    assert addresses == list(range(addresses[0], addresses[0] + 6))
    assert layout.stats.synthesized_addresses == 1  # one draw for the file

    twin = make_layout(scheduler, simulated=True, seed=5)
    twin.synthesize_address(9, 0)  # another file first, and blocks out of order
    assert [twin.synthesize_address(7, k) for k in (5, 0, 3)] == [
        addresses[5], addresses[0], addresses[3],
    ]
    other_seed = make_layout(scheduler, simulated=True, seed=6)
    assert other_seed.synthesize_address(7, 0) != addresses[0]
    assert layout.synthesize_address(8, 0) != addresses[0]

    # Truncate and regrow: the addresses stick.
    inode = layout.allocate_inode(FileKind.REGULAR)
    before = [layout.synthesize_address(inode.number, k) for k in range(4)]
    run(scheduler, layout.release_blocks, inode, 1)
    assert [layout.synthesize_address(inode.number, k) for k in range(4)] == before


def test_a_synthetic_extent_never_straddles_a_disk_or_the_volume_end(scheduler):
    # Three 1-MB disks of 256 blocks: a 40-block file drawn anywhere runs
    # off its disk about one time in six, so both cases are exercised.
    layout = make_layout(scheduler, simulated=True, disk_mb=1, disks=3, segment_blocks=8)
    volume = layout.volume
    continued = 0
    for inode_number in range(2, 200):
        addresses = [layout.synthesize_address(inode_number, k) for k in range(40)]
        assert all(1 <= address < volume.total_blocks for address in addresses)
        for previous, address in zip(addresses, addresses[1:]):
            if address == previous + 1:  # same extent: same disk
                assert volume.disk_of(address) == volume.disk_of(previous)
            else:  # the file continues in a new extent, on whatever disk
                continued += 1
                assert previous + 1 == volume.total_blocks or (
                    volume.disk_of(previous) != volume.disk_of(previous + 1)
                )
        # Stable on a second pass, in any order.
        assert [layout.synthesize_address(inode_number, k) for k in reversed(range(40))] == (
            addresses[::-1]
        )
    assert 5 < continued < 100


def test_overwrite_kills_old_blocks(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, inode, [(0, data_block(b"v1"))])
    first_address = inode.get_block_address(0)
    first_inode_address = layout.inode_map[inode.number][0]
    # One data block and, right behind it, the inode that maps it.
    assert sum(layout.segment_usage.values()) == 2
    run(scheduler, layout.write_file_blocks, inode, [(0, data_block(b"v2"))])
    # The log never overwrites in place: block and inode moved, the old
    # copies died.
    assert inode.get_block_address(0) != first_address
    assert layout.inode_map[inode.number][0] != first_inode_address
    assert sum(layout.segment_usage.values()) == 2


def test_release_blocks_frees_segment_usage(scheduler):
    layout = make_layout(scheduler)
    inode = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"x")) for i in range(3)])
    segment = layout.segment_of(inode.get_block_address(0))
    run(scheduler, layout.release_blocks, inode, 0)
    assert inode.block_count == 0
    assert layout.segment_usage[segment] == 1  # the inode is still live
    run(scheduler, layout.free_inode, inode)
    assert layout.segment_usage[segment] == 0


def test_segment_rollover(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = layout.allocate_inode(FileKind.REGULAR)
    blocks = [(i, data_block(bytes([i]))) for i in range(20)]
    run(scheduler, layout.write_file_blocks, inode, blocks)
    segments_used = {layout.segment_of(addr) for addr in inode.block_map.values()}
    assert len(segments_used) >= 3


def test_checkpoint_and_remount_restores_state(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = layout.allocate_inode(FileKind.REGULAR)
    inode.size = 3 * 4 * KB
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"abc")) for i in range(3)])
    run(scheduler, layout.checkpoint)

    # A fresh layout object over the same volume must see the same metadata.
    reloaded = LogStructuredLayout(
        scheduler, layout.volume, block_size=4 * KB, segment_blocks=8, simulated=False
    )
    run(scheduler, reloaded.mount)
    assert inode.number in reloaded.inode_map
    loaded = run(scheduler, reloaded.read_inode, inode.number)
    assert loaded.size == inode.size
    assert loaded.block_map == inode.block_map


def test_mount_rejects_mismatched_block_size(scheduler):
    layout = make_layout(scheduler)
    run(scheduler, layout.checkpoint)
    other = LogStructuredLayout(
        scheduler, layout.volume, block_size=4 * KB, segment_blocks=8, simulated=False
    )
    other.block_size = 8 * KB  # simulate misconfiguration after construction
    with pytest.raises(StorageError):
        run(scheduler, other.mount)


def test_clean_segment_copies_live_blocks(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = layout.allocate_inode(FileKind.REGULAR)
    # Fill one segment, then overwrite half the blocks so the segment is half dead.
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"old")) for i in range(6)])
    victim_segment = layout.segment_of(inode.get_block_address(0))
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"new")) for i in range(3)])
    free_before = layout.free_segment_count
    copied, examined = run(scheduler, layout.clean_segment, victim_segment)
    assert examined >= copied >= 1
    assert victim_segment in layout.free_segments
    assert layout.free_segment_count >= free_before
    # All live block addresses moved out of the cleaned segment.
    assert all(layout.segment_of(addr) != victim_segment for addr in inode.block_map.values())


def test_segment_infos_exclude_free_and_active(scheduler):
    layout = make_layout(scheduler)
    infos = layout.segment_infos()
    indices = {info.index for info in infos}
    assert layout._active_segment not in indices
    for segment in layout.free_segments:
        assert segment not in indices


def test_cleaner_policies_choose_sensibly(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)
    inode = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"d")) for i in range(14)])
    # Kill most of the first segment.
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"n")) for i in range(6)])
    infos = layout.segment_infos()
    greedy_choice = GreedyCleaner().choose(infos, now=scheduler.now)
    cb_choice = CostBenefitCleaner().choose(infos, now=scheduler.now)
    assert greedy_choice is not None and cb_choice is not None
    assert greedy_choice.live_blocks == min(info.live_blocks for info in infos)


# --------------------------------------------------------------------------- one append per writeback


@pytest.mark.parametrize("simulated", [False, True])
def test_writeback_that_fits_is_one_write_run_with_the_inode_behind_the_data(
    scheduler, simulated
):
    layout = make_layout(scheduler, simulated=simulated, segment_blocks=16)
    inode = layout.allocate_inode(FileKind.REGULAR)
    runs = record_write_runs(layout.volume)
    blocks = [(i, data_block(bytes([i + 1]), with_data=not simulated)) for i in range(5)]
    run(scheduler, layout.write_file_blocks, inode, blocks)
    data_start = inode.get_block_address(0)
    assert [inode.get_block_address(i) for i in range(5)] == list(
        range(data_start, data_start + 5)
    )
    # Same component, both worlds: N data blocks + the inode at data_end.
    assert runs == [(data_start, 6)]
    assert layout.inode_map[inode.number] == (data_start + 5, 1)
    assert layout.stats.disk_writes == (1 if simulated else 2)  # + format's superblock
    assert (layout.stats.blocks_written, layout.stats.inodes_written) == (5, 1)
    if not simulated:
        # The inode on disk was packed after the addresses were assigned.
        layout._inode_objects.clear()
        loaded = run(scheduler, layout.read_inode, inode.number)
        assert loaded.block_map == inode.block_map
        target = data_block()
        run(scheduler, layout.read_file_blocks, loaded, [(4, target)])
        assert target.data[0] == 5


def test_writeback_straddling_a_segment_end_costs_two_write_runs(scheduler):
    layout = make_layout(scheduler, segment_blocks=8)  # 7 usable blocks
    first = layout.allocate_inode(FileKind.REGULAR)
    run(scheduler, layout.write_file_blocks, first, [(i, data_block(b"a")) for i in range(3)])
    inode = layout.allocate_inode(FileKind.REGULAR)
    runs = record_write_runs(layout.volume)
    # 3 blocks left in the active segment; 5 data blocks + inode need 6.
    run(scheduler, layout.write_file_blocks, inode, [(i, data_block(b"b")) for i in range(5)])
    summary_writes = [r for r in runs if r[1] == 1 and layout.segment_start(layout.segment_of(r[0])) == r[0]]
    appends = [r for r in runs if r not in summary_writes]
    assert len(summary_writes) == 1  # the sealed segment's summary
    assert [count for _addr, count in appends] == [3, 3]
    # The inode sits right behind the last data run, in the same write.
    inode_address, inode_blocks = layout.inode_map[inode.number]
    assert inode_blocks == 1
    assert inode_address == inode.get_block_address(4) + 1
    assert appends[1] == (inode.get_block_address(3), 3)


def test_inode_is_never_split_from_its_data_by_a_checkpoint(scheduler):
    """A checkpoint racing a writeback lands before or after the whole
    append (data + inode are reserved under one hold of the log lock)."""
    layout = make_layout(scheduler, segment_blocks=32)
    inode = layout.allocate_inode(FileKind.REGULAR)
    blocks = [(i, data_block(b"w")) for i in range(6)]
    writer = scheduler.spawn(layout.write_file_blocks, inode, blocks, name="writer")
    checkpointer = scheduler.spawn(layout.checkpoint, name="checkpointer")
    scheduler.run_until_complete(writer)
    scheduler.run_until_complete(checkpointer)
    assert layout.inode_map[inode.number][0] == inode.get_block_address(5) + 1
    checkpoint_address, checkpoint_blocks = layout._checkpoint_location
    file_span = range(inode.get_block_address(0), layout.inode_map[inode.number][0] + 1)
    assert not set(file_span) & set(range(checkpoint_address, checkpoint_address + checkpoint_blocks))
    # The checkpoint on disk knows the inode the writeback wrote.
    reloaded = LogStructuredLayout(
        scheduler, layout.volume, block_size=4 * KB, segment_blocks=32, simulated=False
    )
    run(scheduler, reloaded.mount)
    assert run(scheduler, reloaded.read_inode, inode.number).block_map == inode.block_map


def test_data_only_append_leaves_the_inode_alone(scheduler):
    layout = make_layout(scheduler, segment_blocks=16)
    inode = layout.allocate_inode(FileKind.REGULAR)
    runs = record_write_runs(layout.volume)
    run(
        scheduler,
        lambda: layout.write_file_blocks(inode, [(0, data_block(b"x"))], with_inode=False),
    )
    assert runs == [(inode.get_block_address(0), 1)]
    assert inode.number not in layout.inode_map
    assert layout.stats.inodes_written == 0


def test_multi_disk_segments_do_not_cross_disks(scheduler):
    layout = make_layout(scheduler, disks=2, disk_mb=4, segment_blocks=8)
    for segment in range(layout.num_segments):
        start = layout.segment_start(segment)
        end = start + layout.segment_blocks - 1
        assert layout.volume.disk_of(start) == layout.volume.disk_of(end)
