"""The abstract disk driver and the PFS memory/file backed drivers."""

import pytest

from repro.assembly.registry import registry
from repro.core.driver import IOKind
from repro.errors import DiskAddressError, DiskError
from repro.pfs.diskfile import FileBackedDiskDriver, MemoryBackedDiskDriver
from repro.units import MB, SECTOR_SIZE
from tests.conftest import run


def test_memory_driver_roundtrip(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB)

    def body():
        yield from driver.write(10, 2, b"A" * (2 * SECTOR_SIZE))
        request = yield from driver.read(10, 2)
        return bytes(request.data)

    assert run(scheduler, body) == b"A" * (2 * SECTOR_SIZE)
    assert driver.stats.reads == 1
    assert driver.stats.writes == 1
    assert driver.stats.sectors_written == 2


def test_out_of_bounds_rejected(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB)

    def body():
        yield from driver.read(driver.num_sectors, 1)

    with pytest.raises(DiskAddressError):
        run(scheduler, body)


def test_zero_length_request_rejected(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB)

    def body():
        yield from driver.read(0, 0)

    with pytest.raises(DiskError):
        run(scheduler, body)


def test_write_without_payload_zero_fills(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB)

    def body():
        yield from driver.write(0, 1, b"X" * SECTOR_SIZE)
        yield from driver.write(0, 1, None)
        request = yield from driver.read(0, 1)
        return bytes(request.data)

    assert run(scheduler, body) == bytes(SECTOR_SIZE)


def test_service_time_model(scheduler):
    driver = MemoryBackedDiskDriver(
        scheduler, size_bytes=1 * MB, fixed_latency=0.01, per_byte_time=0.0
    )

    def body():
        yield from driver.read(0, 1)
        yield from driver.read(5, 1)

    run(scheduler, body)
    assert scheduler.now == pytest.approx(0.02)
    assert driver.stats.mean_response_time() >= 0.01


def test_request_timing_fields(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB, fixed_latency=0.005)

    def body():
        return (yield from driver.read(0, 4))

    request = run(scheduler, body)
    assert request.kind is IOKind.READ
    assert request.completed_at >= request.dispatched_at >= request.created_at
    assert request.nbytes == 4 * SECTOR_SIZE
    assert request.response_time >= 0.005


def test_queue_statistics_accumulate(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB, fixed_latency=0.002)

    def client(start_sector):
        yield from driver.read(start_sector, 1)

    threads = [scheduler.spawn(client, i * 8) for i in range(5)]
    for thread in threads:
        scheduler.run_until_complete(thread)
    stats = driver.stats
    assert stats.operations == 5
    assert sum(stats.queue_lengths.values()) == 5
    # Memory constant in the request count: running sums, and no container
    # but the per-queue-length arrival counts the histogram plug-in reads.
    containers = [
        name for name, value in vars(stats).items() if isinstance(value, (list, dict, set, tuple))
    ]
    assert containers == ["queue_lengths"]
    assert stats.busy_time == pytest.approx(5 * 0.002)
    assert stats.utilisation(scheduler.now) == pytest.approx(stats.busy_time / scheduler.now)
    # One at a time on one device: the k-th request waits for k services.
    assert stats.mean_response_time() == pytest.approx(3 * 0.002)


def test_flush_waits_for_outstanding_work(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB, fixed_latency=0.01)

    def writer():
        yield from driver.write(0, 1, b"Y" * SECTOR_SIZE)

    def syncer():
        yield from driver.flush()
        return driver.outstanding

    scheduler.spawn(writer)
    assert run(scheduler, syncer) == 0


def test_clook_ordering_observed(scheduler):
    driver = MemoryBackedDiskDriver(
        scheduler,
        size_bytes=1 * MB,
        io_scheduler=registry.create("iosched", "clook"),
        fixed_latency=0.01,
    )
    completions = []

    def client(sector):
        yield from driver.read(sector, 1)
        completions.append(sector)

    threads = [scheduler.spawn(client, sector) for sector in (100, 900, 50, 500)]
    for thread in threads:
        scheduler.run_until_complete(thread)
    assert sorted(completions) == [50, 100, 500, 900]
    assert driver.stats.operations == 4


def test_memory_snapshot_restore(scheduler):
    driver = MemoryBackedDiskDriver(scheduler, size_bytes=1 * MB)

    def body():
        yield from driver.write(3, 1, b"Z" * SECTOR_SIZE)

    run(scheduler, body)
    snapshot = driver.snapshot()
    run(scheduler, lambda: (yield from driver.write(3, 1, b"Q" * SECTOR_SIZE)))
    driver.restore(snapshot)

    def read_back():
        request = yield from driver.read(3, 1)
        return bytes(request.data)

    assert run(scheduler, read_back) == b"Z" * SECTOR_SIZE


def test_file_backed_driver_persists(tmp_path, scheduler):
    path = tmp_path / "disk.img"
    driver = FileBackedDiskDriver(scheduler, path, size_bytes=1 * MB)

    def body():
        yield from driver.write(7, 1, b"P" * SECTOR_SIZE)

    run(scheduler, body)
    driver.close()
    assert path.stat().st_size == driver.num_sectors * SECTOR_SIZE

    driver2 = FileBackedDiskDriver(scheduler, path)

    def read_back():
        request = yield from driver2.read(7, 1)
        return bytes(request.data)

    assert run(scheduler, read_back) == b"P" * SECTOR_SIZE
    driver2.close()


def test_file_backed_driver_requires_size_for_new_file(tmp_path, scheduler):
    with pytest.raises(DiskError):
        FileBackedDiskDriver(scheduler, tmp_path / "missing.img")


def test_too_small_disk_rejected(scheduler):
    with pytest.raises(DiskError):
        MemoryBackedDiskDriver(scheduler, size_bytes=100)
