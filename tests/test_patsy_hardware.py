"""The simulated hardware: disk specs, the HP97560 model, the SCSI-2 bus."""

import pytest

from repro.core.driver import IOKind, IORequest
from repro.errors import ConfigurationError
from repro.patsy.bus import ScsiBus
from repro.patsy.diskspec import GENERIC_SMALL_DISK, HP97560, DiskSpec
from repro.patsy.simdisk import SimulatedDisk
from repro.patsy.simdriver import SimulatedDiskDriver
from repro.units import MB
from tests.conftest import run


def test_hp97560_geometry():
    assert HP97560.cylinders == 1962
    assert HP97560.heads == 19
    assert HP97560.sectors_per_track == 72
    assert HP97560.rpm == pytest.approx(4002.0)
    assert HP97560.rotation_time == pytest.approx(60.0 / 4002.0)
    assert HP97560.capacity_bytes > 1_300_000_000


def test_seek_curve_properties():
    assert HP97560.seek_time(0) == 0.0
    short = HP97560.seek_time(10)
    medium = HP97560.seek_time(380)
    long = HP97560.seek_time(1900)
    assert 0 < short < medium < long
    assert long == pytest.approx(HP97560.seek_a_long + HP97560.seek_b_long * 1900)


def test_decompose_roundtrip():
    sector = 12_345
    cylinder, head, sector_in_track = HP97560.decompose(sector)
    rebuilt = (
        cylinder * HP97560.sectors_per_cylinder
        + head * HP97560.sectors_per_track
        + sector_in_track
    )
    assert rebuilt == sector


def test_disk_spec_validation():
    with pytest.raises(ConfigurationError):
        DiskSpec(name="bad", cylinders=0, heads=1, sectors_per_track=1)


def test_bus_transfer_time_and_contention(fifo_scheduler):
    bus = ScsiBus(fifo_scheduler, bandwidth=10 * MB, arbitration_overhead=0.001)
    finish_times = []

    def user(nbytes):
        yield from bus.transfer(nbytes)
        finish_times.append(fifo_scheduler.now)

    threads = [fifo_scheduler.spawn(user, 1 * MB) for _ in range(2)]
    for thread in threads:
        fifo_scheduler.run_until_complete(thread)
    assert finish_times[0] == pytest.approx(0.101, rel=1e-3)
    # The second transfer had to wait for the first: serialised on the bus.
    assert finish_times[1] == pytest.approx(0.202, rel=1e-3)
    assert bus.transfers == 2
    assert bus.utilisation(fifo_scheduler.now) > 0.9


def test_simulated_disk_read_timing(scheduler):
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)

    def body():
        request = yield from driver.read(1000, 8)
        return request

    request = run(scheduler, body)
    # A cold read pays controller overhead + seek + rotation + transfer + bus.
    assert request.response_time > GENERIC_SMALL_DISK.controller_overhead
    assert request.response_time < 0.2
    assert 0.0 <= request.rotational_delay <= GENERIC_SMALL_DISK.rotation_time
    assert disk.stats.reads == 1


def test_sequential_read_hits_disk_cache(scheduler):
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)

    def body():
        first = yield from driver.read(5000, 8)
        # Read-ahead makes the immediately following sectors a cache hit.
        second = yield from driver.read(5008, 8)
        return first, second

    first, second = run(scheduler, body)
    assert not first.disk_cache_hit
    assert second.disk_cache_hit
    assert second.service_time < first.service_time


def test_immediate_reported_write_is_fast(scheduler):
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)

    def body():
        write = yield from driver.write(2000, 8)
        return write

    write = run(scheduler, body)
    assert disk.stats.immediate_writes == 1
    # No seek/rotation charged to the caller for an immediate-reported write.
    assert write.service_time < 0.01


def test_write_larger_than_disk_cache_pays_mechanical_time(scheduler):
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)
    big = (GENERIC_SMALL_DISK.cache_bytes // GENERIC_SMALL_DISK.sector_size) + 64

    def body():
        return (yield from driver.write(0, big))

    request = run(scheduler, body)
    assert disk.stats.immediate_writes == 0
    assert request.service_time > 0.01


def test_rotational_delay_statistics_collected(scheduler):
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)

    def body():
        for sector in (100, 40_000, 9_000, 70_000):
            yield from driver.read(sector, 4)

    run(scheduler, body)
    assert disk.stats.rotation.total == 4
    assert disk.stats.mean_rotational_delay() == pytest.approx(disk.stats.rotation.mean)
    assert disk.stats.total_seek_time > 0.0
    assert 0.0 <= disk.stats.mean_rotational_delay() <= GENERIC_SMALL_DISK.rotation_time


def test_statistics_memory_does_not_grow_with_the_request_count(scheduler):
    """Neither the driver nor the disk model keeps anything per request:
    after 200 requests their statistics hold what they held after 10."""
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)

    def footprint():
        sizes = []
        for stats in (driver.stats, disk.stats):
            for value in vars(stats).values():
                if isinstance(value, (list, dict, set, tuple)):
                    sizes.append(len(value))
                elif hasattr(value, "counts"):
                    sizes.append(len(value.counts))
        return sizes

    def body(count):
        for i in range(count):
            yield from driver.read((i * 7919) % 60_000, 4)

    run(scheduler, body, 10)
    after_ten = footprint()
    run(scheduler, body, 190)
    assert driver.stats.operations == 200 and disk.stats.rotation.total == 200
    assert footprint() == after_ten


def test_driver_shares_request_structure(scheduler):
    """The simulated driver uses the same IORequest structure as real drivers."""
    bus = ScsiBus(scheduler)
    disk = SimulatedDisk(scheduler, GENERIC_SMALL_DISK, bus)
    driver = SimulatedDiskDriver(scheduler, disk, bus)
    request = IORequest(kind=IOKind.READ, sector=0, count=8)

    def body():
        return (yield from driver.submit(request))

    completed = run(scheduler, body)
    assert completed is request
    assert request.completed_at >= request.created_at
