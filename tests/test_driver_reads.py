"""Every key the end-to-end driver reads from a result is there to read.

``benchmarks/e2e/measure.py`` reads ``SimulationResult`` and
``PegasusFileSystem.statistics()`` through a getter that answers 0 for a
key that is missing, so a section lost from a result would only show as a
per-layer counter dropping to zero.  These tests build the stacks it builds
— a 4-node ``replicas=1`` cluster with a node crash, and a PFS on the
``sun4_280`` array — and walk every key path it reads, strictly: each must
hold a number, and the ones the run cannot leave at zero must be above it.
A path segment ``*`` stands for every entry of a mapping (one at least).
"""

import pytest

from repro.config import cluster_config, sun4_280_config
from repro.core.faults import FaultEvent
from repro.patsy.simulator import PatsySimulator
from repro.pfs.filesystem import PegasusFileSystem
from repro.units import MB
from tests.test_golden_schedule import SPAN, golden_trace

#: what ``measure.cache_counters`` reads, in both worlds.
CACHE = ("hit_rate", "evictions", "allocation_stalls", "nvram_stalls", "victim_scan_steps",
         "blocks_written", "dirty_blocks_discarded", "peak_dirty_bytes", "blocks_dirtied")
LAYOUT = ("disk_reads", "disk_writes", "inodes_written", "index_writes", "cold_read_runs",
          "coalesced_read_hits", "cleaner_segments_cleaned", "cleaner_blocks_copied")

#: ``(path, must be above zero)`` for ``measure.patsy_counters`` and
#: ``patsy_sim_metrics``.
PATSY_PATHS = [
    *((f"cache_stats.{key}", key in ("hit_rate", "blocks_written", "blocks_dirtied"))
      for key in CACHE),
    ("volume_stats.rollup.flush.policy_flushes", False),
    *((f"volume_stats.rollup.layout.{key}", key in ("disk_reads", "disk_writes", "index_writes"))
      for key in LAYOUT),
    *((f"volume_stats.per_volume.*.disks.*.{key}", True)
      for key in ("operations", "utilisation", "mean_queue_length", "mean_response_time")),
    ("plugin_reports.rotational-delay.disks.*.requests", True),
    ("plugin_reports.rotational-delay.disks.*.mean_rotational_delay", True),
    *((f"plugin_reports.bus.buses.*.{key}", True)
      for key in ("transfers", "utilisation", "mean_wait_time")),
    *((f"cluster_stats.per_node.*.nic.{key}", True)
      for key in ("messages", "bytes_sent", "utilisation", "mean_wait_time")),
    ("cluster_stats.replication.replicated_block_writes", True),
    ("cluster_stats.replication.failover_reads", True),
    ("cluster_stats.replication.dropped_replica_writes", False),
    ("cluster_stats.repairer.repaired_copies", True),
    ("cluster_stats.repairer.bytes_copied", True),
    ("cluster_stats.repairer.lost_files", False),
    ("cluster_stats.rebalancer.migrations", False),
    ("cluster_stats.metadata.wal.records_appended", True),
    ("cluster_stats.metadata.wal.commits", True),
    ("cluster_stats.metadata.checkpoints", False),
]

#: the same for ``measure.pfs_day``'s reads of ``statistics()``.
PFS_PATHS = [
    *((f"cache.{key}", key in ("hit_rate", "blocks_written", "blocks_dirtied")) for key in CACHE),
    ("layout.disk_reads", True),
    ("layout.disk_writes", True),
    ("driver.mean_queue_length", False),
]


def leaves(mapping, path):
    """Every value at ``path``; a missing key raises ``KeyError``."""
    nodes = [mapping]
    for key in path.split("."):
        if key == "*":
            nodes = [child for node in nodes for child in node.values()]
            assert nodes, f"{path}: nothing under a '*'"
        else:
            nodes = [node[key] for node in nodes]
    return nodes


def check(mapping, path, positive):
    values = leaves(mapping, path)
    assert all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values), (
        path, values)
    if positive:
        assert sum(values) > 0, (path, values)


@pytest.fixture(scope="module")
def cluster_result():
    simulator = PatsySimulator(cluster_config(nodes=4, scale=0.02, replicas=1))
    simulator.inject_faults([FaultEvent(time=SPAN / 3.0, kind="node_crash", target=1)])
    result = simulator.replay(golden_trace(), trace_name="driver-reads")
    return {
        "cache_stats": result.cache_stats,
        "volume_stats": result.volume_stats,
        "plugin_reports": result.plugin_reports,
        "cluster_stats": result.cluster_stats,
    }


@pytest.fixture(scope="module")
def pfs_statistics():
    pfs = PegasusFileSystem(sun4_280_config(scale=0.02), size_bytes=40 * MB)
    pfs.format()
    for i in range(20):
        pfs.write_file(f"/f{i}", bytes([i]) * (5 * 4096 + 17))
    pfs.sync()
    for i in range(20):
        pfs.read_file(f"/f{i}")
    return pfs.statistics()


@pytest.mark.parametrize("path, positive", PATSY_PATHS, ids=[p for p, _ in PATSY_PATHS])
def test_a_cluster_result_holds_what_the_driver_reads(cluster_result, path, positive):
    check(cluster_result, path, positive)


def test_every_node_of_a_cluster_reports_its_nic(cluster_result):
    per_node = cluster_result["cluster_stats"]["per_node"]
    assert len(per_node) == 4 and all("nic" in node for node in per_node.values())


@pytest.mark.parametrize("path, positive", PFS_PATHS, ids=[p for p, _ in PFS_PATHS])
def test_pfs_statistics_hold_what_the_driver_reads(pfs_statistics, path, positive):
    check(pfs_statistics, path, positive)
