"""Synthetic stand-ins for the Sprite traces used in the paper's figures.

The genuine Berkeley Sprite traces (Baker et al., SOSP '91) are 24-hour
traces of a Sun 4/280 file server and cannot be shipped with this
repository.  Each profile below reproduces the *character* that the paper
attributes to the corresponding trace, because that character is what drives
the published results:

* **1a** — an ordinary day: mixed read/write traffic, small files, lots of
  short-lived data.  The write-saving policies shine here.
* **1b** — "many large and parallel write operations": a larger client
  population writing big files concurrently.  The 4 MB NVRAM becomes the
  bottleneck ("new writes are waiting for the NVRAM to drain"), so NVRAM
  barely helps over the 30-second policy.
* **2a / 2b** — further ordinary days (permutations of 1a with different
  seeds and slightly different mixes), included because Figure 5 reports
  every trace.
* **5** — "many large writes enter the system while there are also a fair
  amount of stat and read operations".  Write data clutters the cache,
  read hit rates drop, and the gap between UPS and the baseline narrows.
* **6** — a read-mostly day, the calmest of the set.

Profiles are scaled down from 24 hours to minutes so a pure-Python
simulation finishes quickly; the *ratios* that matter (write volume versus
cache size versus NVRAM size, burstiness, overwrite factor) are preserved,
and the experiment configuration scales the cache and NVRAM with the same
factor (see ``repro.config.sun4_280_config``).
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import ConfigurationError
from repro.patsy.traces import TraceRecord
from repro.patsy.workload import SyntheticWorkloadGenerator, WorkloadProfile
from repro.units import KB

__all__ = ["SPRITE_PROFILES", "SPRITE_TRACE_NAMES", "sprite_like_trace"]


SPRITE_PROFILES: Dict[str, WorkloadProfile] = {
    # An ordinary day-time workload: small files, strong overwrite behaviour.
    "1a": WorkloadProfile(
        name="sprite-1a",
        duration=420.0,
        num_clients=7,
        mean_think_time=2.5,
        read_fraction=0.50,
        stat_fraction=0.35,
        mean_file_size=24 * KB,
        large_file_fraction=0.06,
        large_file_size=128 * KB,
        overwrite_fraction=0.45,
        delete_fraction=0.40,
        rewrite_delay=50.0,
    ),
    # Many large, parallel writes: the NVRAM-bottleneck trace.
    "1b": WorkloadProfile(
        name="sprite-1b",
        duration=420.0,
        num_clients=8,
        mean_think_time=3.0,
        read_fraction=0.30,
        stat_fraction=0.20,
        mean_file_size=32 * KB,
        large_file_fraction=0.30,
        large_file_size=320 * KB,
        overwrite_fraction=0.35,
        delete_fraction=0.40,
        rewrite_delay=8.0,
    ),
    # Two further ordinary days (Figure 5 reports them as near-permutations).
    "2a": WorkloadProfile(
        name="sprite-2a",
        duration=420.0,
        num_clients=6,
        mean_think_time=2.8,
        read_fraction=0.55,
        stat_fraction=0.30,
        mean_file_size=20 * KB,
        large_file_fraction=0.05,
        large_file_size=128 * KB,
        overwrite_fraction=0.50,
        delete_fraction=0.35,
        rewrite_delay=45.0,
    ),
    "2b": WorkloadProfile(
        name="sprite-2b",
        duration=420.0,
        num_clients=7,
        mean_think_time=2.5,
        read_fraction=0.45,
        stat_fraction=0.30,
        mean_file_size=28 * KB,
        large_file_fraction=0.07,
        large_file_size=160 * KB,
        overwrite_fraction=0.45,
        delete_fraction=0.40,
        rewrite_delay=50.0,
    ),
    # Large writes plus a fair amount of stats and reads: cache clutter.
    "5": WorkloadProfile(
        name="sprite-5",
        duration=420.0,
        num_clients=8,
        mean_think_time=3.0,
        read_fraction=0.45,
        stat_fraction=0.50,
        stat_burst=4,
        mean_file_size=48 * KB,
        large_file_fraction=0.20,
        large_file_size=256 * KB,
        overwrite_fraction=0.20,
        delete_fraction=0.15,
        rewrite_delay=20.0,
        hot_read_fraction=0.4,
        initial_files=200,
    ),
    # A calm, read-mostly day.
    "6": WorkloadProfile(
        name="sprite-6",
        duration=420.0,
        num_clients=5,
        mean_think_time=3.0,
        read_fraction=0.70,
        stat_fraction=0.40,
        mean_file_size=16 * KB,
        large_file_fraction=0.03,
        large_file_size=128 * KB,
        overwrite_fraction=0.45,
        delete_fraction=0.40,
        rewrite_delay=50.0,
    ),
}

#: the trace names reported in the paper's Figure 5, in display order.
SPRITE_TRACE_NAMES = ("1a", "1b", "2a", "2b", "5", "6")


def sprite_like_trace(name: str, scale: float = 1.0, seed: int = 0) -> List[TraceRecord]:
    """Generate the synthetic stand-in for Sprite trace ``name``.

    ``scale`` multiplies the trace duration (and with it the number of
    operations); ``seed`` varies the arrival pattern without changing the
    trace's character.
    """
    profile = SPRITE_PROFILES.get(name)
    if profile is None:
        raise ConfigurationError(
            f"unknown Sprite trace {name!r}; known traces: {sorted(SPRITE_PROFILES)}"
        )
    if scale != 1.0:
        profile = profile.scaled(scale)
    generator = SyntheticWorkloadGenerator(profile, seed=seed)
    return generator.generate()
